import random

import pytest

import tvcsp as t
from tvcsp import (
    CrispInstance,
    PreconditionError,
    UnsupportedClassError,
    WeakOrder,
    forced_equalities,
    named_relation,
    solve_crisp_complete,
    solve_crisp_minlayer,
)

import randgen as rg

LT = named_relation("ltInf")
NEQ = named_relation("neqInf")
EQC = t.rel_abg(t.ZERO, t.INF, t.INF, name="eqc")
BETW = named_relation("Betw")


def test_instance_validation():
    with pytest.raises(ValueError):
        CrispInstance(("x", "x"), ())
    with pytest.raises(ValueError):
        CrispInstance(("x",), ((named_relation("lt01"), ("x", "x")),))
    with pytest.raises(ValueError):
        CrispInstance(("x", "y"), ((LT, ("x",)),))
    with pytest.raises(ValueError):
        CrispInstance(("x",), (), frozenset({("x", "x")}))


def test_antisymmetry_unsat():
    ci = CrispInstance(("x", "y"), ((LT, ("x", "y")), (LT, ("y", "x"))))
    assert not solve_crisp_complete(ci).satisfiable


def test_chain_witness_is_lex_least():
    ci = CrispInstance(("x", "y", "z"), ((LT, ("x", "y")), (LT, ("y", "z"))))
    res = solve_crisp_complete(ci)
    assert res.witness == WeakOrder((0, 1, 2))


def test_betweenness_pair_unsat():
    ci = CrispInstance(("x", "y", "z"),
                       ((BETW, ("x", "y", "z")), (BETW, ("y", "z", "x"))))
    assert not solve_crisp_complete(ci).satisfiable


def test_unconstrained_variables_collapse():
    ci = CrispInstance(("a", "b"), ())
    assert solve_crisp_complete(ci).witness == WeakOrder((0, 0))


def test_disequalities_respected():
    ci = CrispInstance(("x", "y"), ((EQC, ("x", "y")),))
    assert solve_crisp_complete(ci).satisfiable
    assert not solve_crisp_complete(
        ci.with_disequality("x", "y")).satisfiable
    free = CrispInstance(("x", "y", "z"), ((LT, ("x", "y")),),
                         frozenset({("x", "z"), ("y", "z")}))
    res = solve_crisp_complete(free)
    assert res.satisfiable
    rx, ry, rz = res.witness.ranks
    assert rx != rz and ry != rz and rx < ry


def _layer_key(w):
    # bottom layer's indicator first (first variable most significant),
    # then the next layer up, and so on
    return tuple(tuple(int(r == level) for r in w.ranks)
                 for level in range(w.levels))


def test_complete_returns_first_witness_in_layer_order():
    # brute-force reference: among all satisfying weak orders, the one
    # whose layer indicators are greatest, bottom layer first
    rng = random.Random(555)
    rels = [LT, EQC, t.feas(named_relation("leq01")), NEQ]
    for _ in range(40):
        ci = rg.rand_crisp_instance(rng, rels, max_vars=4, max_atoms=4)
        res = solve_crisp_complete(ci)
        if not _satisfying_orders(ci):
            assert not res.satisfiable
        else:
            assert res.witness == max(_satisfying_orders(ci),
                                      key=_layer_key)


def test_complete_witness_is_not_lex_least():
    ci = CrispInstance(("v0", "v1", "v2", "v3"),
                       ((t.feas(NEQ), ("v2", "v1")), (LT, ("v2", "v0"))))
    sats = _satisfying_orders(ci)
    assert WeakOrder((1, 1, 0, 0)) in sats
    assert solve_crisp_complete(ci).witness == WeakOrder((2, 0, 1, 0))
    assert max(sats, key=_layer_key) == WeakOrder((2, 0, 1, 0))


def _satisfying_orders(ci):
    pos = {v: i for i, v in enumerate(ci.variables)}
    out = []
    for w in t.enumerate_weak_orders(len(ci.variables)):
        ok = True
        for rel, args in ci.atoms:
            ranks = tuple(w.ranks[pos[a]] for a in args)
            if rel.table[t.canonical_weak_order(ranks)] != t.ZERO:
                ok = False
                break
        if ok:
            out.append(w)
    return out


def test_complete_cap():
    ci = CrispInstance(tuple(f"v{i}" for i in range(11)), ())
    with pytest.raises(t.CapacityError) as err:
        solve_crisp_complete(ci)
    assert "TVCSP_SEARCH_CAP" in str(err.value)


def test_minlayer_examples():
    branch = CrispInstance(("x", "y", "z"),
                           ((LT, ("x", "y")), (LT, ("x", "z"))))
    res = solve_crisp_minlayer(branch, "min")
    assert res.witness.ranks[0] == 0  # x alone in the first layer
    assert res.witness.ranks[1] > 0 and res.witness.ranks[2] > 0

    cycle = CrispInstance(("x", "y"), ((LT, ("x", "y")), (LT, ("y", "x"))))
    assert not solve_crisp_minlayer(cycle, "min").satisfiable


def test_minlayer_rejects_unsupported():
    neq_inst = CrispInstance(("x", "y"), ((NEQ, ("x", "y")),))
    with pytest.raises(UnsupportedClassError):
        solve_crisp_minlayer(neq_inst, "min")
    diseq = CrispInstance(("x", "y"), ((LT, ("x", "y")),),
                          frozenset({("x", "y")}))
    with pytest.raises(UnsupportedClassError):
        solve_crisp_minlayer(diseq, "min")


def test_minlayer_max_direction():
    gt = t.reverse_relation(LT, name="gt")
    ci = CrispInstance(("x", "y", "z"), ((gt, ("x", "y")), (gt, ("y", "z"))))
    res = solve_crisp_minlayer(ci, "max")
    assert res.witness == WeakOrder((2, 1, 0))
    # max-closed but not min-closed: z below the maximum of x, y
    zltmax = t.relation_from_fn(
        "zltmax", 3,
        lambda w: t.ZERO if w.ranks[2] < max(w.ranks[0], w.ranks[1]) else t.INF)
    ci2 = CrispInstance(("x", "y", "z"), ((zltmax, ("x", "y", "z")),))
    with pytest.raises(UnsupportedClassError):
        solve_crisp_minlayer(ci2, "min")
    assert solve_crisp_minlayer(ci2, "max").satisfiable


def _witness_ok(inst, witness):
    """Re-check a witness through the instance evaluator: every atom must
    contribute cost 0."""
    rels = {}
    for rel, _ in inst.atoms:
        rels.setdefault(rel.name, rel)
    structure = t.ValuedStructure(rels.values())
    named = t.Instance(inst.variables,
                       tuple((rel.name, args) for rel, args in inst.atoms))
    return t.evaluate(structure, named, witness) == t.ZERO


def test_backend_equivalence_random():
    rng = random.Random(77)
    pool = [rg.make_minclosed_crisp(rng, f"M{i}", rng.randint(1, 3))
            for i in range(10)]
    for i in range(120):
        rels = rng.sample(pool, rng.randint(1, 3))
        ci = rg.rand_crisp_instance(rng, rels)
        a = solve_crisp_minlayer(ci, "min", check_closure=False)
        b = solve_crisp_complete(ci)
        assert a.satisfiable == b.satisfiable
        if a.satisfiable:
            assert _witness_ok(ci, a.witness)
            assert _witness_ok(ci, b.witness)


def test_forced_equalities_examples():
    assert forced_equalities(
        CrispInstance(("x", "y"), ((EQC, ("x", "y")),))) == (("x", "y"),)
    assert forced_equalities(
        CrispInstance(("x", "y"), ((LT, ("x", "y")),))) == ()
    fr3 = t.feas(t.relation_from_fn(
        "R3", 3,
        lambda w: t.ZERO if w.is_injective() else
        (t.Cost(1) if w.ranks[0] == w.ranks[1] != w.ranks[2] else t.INF)))
    ci = CrispInstance(("x", "y", "z"), ((fr3, ("x", "y", "z")),))
    assert forced_equalities(ci) == ()


def test_forced_equalities_requires_satisfiable():
    ci = CrispInstance(("x", "y"), ((LT, ("x", "y")), (LT, ("y", "x"))))
    with pytest.raises(PreconditionError):
        forced_equalities(ci)


def test_forced_equalities_monotone_under_atoms():
    rng = random.Random(88)
    rels = [LT, EQC, t.feas(named_relation("leq01"))]
    trials = 0
    while trials < 25:
        ci = rg.rand_crisp_instance(rng, rels, max_vars=5, max_atoms=5)
        if not solve_crisp_complete(ci).satisfiable:
            continue
        bigger = CrispInstance(
            ci.variables, ci.atoms + ((EQC, (ci.variables[0],
                                             ci.variables[-1])),))
        if not solve_crisp_complete(bigger).satisfiable:
            continue
        base = set(forced_equalities(ci))
        extended = set(forced_equalities(bigger))
        assert base <= extended
        trials += 1
