import gc
import hashlib
import random

import pytest

import tvcsp as t
from tvcsp import cspengine
from tvcsp import (
    CrispInstance,
    PreconditionError,
    SatResult,
    UnsupportedClassError,
    WeakOrder,
    forced_equalities,
    named_relation,
    solve_crisp_complete,
    solve_crisp_freeset,
    solve_crisp_minlayer,
)

import randgen as rg

LT = named_relation("ltInf")
NEQ = named_relation("neqInf")
EQC = t.rel_abg(t.ZERO, t.INF, t.INF, name="eqc")
LEQ = t.rel_abg(t.ZERO, t.ZERO, t.INF, name="leqc")
BETW = named_relation("Betw")


def test_instance_validation():
    with pytest.raises(ValueError):
        CrispInstance(("x", "x"), ())
    with pytest.raises(ValueError):
        CrispInstance(("x",), ((named_relation("lt01"), ("x", "x")),))
    with pytest.raises(ValueError):
        CrispInstance(("x", "y"), ((LT, ("x",)),))


def test_with_lt_checks_the_new_pair(monkeypatch):
    built = _count_compiled_atoms(monkeypatch)
    ci = CrispInstance(("x", "y", "z"), ((LT, ("x", "y")), (NEQ, ("y", "z"))))
    for x, y in (("x", "x"), ("x", "w"), ("w", "y")):
        with pytest.raises(ValueError):
            ci.with_lt(x, y)
    assert built == []  # a bad pair compiles nothing
    probe = ci.with_lt("z", "x")
    assert len(built) == len(ci.atoms) + 1
    assert probe.variables == ci.variables
    assert probe.atoms[1:] == ci.atoms
    assert probe.atoms[0][1] == ("z", "x")
    assert probe.atoms[0][0].table == LT.table
    assert ci.atoms == ((LT, ("x", "y")), (NEQ, ("y", "z")))
    assert solve_crisp_complete(ci).witness == WeakOrder((0, 1, 0))
    assert solve_crisp_complete(probe).witness == WeakOrder((1, 2, 0))
    # a probe of a probe compiles only its own atom as well
    assert not solve_crisp_complete(probe.with_lt("y", "z")).satisfiable
    assert len(built) == len(ci.atoms) + 2
    # every probe shares one ltInf relation, and with it one memo
    other = CrispInstance(("a", "b"), ())
    assert other.with_lt("b", "a").atoms[0][0] is probe.atoms[0][0]


def test_reversed_instance_and_its_probes(monkeypatch):
    built = _count_compiled_atoms(monkeypatch)
    ci = CrispInstance(("x", "y", "z"), ((LT, ("x", "y")), (NEQ, ("y", "z"))))
    rev = ci.reversed()
    assert rev is ci.reversed()
    assert rev.variables == ci.variables
    assert rev.atoms == tuple((rel.reversed(), args) for rel, args in ci.atoms)
    assert solve_crisp_freeset(ci, "miDual").witness == WeakOrder((1, 2, 0))
    assert len(built) == len(ci.atoms)  # the reversal's atoms
    # a probe's reversal is the reversal's probe: ltInf(z, x) reads x < z
    probe = ci.with_lt("z", "x")
    assert probe.reversed().atoms == ((LT, ("x", "z")),) + rev.atoms
    # ci's atoms, which with_lt extends, and one ltInf atom each for the
    # probe and its reversal
    assert len(built) == 2 * len(ci.atoms) + 2
    flipped = CrispInstance(probe.variables, tuple(
        (rel.reversed(), args) for rel, args in probe.atoms))
    got = solve_crisp_freeset(probe, "miDual")
    assert got.witness == solve_crisp_freeset(flipped, "mi").witness.reversed()
    assert got.witness == WeakOrder((1, 2, 0))


def test_antisymmetry_unsat():
    ci = CrispInstance(("x", "y"), ((LT, ("x", "y")), (LT, ("y", "x"))))
    assert not solve_crisp_complete(ci).satisfiable


def test_chain_witness_follows_layer_order():
    ci = CrispInstance(("x", "y", "z"), ((LT, ("x", "y")), (LT, ("y", "z"))))
    assert _satisfying_orders(ci) == [WeakOrder((0, 1, 2))]
    assert solve_crisp_complete(ci).witness == WeakOrder((0, 1, 2))
    # several satisfying orders: y alone is the greatest admissible bottom
    # layer, then z, then x, although [1,1,0] is lexicographically smaller
    ci = CrispInstance(("x", "y", "z"), ((NEQ, ("z", "y")), (LT, ("z", "x"))))
    sats = _satisfying_orders(ci)
    assert len(sats) > 1 and WeakOrder((1, 1, 0)) in sats
    assert solve_crisp_complete(ci).witness == WeakOrder((2, 0, 1))
    assert max(sats, key=_layer_key) == WeakOrder((2, 0, 1))


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
    for x, y in (("x", "y"), ("y", "x")):
        assert not solve_crisp_complete(ci.with_lt(x, y)).satisfiable
    assert not solve_crisp_complete(CrispInstance(
        ci.variables, ci.atoms + ((NEQ, ("x", "y")),))).satisfiable
    free = CrispInstance(("x", "y", "z"), ((LT, ("x", "y")),
                                           (NEQ, ("x", "z")),
                                           (NEQ, ("y", "z"))))
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


def test_complete_search_leaves_no_reference_cycle():
    # garbage in a cycle waits for the cyclic collector and inflates the
    # peak memory of a long run of solves
    ci = CrispInstance(("x", "y", "z"),
                       ((LT, ("x", "y")), (NEQ, ("y", "z"))))
    gc.collect()
    gc.disable()
    try:
        assert solve_crisp_complete(ci).satisfiable
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_complete_answers_alike_with_a_warm_consistency_memo():
    # the relations below are shared by every instance, so their memos
    # are warm from the instances before; fresh copies start empty
    rng = random.Random(4242)
    rels = [LT, NEQ, EQC, LEQ, BETW, t.feas(named_relation("leq01")),
            named_relation("Cyc"), named_relation("T3"),
            named_relation("Dis")]
    repeated = with_probes = satisfiable = 0
    for _ in range(400):
        ci = rg.rand_crisp_instance(rng, rels, max_vars=7, max_atoms=5)
        vs = ci.variables
        pairs = [tuple(rng.sample(vs, 2))
                 for _ in range(rng.randint(0, 2) if len(vs) > 1 else 0)]
        warm = ci
        for x, y in pairs:  # probes over the shared ltInf relation
            warm = warm.with_lt(x, y)
        fresh = {id(rel): rel.renamed(rel.name) for rel, _ in warm.atoms}
        cold = CrispInstance(
            vs, tuple((fresh[id(rel)], args) for rel, args in warm.atoms))
        res = solve_crisp_complete(warm)
        assert res == solve_crisp_complete(cold), warm
        repeated += any(len(set(args)) < len(args) for _, args in ci.atoms)
        with_probes += bool(pairs)
        satisfiable += res.satisfiable
    assert min(repeated, with_probes, satisfiable) >= 100


def test_minlayer_answers_alike_with_a_warm_memo(monkeypatch):
    # the pool relations and their reversals are shared by every instance,
    # so their memos are warm from the instances before
    rng = random.Random(6161)
    pool = [rg.make_minclosed_crisp(rng, f"M{i}", rng.randint(1, 3))
            for i in range(10)]
    satisfiable = 0
    for _ in range(200):
        ci = rg.rand_crisp_instance(rng, rng.sample(pool, rng.randint(1, 3)),
                                    max_vars=7)
        fresh = {id(rel): rel.renamed(rel.name) for rel, _ in ci.atoms}
        for shared in (True, False):
            atoms = ci.atoms if shared else tuple(
                (fresh[id(rel)], args) for rel, args in ci.atoms)
            rev = tuple([(rel.reversed(), args) for rel, args in atoms])
            got = (solve_crisp_minlayer(CrispInstance(ci.variables, atoms),
                                        "min", check_closure=False),
                   solve_crisp_minlayer(CrispInstance(ci.variables, rev),
                                        "max", check_closure=False))
            if shared:
                want = got
            assert got == want, ci
        assert want[1].witness == (want[0].witness
                                   and want[0].witness.reversed())
        satisfiable += want[0].satisfiable
    assert satisfiable >= 100
    # a second solve of the same instance reads only the memo
    matched = []
    real = cspengine._CompiledAtom._matches

    def counting(self, z, layer):
        matched.append(z)
        return real(self, z, layer)

    monkeypatch.setattr(cspengine._CompiledAtom, "_matches", counting)
    ci = CrispInstance(ci.variables, tuple(
        (rel.renamed(rel.name), args) for rel, args in ci.atoms))
    for direction in ("min", "max"):
        first = solve_crisp_minlayer(ci, direction, check_closure=False)
        assert matched
        matched.clear()
        assert solve_crisp_minlayer(ci, direction,
                                    check_closure=False) == first
        assert matched == []


def _count_compiled_atoms(monkeypatch):
    built = []

    class Counting(cspengine._CompiledAtom):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cspengine, "_CompiledAtom", Counting)
    return built


def test_forced_equalities_compiles_each_atom_once(monkeypatch):
    built = _count_compiled_atoms(monkeypatch)
    calls = _count_complete_calls(monkeypatch)
    vs = ("v0", "v1", "v2", "v3")
    ci = CrispInstance(vs, ((EQC, ("v0", "v1")), (LEQ, ("v1", "v2")),
                            (LEQ, ("v2", "v1")), (NEQ, ("v2", "v3"))))
    want = (("v0", "v1"), ("v0", "v2"), ("v1", "v2"))
    assert forced_equalities(ci) == want
    # the base solve, then two unsatisfiable probes for each of two pairs;
    # each probe compiles only its ltInf atom
    assert len(calls) == 5
    assert len(built) == len(ci.atoms) + 4
    # seeded with a solution, the probes are the first to compile
    seeded = CrispInstance(vs, ci.atoms)
    built.clear()
    calls.clear()
    assert forced_equalities(seeded, WeakOrder((0, 0, 0, 1))) == want
    assert len(calls) == 4
    assert len(built) == len(ci.atoms) + 4
    # the crisp cap is read at every backend call, not at compile time
    probe = ci.with_lt("v0", "v3")
    assert len(built) == len(ci.atoms) + 5
    monkeypatch.setenv("TVCSP_SEARCH_CAP", "3")
    for inst in (ci, probe):
        with pytest.raises(t.CapacityError) as err:
            solve_crisp_complete(inst)
        assert "TVCSP_SEARCH_CAP=3" in str(err.value)
    assert len(built) == len(ci.atoms) + 5


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

    # no variables: satisfiable with no witness, as on the complete backend
    empty = CrispInstance((), ())
    assert solve_crisp_complete(empty) == SatResult(True, None)
    for direction in ("min", "max"):
        assert solve_crisp_minlayer(empty, direction) == SatResult(True, None)


def test_minlayer_rejects_unsupported():
    neq_inst = CrispInstance(("x", "y"), ((NEQ, ("x", "y")),))
    with pytest.raises(UnsupportedClassError):
        solve_crisp_minlayer(neq_inst, "min")


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


#: SHA-256 of the min-layer backend's results on the instances of
#: test_backend_equivalence_random, recorded before the backend became the
#: free-set driver's min finder.
MINLAYER_RESULTS_SHA = \
    "9d2ee00f7c40e7b7e91cb56283a5b1fa88f7b9d90489350998a8cb40a025ee51"


def test_backend_equivalence_random():
    rng = random.Random(77)
    pool = [rg.make_minclosed_crisp(rng, f"M{i}", rng.randint(1, 3))
            for i in range(10)]
    results = []
    for i in range(120):
        rels = rng.sample(pool, rng.randint(1, 3))
        ci = rg.rand_crisp_instance(rng, rels)
        a = solve_crisp_minlayer(ci, "min", check_closure=False)
        b = solve_crisp_complete(ci)
        assert a.satisfiable == b.satisfiable
        if a.satisfiable:
            assert _witness_ok(ci, a.witness)
            assert _witness_ok(ci, b.witness)
        results += [solve_crisp_freeset(ci, "min"),
                    solve_crisp_freeset(ci.reversed(), "max")]
        assert results[-2] == a
    # the min finder answers exactly as the min-layer backend did
    digest = hashlib.sha256(
        "\n".join(map(repr, results)).encode()).hexdigest()
    assert digest == MINLAYER_RESULTS_SHA


def _preserved_pool(rng, tag, size):
    """``size`` crisp relations of arity 2 or 3 (alternately) preserved by
    ``tag``: random nonempty zero sets, kept when ``tag`` preserves them,
    so every preserved relation can be drawn, whatever its first witness."""
    op = t.OPS[tag]
    pool = []
    while len(pool) < size:
        arity = 2 + len(pool) % 2
        zeros = [w for w in t.enumerate_weak_orders(arity)
                 if rng.random() < 0.5]
        if not zeros:
            continue
        rel = t.crisp_relation(f"{tag}{len(pool)}", arity, zeros)
        if t.preserves(op, rel):
            pool.append(rel)
    return pool


@pytest.mark.parametrize("tag", ["mi", "miDual"])
def test_freeset_driver_matches_the_complete_backend(tag):
    rng = random.Random(2020 if tag == "mi" else 2021)
    pool = _preserved_pool(rng, tag, 24)
    # relations whose first witness is min or max are in the pool too
    assert any(t.preserves(t.OPS[op], rel)
               for rel in pool for op in ("min", "max"))

    def driver(ci):
        return solve_crisp_freeset(ci, tag)

    counts = [0, 0]
    for _ in range(600):
        ci = rg.rand_crisp_instance(rng, rng.sample(pool, rng.randint(1, 3)),
                                    max_vars=7, max_atoms=8)
        got, want = driver(ci), solve_crisp_complete(ci)
        assert got.satisfiable == want.satisfiable, ci
        counts[got.satisfiable] += 1
        if got.satisfiable and ci.variables:
            assert _witness_ok(ci, got.witness), ci
            assert forced_equalities(ci, backend=driver) == \
                forced_equalities(ci), ci
    assert min(counts) >= 100


def test_freeset_examples():
    ci = CrispInstance(("x", "y", "z"), ((NEQ, ("x", "y")),
                                         (NEQ, ("y", "z")), (LT, ("z", "x"))))
    # x lies above z; y is the first seed whose closure is free
    assert solve_crisp_freeset(ci, "mi").witness == WeakOrder((2, 0, 1))
    assert solve_crisp_freeset(ci.reversed(), "miDual").witness == \
        WeakOrder((0, 2, 1))
    cycle = CrispInstance(("x", "y"), ((LT, ("x", "y")), (LT, ("y", "x"))))
    assert not solve_crisp_freeset(cycle, "mi").satisfiable
    for tag in ("min", "max", "mi", "miDual"):
        assert solve_crisp_freeset(CrispInstance((), ()), tag) == \
            SatResult(True, None)
    with pytest.raises(ValueError):
        solve_crisp_freeset(ci, "mx")
    # no cap: a chain past the crisp cap is answered
    vs = tuple(f"v{i}" for i in range(40))
    chain = CrispInstance(vs, tuple((NEQ if i % 2 else LT, (vs[i], vs[i + 1]))
                                    for i in range(39)))
    with pytest.raises(t.CapacityError):
        solve_crisp_complete(chain)
    res = solve_crisp_freeset(chain, "mi")
    assert _witness_ok(chain, res.witness)


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


def _forced_equalities_reference(inst):
    """One ``neqInf`` probe per pair, no pruning."""
    assert solve_crisp_complete(inst).satisfiable
    vs = inst.variables
    return tuple((vs[i], vs[j])
                 for i in range(len(vs)) for j in range(i + 1, len(vs))
                 if not solve_crisp_complete(CrispInstance(
                     vs, inst.atoms + ((NEQ, (vs[i], vs[j])),))).satisfiable)


def _count_complete_calls(monkeypatch):
    calls = []
    real = cspengine.solve_crisp_complete

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cspengine, "solve_crisp_complete", counting)
    return calls


def test_forced_equalities_match_all_pairs_reference(monkeypatch):
    # eqc and leqc make forced pairs common, so both pruning rules fire
    rels = [LT, NEQ, t.feas(named_relation("leq01")),
            t.feas(named_relation("eq01")), BETW, EQC, LEQ]
    rng = random.Random(2024)
    calls = _count_complete_calls(monkeypatch)
    checked = with_forced = 0
    while checked < 500:
        ci = rg.rand_crisp_instance(rng, rels, max_vars=7, max_atoms=8)
        if not solve_crisp_complete(ci).satisfiable:
            continue
        want = _forced_equalities_reference(ci)
        calls.clear()
        got = forced_equalities(ci)
        assert got == want, ci
        n = len(ci.variables)
        assert len(calls) <= 1 + n * (n - 1)
        if n <= 4:
            # any solution may seed the search in place of the base solve
            for w in _satisfying_orders(ci):
                calls.clear()
                assert forced_equalities(ci, witness=w) == want, (ci, w)
                assert len(calls) <= n * (n - 1)
        checked += 1
        with_forced += bool(want)
    assert with_forced >= 50


def test_forced_equalities_probe_counts(monkeypatch):
    calls = _count_complete_calls(monkeypatch)
    vs = tuple(f"v{i}" for i in range(8))
    chain = CrispInstance(vs, tuple((LT, (vs[i], vs[i + 1]))
                                    for i in range(7)))
    assert forced_equalities(chain) == ()
    assert len(calls) == 1  # the injective base witness settles every pair

    calls.clear()
    vs = vs[:6]
    equal = CrispInstance(vs, tuple((EQC, (vs[i], vs[i + 1]))
                                    for i in range(5)))
    assert forced_equalities(equal) == tuple(
        (vs[i], vs[j]) for i in range(6) for j in range(i + 1, 6))
    # v0 against each other, two probes a pair; the rest by transitivity
    assert len(calls) == 11

    calls.clear()
    assert forced_equalities(CrispInstance((), ())) == ()
    assert len(calls) == 1
