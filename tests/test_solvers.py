import random
import sys
import threading
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import tvcsp as t
from tvcsp import (
    CapacityError,
    Cost,
    INF,
    Instance,
    PreconditionError,
    ValuedStructure,
    WeakOrder,
    ZERO,
    evaluate,
    named_relation,
    relation_from_fn,
    solve_const,
    solve_dispatch,
    solve_equality_inj,
    solve_essentially_crisp,
    solve_exact_layers,
    solve_lex,
    solve_oracle,
)
from tvcsp import canonops, config, cspengine, files, orders, solvers
from tvcsp.relations import build_hat

import randgen as rg


def r3_relation():
    def fn(w):
        if w.is_injective():
            return ZERO
        x, y, z = w.ranks
        return Cost(1) if x == y != z else INF
    return relation_from_fn("R3", 3, fn)


S_LT = ValuedStructure([named_relation("lt01")])


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance((), ())
    with pytest.raises(ValueError):
        Instance(("x",), (("r", ("y",)),))
    with pytest.raises(ValueError):
        Instance(("x",), (), threshold=INF)


def test_evaluate_examples():
    inst = Instance.from_atoms([("lt01", ("x", "y")), ("lt01", ("y", "x"))])
    assert evaluate(S_LT, inst, WeakOrder((0, 1))) == Cost(1)
    assert evaluate(S_LT, inst, WeakOrder((0, 0))) == Cost(2)
    inst2 = Instance.from_atoms([("empty", ("x",)), ("lt01", ("x", "y"))])
    for w in t.enumerate_weak_orders(2):
        assert evaluate(S_LT, inst2, w) == INF


def test_evaluate_rejects_bad_atoms():
    with pytest.raises(KeyError):
        evaluate(S_LT, Instance.from_atoms([("zz", ("x",))]),
                 WeakOrder((0,)))
    with pytest.raises(ValueError):
        evaluate(S_LT, Instance.from_atoms([("lt01", ("x",))]),
                 WeakOrder((0,)))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_three_cycle():
    inst = Instance.from_atoms(
        [("lt01", ("x", "y")), ("lt01", ("y", "z")), ("lt01", ("z", "x"))])
    out = solve_oracle(S_LT, inst)
    assert out.optimal_cost == Cost(1)
    assert evaluate(S_LT, inst, out.argmin) == Cost(1)
    assert out.argmin == WeakOrder((0, 1, 2))  # least optimal order


def test_oracle_empty_sum():
    inst = Instance.from_atoms([], extra_vars=["x"])
    out = solve_oracle(S_LT, inst)
    assert out.optimal_cost == ZERO


def test_oracle_eq_builtin():
    s = ValuedStructure([named_relation("neq01")])
    inst = Instance.from_atoms([("eq", ("x", "y")), ("neq01", ("x", "y"))])
    out = solve_oracle(s, inst)
    assert out.optimal_cost == Cost(1)
    assert out.argmin == WeakOrder((0, 0))


def test_oracle_cap():
    inst = Instance.from_atoms([], extra_vars=[f"v{i}" for i in range(9)])
    with pytest.raises(CapacityError):
        solve_oracle(S_LT, inst)


def test_oracle_exact_fractions():
    s = ValuedStructure([t.rel_abg(Fraction(1, 3), 0, Fraction(5, 7),
                                   name="R")])
    inst = Instance.from_atoms([("R", ("x", "y")), ("R", ("y", "x"))])
    out = solve_oracle(s, inst)
    assert out.optimal_cost == Cost(Fraction(2, 3))


# ---------------------------------------------------------------------------
# tractable solvers: worked examples
# ---------------------------------------------------------------------------

def test_solve_const_examples():
    s = ValuedStructure([named_relation("leq01")])
    inst = Instance.from_atoms(
        [("leq01", ("x", "y")), ("leq01", ("y", "x"))], threshold=ZERO)
    out = solve_const(s, inst)
    assert out.optimal_cost == ZERO and out.decision is True

    s_eq = ValuedStructure([named_relation("eq01")])
    inst2 = Instance.from_atoms([("eq01", ("x", "y")), ("eq01", ("y", "z"))])
    assert solve_const(s_eq, inst2).optimal_cost == ZERO

    inst3 = Instance.from_atoms([("empty", ("x",)), ("leq01", ("x", "y"))],
                                threshold=Cost(100))
    out3 = solve_const(s, inst3)
    assert out3.optimal_cost == INF and out3.decision is False


def test_solve_const_precondition():
    with pytest.raises(PreconditionError):
        solve_const(S_LT, Instance.from_atoms([("lt01", ("x", "y"))]))


def test_solve_equality_inj_examples():
    s = ValuedStructure([named_relation("neq01"), named_relation("eqInf")])
    out = solve_equality_inj(
        s, Instance.from_atoms([("neq01", ("x", "y")),
                                ("neq01", ("x", "y"))]))
    assert out.optimal_cost == ZERO

    out = solve_equality_inj(
        s, Instance.from_atoms([("eqInf", ("x", "y")),
                                ("neq01", ("x", "y"))]))
    assert out.optimal_cost == Cost(1)
    assert out.argmin == WeakOrder((0, 0))

    only_eq = ValuedStructure([named_relation("eqInf")])
    out = solve_equality_inj(
        only_eq, Instance.from_atoms([("eqInf", ("x", "y"))]))
    assert out.optimal_cost == ZERO
    assert out.argmin == WeakOrder((0, 0))


def test_solve_equality_inj_rejects_infeasible_collapse():
    s = ValuedStructure([named_relation("neqInf")])
    out = solve_equality_inj(
        s, Instance.from_atoms([("neqInf", ("x", "x"))]))
    assert out.optimal_cost == INF


def test_solve_equality_inj_preconditions():
    with pytest.raises(PreconditionError):
        solve_equality_inj(S_LT, Instance.from_atoms([("lt01", ("x", "y"))]))
    s = ValuedStructure([named_relation("eq01")])  # inj does not improve
    with pytest.raises(PreconditionError):
        solve_equality_inj(s, Instance.from_atoms([("eq01", ("x", "y"))]))


def test_solve_lex_examples():
    s = ValuedStructure([r3_relation()])
    out = solve_lex(s, Instance.from_atoms([("R3", ("a", "a", "c"))]))
    assert out.optimal_cost == Cost(1)
    out = solve_lex(s, Instance.from_atoms(
        [("R3", ("a", "b", "c")), ("R3", ("b", "a", "c"))]))
    assert out.optimal_cost == ZERO

    s2 = ValuedStructure([named_relation("neq01")])
    out = solve_lex(s2, Instance.from_atoms([("neq01", ("x", "x"))]))
    assert out.optimal_cost == Cost(1)


def test_solve_lex_infeasible():
    s = ValuedStructure([named_relation("eqInf"), named_relation("neq01")])
    # crisp equality plus an unsatisfiable empty atom
    out = solve_lex(s, Instance.from_atoms(
        [("eqInf", ("x", "y")), ("empty", ("x",))], threshold=Cost(10)))
    assert out.optimal_cost == INF and out.decision is False


def test_solve_lex_precondition():
    with pytest.raises(PreconditionError):
        solve_lex(S_LT, Instance.from_atoms([("lt01", ("x", "y"))]))


def test_solve_essentially_crisp_examples():
    s = ValuedStructure([named_relation("ltInf")])
    out = solve_essentially_crisp(
        s, Instance.from_atoms([("ltInf", ("x", "y")), ("ltInf", ("y", "z"))]))
    assert out.optimal_cost == ZERO
    out = solve_essentially_crisp(
        s, Instance.from_atoms([("ltInf", ("x", "y")), ("ltInf", ("y", "x"))]),
        threshold=Cost(1000))
    assert out.optimal_cost == INF and out.decision is False

    shifted = ValuedStructure([t.shift(named_relation("ltInf"), 2,
                                       name="lt2")])
    out = solve_essentially_crisp(
        shifted, Instance.from_atoms([("lt2", ("x", "y"))]))
    assert out.optimal_cost == Cost(2)


def test_solve_essentially_crisp_precondition():
    with pytest.raises(PreconditionError):
        solve_essentially_crisp(S_LT,
                                Instance.from_atoms([("lt01", ("x", "y"))]))
    dis = ValuedStructure([named_relation("Dis")])
    with pytest.raises(PreconditionError):
        solve_essentially_crisp(dis, Instance.from_atoms(
            [("Dis", ("x", "y", "z"))]))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_dispatch_const():
    s = ValuedStructure([named_relation("leq01")])
    out, verdict = solve_dispatch(
        s, Instance.from_atoms([("leq01", ("x", "y"))]))
    assert out.method == "constCase"
    assert verdict.complexity == "P"


def test_dispatch_prefers_equality_route():
    s = ValuedStructure([named_relation("neq01")])
    out, verdict = solve_dispatch(
        s, Instance.from_atoms([("neq01", ("x", "y"))]))
    assert out.method == "eqInjCase"
    assert verdict.case == "eqInjCase"


def test_dispatch_oracle_fallback():
    inst = Instance.from_atoms(
        [("lt01", ("x", "y")), ("lt01", ("y", "z")), ("lt01", ("z", "x"))],
        threshold=ZERO)
    out, verdict = solve_dispatch(S_LT, inst)
    assert verdict.complexity == "NP-complete"
    assert out.method == "oracleFallback"
    assert "exponential" in out.note
    assert "dynamic programming" in out.note
    assert out.optimal_cost == Cost(1)
    assert out.decision is False


def test_dispatch_lex_route():
    s = ValuedStructure([r3_relation(), named_relation("lt01")])
    # not equality-invariant as a structure; R3 alone would go the eq route
    out, verdict = solve_dispatch(
        s, Instance.from_atoms([("R3", ("a", "a", "c"))]))
    assert verdict.case == "hardCase"  # lt01 spoils it
    s2 = ValuedStructure([r3_relation(),
                          t.rel_abg(INF, 0, INF, name="ltC")])
    out, verdict = solve_dispatch(
        s2, Instance.from_atoms([("R3", ("a", "a", "c")),
                                 ("ltC", ("a", "c"))]))
    assert verdict.case == "lexCase"
    assert out.method == "lexCase"
    assert out.optimal_cost == Cost(1)


# ---------------------------------------------------------------------------
# oracle agreement and outcome invariants
# ---------------------------------------------------------------------------

CASES = [
    (rg.make_const_structure, solve_const, 60, 101),
    (rg.make_inj_structure, solve_equality_inj, 60, 202),
    (rg.make_lex_structure, solve_lex, 60, 303),
    (rg.make_esscrisp_structure, solve_essentially_crisp, 60, 404),
]


@pytest.mark.parametrize("maker,solver,count,seed", CASES,
                         ids=[c[1].__name__ for c in CASES])
def test_oracle_agreement(maker, solver, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        s = maker(rng)
        inst = rg.rand_instance(rng, s, max_vars=6, threshold_prob=0.4)
        got = solver(s, inst)
        want = solve_oracle(s, inst)
        assert got.optimal_cost == want.optimal_cost, (s.relations, inst)
        if got.argmin is not None:
            assert evaluate(s, inst, got.argmin) == got.optimal_cost
        if inst.threshold is not None:
            assert got.decision == (got.optimal_cost <= inst.threshold)


def test_polynomial_solvers_scale_past_the_oracle_cap():
    # the tractable algorithms never enumerate weak orders on all
    # variables, so they handle instances the oracle refuses
    n = 9
    chain = [("ltInf", (f"v{i}", f"v{i+1}")) for i in range(n - 1)]
    s = ValuedStructure([t.shift(named_relation("ltInf"), Fraction(1, 2),
                                 name="ltInf")])
    with pytest.raises(CapacityError):
        solve_oracle(s, Instance.from_atoms(chain))
    out = solve_essentially_crisp(s, Instance.from_atoms(chain))
    assert out.optimal_cost == Cost(Fraction(n - 1, 2))

    s3 = ValuedStructure([r3_relation()])
    atoms = [("R3", (f"v{i}", f"v{i}", f"v{i+1}")) for i in range(n - 1)]
    out = solve_lex(s3, Instance.from_atoms(atoms))
    assert out.optimal_cost == Cost(n - 1)  # each merged atom costs 1

    big = 30
    eq_edges = [("eqInf", (f"w{i}", f"w{i+1}")) for i in range(0, big - 1, 2)]
    neq_atoms = [("neq01", (f"w{i}", f"w{i+1}")) for i in range(big - 1)]
    s_eq = ValuedStructure([named_relation("neq01"),
                            named_relation("eqInf")])
    out = solve_equality_inj(s_eq, Instance.from_atoms(eq_edges + neq_atoms))
    # every second disequality atom sits inside a forced pair and costs 1
    assert out.optimal_cost == Cost(len(eq_edges))


def _count_tester_runs(monkeypatch):
    """Records every run of a tester body, memo hits excluded."""
    runs = []
    for name in ("_unary_check", "_binary_check"):
        real = getattr(canonops, name)

        def counting(op, rel, _real=real):
            runs.append((op.tag, rel.name))
            return _real(op, rel)

        monkeypatch.setattr(canonops, name, counting)
    return runs


def test_dispatch_does_not_retest_solver_preconditions(monkeypatch):
    # dispatch runs the testers only to classify; the solver's own checks
    # then read the results memoized on the classified relations, while a
    # public solver on an untested structure runs the testers itself
    monkeypatch.setattr(solvers, "_PLANS", OrderedDict())
    runs = _count_tester_runs(monkeypatch)
    cases = [
        (("leq01",), "constCase", solve_const),
        (("neq01",), "eqInjCase", solve_equality_inj),
        (("neq01", "ltInf"), "lexCase", solve_lex),
        (("ltInf",), "essentiallyCrispCase", solve_essentially_crisp),
    ]
    for names, case, public in cases:
        def fresh():
            return ValuedStructure([named_relation(n) for n in names])
        inst = Instance.from_atoms([(names[-1], ("x", "y")),
                                    (names[-1], ("y", "z"))])
        copy = fresh()
        classify = (t.classify_equality if copy.equality_invariant
                    else t.classify_temporal)
        assert classify(copy).case == case
        classified = len(runs)
        runs.clear()
        out, verdict = solve_dispatch(fresh(), inst)
        assert (verdict.case, out.method) == (case, case)
        assert len(runs) == classified
        runs.clear()
        direct = public(fresh(), inst)
        assert runs
        runs.clear()
        assert (direct.optimal_cost, direct.argmin) == (out.optimal_cost,
                                                        out.argmin)


def test_build_hat_and_lex_solve_share_derived_relations(monkeypatch):
    # the feasibility relations and minor optima a lex solve hands its
    # backend are the objects build_hat puts in the derived structure
    s = ValuedStructure([r3_relation(), t.rel_abg(INF, 0, INF, name="ltC")])
    hat = build_hat(s)
    met = []
    for name in ("solve_crisp_complete", "solve_crisp_minlayer",
                 "solve_crisp_freeset"):
        real = getattr(cspengine, name)

        def recording(ci, *args, _real=real, **kwargs):
            met.extend(rel for rel, _ in ci.atoms)
            return _real(ci, *args, **kwargs)

        monkeypatch.setattr(cspengine, name, recording)
    inst = Instance.from_atoms([("R3", ("a", "a", "c")),
                                ("R3", ("a", "b", "c")), ("ltC", ("c", "d"))])
    assert solve_lex(s, inst).optimal_cost == Cost(1)
    assert {"Feas(R3)", "Opt(R3[12|3])", "Opt(R3[1|2|3])"} <= {
        r.name for r in met}
    assert all(rel is hat.get(rel.name) for rel in met)


def test_dispatch_without_threshold_builds_no_instance(monkeypatch):
    # an instance is validated once, when it is built; a solve without a
    # threshold of its own hands the instance on as it is
    cases = [
        ValuedStructure([named_relation("leq01")]),
        ValuedStructure([named_relation("neq01")]),
        ValuedStructure([named_relation("neq01"), named_relation("ltInf")]),
        ValuedStructure([named_relation("ltInf")]),
        ValuedStructure([named_relation("lt01")]),
        ValuedStructure([named_relation("Betw")]),
    ]
    built = []
    real = Instance.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Instance, "__post_init__", counting)
    for s in cases:
        rel = next(iter(s))
        args = ("x", "y", "z")[:rel.arity]
        inst = Instance.from_atoms([(rel.name, args)])
        built.clear()
        solve_dispatch(s, inst)
        assert built == []
        assert inst.with_threshold(None) is inst
        out, _ = solve_dispatch(s, inst, threshold=Cost(1))
        assert len(built) == 1 and built[0].threshold == Cost(1)
        assert out.decision == (out.optimal_cost <= Cost(1))
        with pytest.raises(ValueError):
            solve_dispatch(s, inst, threshold=INF)


def test_dispatch_agrees_with_oracle_on_arbitrary_structures():
    rng = random.Random(505)
    makers = [rg.make_const_structure, rg.make_inj_structure,
              rg.make_lex_structure, rg.make_esscrisp_structure,
              rg.make_eqinv_structure]
    for i in range(40):
        if i % 5 == 4:
            rels = [rg.rand_relation(rng, f"R{j}", rng.randint(1, 3))
                    for j in range(rng.randint(1, 2))]
            s = ValuedStructure(rels)
        else:
            s = makers[i % 5](rng)
        inst = rg.rand_instance(rng, s, max_vars=5, threshold_prob=0.5)
        got, verdict = solve_dispatch(s, inst)
        want = solve_oracle(s, inst)
        assert got.optimal_cost == want.optimal_cost, (verdict, inst)
        if inst.threshold is not None:
            assert got.decision == (got.optimal_cost <= inst.threshold)
        if got.argmin is not None:
            assert evaluate(s, inst, got.argmin) == got.optimal_cost


def test_monotone_repetition():
    rng = random.Random(606)
    for _ in range(25):
        s = rg.make_const_structure(rng)
        # nonnegative tables only, so adding atoms cannot reduce the optimum
        if any(c < ZERO for r in s for c in r.table.values()):
            continue
        base = rg.rand_instance(rng, s, max_vars=5, max_atoms=4)
        doubled = Instance(base.variables, base.atoms + base.atoms)
        c1 = solve_oracle(s, base).optimal_cost
        c2 = solve_oracle(s, doubled).optimal_cost
        assert c2 <= c1.scale(2) or not c1.is_finite
        assert c2 >= c1


# ---------------------------------------------------------------------------
# exact layer dynamic program (hard route, atoms on at most two variables)
# ---------------------------------------------------------------------------

def _two_variable_instance(rng, structure, n):
    """Atoms whose arguments repeat at most two distinct variables; some
    variables may appear in no atom."""
    variables = [f"v{i}" for i in range(n)]
    atoms = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.04:
            atoms.append(("empty", (rng.choice(variables),)))
        elif roll < 0.14:
            atoms.append(("eq", (rng.choice(variables),
                                 rng.choice(variables))))
        else:
            rel = rng.choice(structure.relations)
            pair = (rng.choice(variables), rng.choice(variables))
            atoms.append((rel.name,
                          tuple(rng.choice(pair) for _ in range(rel.arity))))
    threshold = None
    if rng.random() < 0.4:
        threshold = Cost(rng.choice([-2, Fraction(-1, 2)] + rg.PALETTE))
    return Instance.from_atoms(atoms, threshold, extra_vars=variables)


def test_exact_layers_agrees_with_oracle():
    rng = random.Random(707)
    sizes = set()
    for _ in range(150):
        rels = []
        for j in range(rng.randint(1, 3)):
            rel = rg.rand_relation(rng, f"R{j}", rng.randint(1, 3),
                                   inf_prob=rng.choice([0.0, 0.1, 0.3]))
            amount = rng.choice([0, 0, Fraction(-5, 2), Fraction(-1, 3)])
            rels.append(t.shift(rel, amount, name=f"R{j}"))
        s = ValuedStructure(rels)
        n = rng.randint(1, 6)
        sizes.add(n)
        inst = _two_variable_instance(rng, s, n)
        got = solve_exact_layers(s, inst)
        want = solve_oracle(s, inst)
        assert got.optimal_cost == want.optimal_cost, (s.relations, inst)
        assert got.argmin == want.argmin, (s.relations, inst)
        assert got.decision == want.decision
    assert sizes == {1, 2, 3, 4, 5, 6}


def test_exact_layers_repeated_variables_and_constants():
    s = ValuedStructure([r3_relation(), named_relation("lt01"),
                         named_relation("neqInf")])
    for atoms, cost in [
            ([("R3", ("a", "a", "c"))], Cost(1)),
            ([("R3", ("a", "a", "c")), ("lt01", ("c", "a"))], Cost(1)),
            ([("lt01", ("a", "a"))], Cost(1)),
            ([("neqInf", ("a", "a")), ("lt01", ("a", "b"))], INF),
            ([("empty", ("b",))], INF)]:
        inst = Instance.from_atoms(atoms, extra_vars=["z"])
        got = solve_exact_layers(s, inst)
        want = solve_oracle(s, inst)
        assert got.optimal_cost == want.optimal_cost == cost
        assert got.argmin == want.argmin
    # an infinite constant atom leaves the all-equal order as argmin
    assert got.argmin == WeakOrder((0, 0))


def test_exact_layers_rejects_three_variable_atoms():
    s = ValuedStructure([named_relation("Betw")])
    with pytest.raises(PreconditionError):
        solve_exact_layers(s, Instance.from_atoms([("Betw", ("x", "y", "z"))]))


def test_dispatch_tournaments_match_permutation_brute_force():
    for n in range(1, 6):
        vertices = [f"v{i}" for i in range(n)]
        pairs = list(combinations(vertices, 2))
        for flips in product((False, True), repeat=len(pairs)):
            arcs = [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flips)]
            inst = Instance.from_atoms([("lt01", arc) for arc in arcs],
                                       extra_vars=vertices)
            out, verdict = solve_dispatch(S_LT, inst)
            assert verdict.case == "hardCase"
            assert out.method == "oracleFallback"
            brute = min(
                sum(1 for a, b in arcs if perm.index(a) > perm.index(b))
                for perm in permutations(vertices))
            assert out.optimal_cost == Cost(brute), arcs
            assert evaluate(S_LT, inst, out.argmin) == out.optimal_cost


def test_dispatch_ternary_hard_atoms_use_the_oracle(monkeypatch):
    calls = []
    real_oracle = solvers.solve_oracle

    def counting_oracle(*args, **kwargs):
        calls.append(args[1])
        return real_oracle(*args, **kwargs)

    def no_layers(*args, **kwargs):
        raise AssertionError("layer dynamic program on a ternary atom")

    monkeypatch.setattr(solvers, "solve_oracle", counting_oracle)
    monkeypatch.setattr(solvers, "solve_exact_layers", no_layers)
    rng = random.Random(808)
    for name in ("Betw", "Dis"):
        s = ValuedStructure([named_relation(name)])
        for _ in range(8):
            n = rng.randint(3, 5)
            variables = [f"v{i}" for i in range(n)]
            atoms = [(name, tuple(rng.sample(variables, 3)))
                     for _ in range(rng.randint(1, 4))]
            inst = Instance.from_atoms(atoms, extra_vars=variables)
            out, verdict = solve_dispatch(s, inst)
            assert verdict.complexity == "NP-complete"
            assert out.method == "oracleFallback"
            assert "enumeration" in out.note
            assert calls[-1].atoms == inst.atoms
            want = real_oracle(s, inst)
            assert (out.optimal_cost, out.argmin) == (want.optimal_cost,
                                                      want.argmin)
    assert len(calls) == 16


def test_dispatch_hard_route_keeps_the_search_cap(monkeypatch):
    # the layer dynamic program and the oracle each have their own default
    # cap; TVCSP_SEARCH_CAP overrides both
    def fas_cycle(n):
        return Instance.from_atoms(
            [("lt01", (f"v{i}", f"v{(i + 1) % n}")) for i in range(n)])

    def betw_path(n):
        return Instance.from_atoms(
            [("Betw", (f"v{i}", f"v{i + 1}", f"v{i + 2}"))
             for i in range(n - 2)])

    s_betw = ValuedStructure([named_relation("Betw")])
    layer_cap, oracle_cap = config.layer_cap(), config.oracle_cap()
    assert (layer_cap, oracle_cap) == (config.DEFAULT_LAYER_CAP,
                                       config.DEFAULT_ORACLE_CAP)
    with pytest.raises(CapacityError) as err:
        solve_dispatch(S_LT, fas_cycle(layer_cap + 1))
    assert "layer dynamic program" in str(err.value)
    assert f"TVCSP_SEARCH_CAP={layer_cap}" in str(err.value)
    with pytest.raises(CapacityError) as err:
        solve_dispatch(s_betw, betw_path(oracle_cap + 1))
    assert "oracle enumeration" in str(err.value)
    assert f"TVCSP_SEARCH_CAP={oracle_cap}" in str(err.value)
    # the dynamic program answers past the oracle's cap
    out, _ = solve_dispatch(S_LT, fas_cycle(oracle_cap + 1))
    assert out.optimal_cost == Cost(1)

    monkeypatch.setenv("TVCSP_SEARCH_CAP", "4")
    for s, inst in ((S_LT, fas_cycle(5)), (s_betw, betw_path(5))):
        with pytest.raises(CapacityError) as err:
            solve_dispatch(s, inst)
        assert "TVCSP_SEARCH_CAP=4" in str(err.value)


def test_dispatch_fas_enumerates_no_weak_orders_on_all_variables(monkeypatch):
    sizes = []
    real = orders._weak_orders

    def counting(k):
        sizes.append(k)
        return real(k)

    monkeypatch.setattr(orders, "_weak_orders", counting)
    n = 8
    # a directed n-cycle plus chords forward along v0 < ... < v7: optimum 1
    arcs = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    arcs += [(f"v{i}", f"v{i + 2}") for i in range(n - 2)]
    inst = Instance.from_atoms([("lt01", arc) for arc in arcs])
    out, _ = solve_dispatch(S_LT, inst)
    assert out.optimal_cost == Cost(1)
    assert evaluate(S_LT, inst, out.argmin) == Cost(1)
    assert n not in sizes


# ---------------------------------------------------------------------------
# lex feasibility solved once
# ---------------------------------------------------------------------------

def test_lex_solves_the_feasibility_instance_once(monkeypatch):
    # the backend's solution seeds forced_equalities, so the feasibility
    # instance is not solved again as its base solve; the witness is mi,
    # so every run, the probes included, is a run of the free-set driver
    s = ValuedStructure([named_relation("neq01"), named_relation("ltInf")])
    inst = Instance.from_atoms(
        [("ltInf", ("x", "y")), ("neq01", ("y", "z")), ("neq01", ("z", "z")),
         ("ltInf", ("w", "y")), ("eq", ("w", "x"))])
    feas_inst = cspengine.CrispInstance(
        inst.variables,
        tuple((t.feas(solvers.atom_relation(s, name)), args)
              for name, args in inst.atoms))
    calls = []
    real = cspengine.solve_crisp_freeset

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cspengine, "solve_crisp_freeset", counting)
    complete = []
    monkeypatch.setattr(cspengine, "solve_crisp_complete", complete.append)
    assert cspengine.forced_equalities(
        feas_inst, witness_tag="mi") == (("x", "w"),)
    standalone = len(calls)  # its base solve plus its probes
    assert standalone > 1

    calls.clear()
    out, verdict = solve_dispatch(s, inst)
    assert (verdict.case, verdict.witness.tag) == ("lexCase", "mi")
    assert out.optimal_cost == Cost(1)
    # the feasibility run, the same probes and the run on the optimum
    # relations; a second base solve would make it standalone + 2
    assert len(calls) == standalone + 1
    assert calls[0].atoms == feas_inst.atoms
    # each probe is the feasibility instance plus one ltInf atom
    for probe in calls[1:-1]:
        assert probe.atoms[1:] == feas_inst.atoms
        assert probe.atoms[0][0].name == "ltInf"
    assert complete == []


# ---------------------------------------------------------------------------
# mi and miDual routes past the crisp cap
# ---------------------------------------------------------------------------

def _r3_one_sided():
    """0 on injective triples, 1 on ``x = y < z``, ∞ otherwise."""
    def fn(w):
        if w.is_injective():
            return ZERO
        r = w.ranks
        return Cost(1) if r[0] == r[1] < r[2] else INF
    return relation_from_fn("R3o", 3, fn)


def test_mi_and_midual_routes_answer_past_the_crisp_cap():
    n = 64
    assert n > config.crisp_cap()
    rng = random.Random(64)
    names = [f"v{i}" for i in range(n)]
    order = rng.sample(names, n)
    # neqInf/ltInf atoms true at a hidden weak order: optimum 0
    hidden = {v: i % (n // 2) for i, v in enumerate(order)}
    atoms = []
    while len(atoms) < 2 * n:
        x, y = rng.sample(names, 2)
        if hidden[x] < hidden[y]:
            atoms.append((rng.choice(("neqInf", "ltInf")), (x, y)))
        elif hidden[x] != hidden[y]:
            atoms.append(("neqInf", (x, y)))
    ess = ValuedStructure([named_relation("neqInf"),
                           named_relation("ltInf")])
    # one-sided R3 along a hidden linear order: each R3o(a, a, c) atom with
    # a before c costs exactly 1 there, and every other atom 0
    pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 4)]
    repeated = [("R3o", (order[i], order[i], order[j])) for i, j in pairs]
    lex_atoms = [("R3o", tuple(order[i:i + 3])) for i in range(n - 2)]
    lex_atoms += repeated
    lex_atoms += [("neq01", tuple(rng.sample(order, 2)))
                  for _ in range(n // 2)]
    lex = ValuedStructure([_r3_one_sided(), named_relation("neq01")])
    for s, inst_atoms, case, tag, opt in (
            (ess, atoms, "essentiallyCrispCase", "mi", ZERO),
            (lex, lex_atoms, "lexCase", "miDual", Cost(len(repeated)))):
        inst = Instance(tuple(names), tuple(inst_atoms))
        out, verdict = solve_dispatch(s, inst)
        assert (verdict.case, verdict.witness.tag) == (case, tag)
        assert out.optimal_cost == opt
        assert evaluate(s, inst, out.argmin) == opt


# ---------------------------------------------------------------------------
# mx, mxDual and lele routes: the complete crisp search
# ---------------------------------------------------------------------------

def _census_x():
    """Two arguments equal, below the third: the one ternary crisp
    relation whose first witness is mx."""
    return t.crisp_relation("X", 3, [WeakOrder(r) for r in (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))])


def _census_l():
    """The first ternary crisp relation, in census order, whose first
    witness is lele."""
    return t.crisp_relation("L", 3, [WeakOrder(r) for r in (
        (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 1),
        (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))])


COMPLETE_ROUTES = [
    ([_census_x()], "essentiallyCrispCase", "mx"),
    ([t.reverse_relation(_census_x(), name="Xr")],
     "essentiallyCrispCase", "mxDual"),
    ([_census_l()], "essentiallyCrispCase", "lele"),
    ([_census_l(), named_relation("neq01")], "lexCase", "lele"),
]


@pytest.mark.parametrize("rels,case,tag", COMPLETE_ROUTES,
                         ids=["X", "Xr", "L", "L+neq01"])
def test_complete_search_routes_agree_with_the_oracle(monkeypatch, rels,
                                                      case, tag):
    s = ValuedStructure(rels)
    name = rels[0].name
    answered = []
    real_complete = cspengine.solve_crisp_complete

    def counting(ci):
        answered.append(ci)
        return real_complete(ci)

    monkeypatch.setattr(cspengine, "solve_crisp_complete", counting)
    forced = []
    real_forced = solvers.forced_equalities

    def recording(*args, **kwargs):
        forced.append(real_forced(*args, **kwargs))
        return forced[-1]

    monkeypatch.setattr(solvers, "forced_equalities", recording)
    # never satisfiable: the all-equal order is no zero of X, Xr or L
    fixed = [Instance.from_atoms([(name, ("a", "a", "a"))]),
             Instance.from_atoms([(name, ("a", "b", "c")),
                                  ("eq", ("a", "b")), ("eq", ("b", "c"))]),
             Instance.from_atoms([(name, ("a", "b", "c")),
                                  ("empty", ("b",))])]
    # eq atoms force pairs of the feasibility instance, under a neq01
    if len(rels) > 1:
        fixed += [Instance.from_atoms([(name, ("a", "b", "c")),
                                       ("eq", ("a", "b")),
                                       ("neq01", ("a", "b"))], Cost(1)),
                  Instance.from_atoms([(name, ("a", "b", "c")),
                                       (name, ("c", "d", "e")),
                                       ("eq", ("d", "b")),
                                       ("neq01", ("b", "d")),
                                       ("neq01", ("a", "e"))], Cost(1))]
    rng = random.Random(2121)
    insts = fixed + [rg.rand_instance(rng, s, max_vars=6, threshold_prob=0.4)
                     for _ in range(60)]
    finite = 0
    for inst in insts:
        answered.clear()
        out, verdict = solve_dispatch(s, inst)
        assert (verdict.case, verdict.witness.tag) == (case, tag)
        assert out.method == case
        assert answered, inst
        want = solve_oracle(s, inst)
        assert (out.optimal_cost, out.decision) == \
            (want.optimal_cost, want.decision), inst
        if out.argmin is not None:
            assert evaluate(s, inst, out.argmin) == out.optimal_cost
        finite += out.optimal_cost.is_finite
    assert 0 < finite < len(insts)
    assert (any(forced) if case == "lexCase" else forced == [])


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

@pytest.fixture
def cold_plans(monkeypatch):
    """An empty plan cache for the test, and counters on the classifiers."""
    monkeypatch.setattr(solvers, "_PLANS", OrderedDict())
    calls = []
    for name in ("classify_temporal", "classify_equality"):
        real = getattr(solvers, name)

        def counting(structure, _real=real, _name=name):
            calls.append(_name)
            return _real(structure)

        monkeypatch.setattr(solvers, name, counting)
    return calls


R_TEXT = """structure s
relation {name} arity=2 default=0
[0,0] {eq}
[1,0] 1
"""


def test_plan_shared_by_content_equal_structures(cold_plans):
    text = R_TEXT.format(name="R", eq=1)
    first = files.parse_structure(text)
    # another text of the same content: a distinct, content-equal object
    second = files.parse_structure("# a copy\n" + text)
    assert first is not second
    inst_text = "instance\natom R x y\natom R y x\n"
    out1, v1 = solve_dispatch(first, files.parse_instance(inst_text, first))
    assert cold_plans == ["classify_temporal"]
    out2, v2 = solve_dispatch(second, files.parse_instance(inst_text, second))
    assert cold_plans == ["classify_temporal"]
    assert (repr(out1), repr(v1)) == (repr(out2), repr(v2))
    assert solvers._plan_for(second) is solvers._plan_for(first)
    assert solvers._plan_for(second)[0] is first


def test_plan_keys_on_every_table_entry_and_relation_name(cold_plans):
    hard = files.parse_structure(R_TEXT.format(name="R", eq=1))
    const = files.parse_structure(R_TEXT.format(name="R", eq=0))
    renamed = files.parse_structure(R_TEXT.format(name="Q", eq=1))
    cases = [(hard, "R", "hardCase", Cost(1)),
             (const, "R", "constCase", ZERO),
             (renamed, "Q", "hardCase", Cost(1))]
    for s, name, case, cost in cases:
        inst = Instance.from_atoms([(name, ("x", "y")), (name, ("y", "x"))])
        out, verdict = solve_dispatch(s, inst)
        assert verdict.case == case
        assert out.optimal_cost == cost == solve_oracle(s, inst).optimal_cost
    assert len(cold_plans) == 3
    assert len({id(solvers._plan_for(s)) for s, *_ in cases}) == 3


def _rabg_structures(count):
    """``count`` structures of one binary relation, no two with the same
    table."""
    return [ValuedStructure([t.rel_abg(a, b, 1, name="R")])
            for a in range(count // 4 + 1) for b in range(4)][:count]


def test_plan_cache_evicts_past_its_bound(cold_plans):
    bound = solvers.PLAN_CACHE_SIZE
    structures = _rabg_structures(bound + 8)
    inst = Instance.from_atoms([("R", ("x", "y")), ("R", ("y", "z")),
                                ("R", ("z", "x"))])
    first = [repr(solve_dispatch(s, inst)) for s in structures]
    assert len(cold_plans) == len(structures)
    assert len(solvers._PLANS) == bound
    # the oldest plans were dropped; solving them again rebuilds them
    # and answers as before
    again = [repr(solve_dispatch(s, inst)) for s in structures]
    assert again == first
    assert len(cold_plans) == 2 * len(structures)
    assert len(solvers._PLANS) == bound


def test_plan_cache_reads_the_search_cap_at_every_solve(cold_plans,
                                                        monkeypatch):
    cycle = Instance.from_atoms(
        [("lt01", (f"v{i}", f"v{(i + 1) % 5}")) for i in range(5)])
    # witness min: the min-layer wrapper still reads the crisp cap
    point = files.parse_structure(
        (Path(__file__).resolve().parent.parent / "corpus"
         / "point-order.structure").read_text())
    chain = Instance.from_atoms(
        [("lt_plus2", (f"v{i}", f"v{i + 1}")) for i in range(4)])
    assert solve_dispatch(S_LT, cycle)[0].optimal_cost == Cost(1)
    out, verdict = solve_dispatch(point, chain)
    assert verdict.witness.tag == "min"
    assert out.optimal_cost == Cost(8)
    monkeypatch.setenv("TVCSP_SEARCH_CAP", "4")
    for s, inst in ((S_LT, cycle), (point, chain)):
        with pytest.raises(CapacityError) as err:
            solve_dispatch(s, inst)
        assert "TVCSP_SEARCH_CAP=4" in str(err.value)
    assert len(cold_plans) == 2


def test_cold_and_warm_plans_give_the_same_answers(cold_plans):
    rng = random.Random(909)
    makers = [rg.make_const_structure, rg.make_inj_structure,
              rg.make_lex_structure, rg.make_esscrisp_structure,
              rg.make_eqinv_structure]
    count = 0
    for i in range(100):
        if i % 6 == 5:
            s = ValuedStructure([rg.rand_relation(rng, f"R{j}",
                                                  rng.randint(1, 3))
                                 for j in range(rng.randint(1, 2))])
        else:
            s = makers[i % 5](rng)
        insts = [rg.rand_instance(rng, s, max_vars=5, threshold_prob=0.4)
                 for _ in range(3)]
        cold = []
        for inst in insts:
            solvers._PLANS.clear()
            cold.append(repr(solve_dispatch(s, inst)))
        # one plan for all three, made for the first and reused by a copy
        solvers._PLANS.clear()
        copy = files.parse_structure(files.serialize_structure(s))
        warm = [repr(solve_dispatch(c, inst))
                for c, inst in zip((s, copy, copy), insts)]
        assert warm == cold, s.relations
        count += len(insts)
    assert count == 300
    assert len(cold_plans) == 400


def test_plan_cache_under_concurrent_dispatch(cold_plans):
    structures = _rabg_structures(solvers.PLAN_CACHE_SIZE + 8)
    inst = Instance.from_atoms([("R", ("x", "y")), ("R", ("y", "x"))])
    want = [repr(solve_dispatch(s, inst)) for s in structures]
    errors = []

    def worker(offset):
        try:
            for k in range(3 * len(structures)):
                j = (offset + 7 * k) % len(structures)
                if repr(solve_dispatch(structures[j], inst)) != want[j]:
                    errors.append(j)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(solvers._PLANS) <= solvers.PLAN_CACHE_SIZE


def test_parse_and_dispatch_under_concurrent_text_requests(cold_plans,
                                                           monkeypatch):
    # more texts than the parse cache holds, two templates whose
    # relations' memos start empty and are filled by all four threads
    rng = random.Random(31)
    templates = [ValuedStructure([named_relation("neq01"),
                                  named_relation("ltInf")]),
                 ValuedStructure([named_relation("neqInf"),
                                  named_relation("ltInf")])]
    copies = files.STRUCTURE_CACHE_SIZE // 2 + 4
    requests = []
    for s in templates:
        text = files.serialize_structure(s)
        for i in range(copies):
            inst = rg.rand_instance(rng, s, max_vars=6, eq_prob=0,
                                    empty_prob=0)
            requests.append((f"# copy {i}\n{text}",
                             files.serialize_instance(inst)))

    def solve(stext, itext):
        structure = files.parse_structure(stext)
        return repr(solve_dispatch(structure,
                                   files.parse_instance(itext, structure)))

    monkeypatch.setattr(files, "_STRUCTURES", OrderedDict())
    want = [solve(*req) for req in requests]
    assert {v.case for _, v in solvers._PLANS.values()} == {
        "lexCase", "essentiallyCrispCase"}
    solvers._PLANS.clear()
    files._STRUCTURES.clear()
    errors = []

    def worker(offset):
        try:
            for k in range(2 * len(requests)):
                j = (offset + 7 * k) % len(requests)
                if solve(*requests[j]) != want[j]:
                    errors.append(j)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(files._STRUCTURES) == files.STRUCTURE_CACHE_SIZE
    assert len(solvers._PLANS) == len(templates)
