import random
from fractions import Fraction
from itertools import combinations, permutations, product

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
from tvcsp import config, orders, solvers

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
    cap = config.oracle_cap()
    arcs = [(f"v{i}", f"v{(i + 1) % (cap + 1)}") for i in range(cap + 1)]
    with pytest.raises(CapacityError) as err:
        solve_dispatch(S_LT, Instance.from_atoms(
            [("lt01", arc) for arc in arcs]))
    assert "TVCSP_SEARCH_CAP" in str(err.value)

    monkeypatch.setenv("TVCSP_SEARCH_CAP", "4")
    with pytest.raises(CapacityError) as err:
        solve_dispatch(S_LT, Instance.from_atoms(
            [("lt01", arc) for arc in arcs[:4]] + [("lt01", ("v4", "v0"))]))
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
