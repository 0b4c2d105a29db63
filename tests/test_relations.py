import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvcsp import (
    Cost,
    Expression,
    INF,
    ValuedRelation,
    ValuedStructure,
    WeakOrder,
    ZERO,
    build_hat,
    canonical_weak_order,
    enumerate_weak_orders,
    eval_expression,
    feas,
    is_equality_invariant,
    minor,
    named_relation,
    opt,
    rel_abg,
    relation_from_fn,
    scale,
    shift,
)
from tvcsp.relations import unscaled

import randgen as rg


def table_of(rel):
    return {w.ranks: str(c) for w, c in rel.table.items()}


def test_table_must_be_total():
    w01 = WeakOrder((0, 1))
    with pytest.raises(ValueError):
        ValuedRelation("partial", 2, {w01: ZERO})


def test_reserved_names_rejected():
    with pytest.raises(ValueError):
        ValuedStructure([rel_abg(0, 1, 1, name="eq")])
    with pytest.raises(ValueError):
        ValuedStructure([named_relation("lt01"), named_relation("lt01")])


# ---------------------------------------------------------------------------
# shift / scale / feas / opt
# ---------------------------------------------------------------------------

def test_shift_example():
    got = shift(named_relation("lt01"), -1)
    assert got.table[WeakOrder((0, 1))] == Cost(-1)
    assert got.table[WeakOrder((1, 0))] == ZERO
    assert got.table[WeakOrder((0, 0))] == ZERO


def test_scale_by_zero_kills_infinity():
    got = scale(named_relation("ltInf"), 0)
    assert all(c == ZERO for c in got.table.values())


def test_scale_example():
    got = scale(named_relation("eq01"), 2)
    assert set(got.table.values()) == {ZERO, Cost(2)}
    with pytest.raises(ValueError):
        scale(named_relation("eq01"), -2)


def test_feas_examples():
    r = feas(rel_abg(1, 0, INF))
    assert table_of(r) == {(0, 0): "0", (0, 1): "0", (1, 0): "inf"}
    assert all(c == ZERO for c in feas(named_relation("lt01")).table.values())
    empty = relation_from_fn("none", 1, lambda w: INF)
    assert feas(empty).table[WeakOrder((0,))] == INF


def test_opt_examples():
    assert table_of(opt(named_relation("lt01"))) == {
        (0, 0): "inf", (0, 1): "0", (1, 0): "inf"}
    empty3 = relation_from_fn("none", 3, lambda w: INF)
    assert all(c == INF for c in opt(empty3).table.values())


def test_opt_of_leq01():
    # minimum 0 is attained on both the tie and the increasing pair
    got = opt(named_relation("leq01"))
    assert table_of(got) == {(0, 0): "0", (0, 1): "0", (1, 0): "inf"}


rational = st.fractions(max_denominator=20)


@given(rational)
def test_shift_round_trip(s):
    r = named_relation("lt01")
    assert shift(shift(r, s), -s).table == r.table


@given(rational.filter(lambda f: f > 0))
def test_scale_round_trip(f):
    r = rel_abg(Fraction(3, 2), 0, INF)
    assert scale(scale(r, f), 1 / f).table == r.table


def test_feas_opt_idempotent():
    for name in ("lt01", "ltInf", "Dis"):
        r = named_relation(name)
        assert feas(feas(r)).table == feas(r).table
        assert opt(opt(r)).table == opt(r).table


def test_opt_within_feas():
    rng = random.Random(5)
    for i in range(25):
        r = rg.rand_relation(rng, "R", rng.randint(1, 3))
        o, f = opt(r), feas(r)
        for w in r.table:
            if o.table[w] == ZERO:
                assert f.table[w] == ZERO


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def r3_relation():
    def fn(w):
        if w.is_injective():
            return ZERO
        x, y, z = w.ranks
        return Cost(1) if x == y != z else INF
    return relation_from_fn("R3", 3, fn)


def test_minor_identifies_positions():
    got = minor(named_relation("lt01"), [[1, 2]])
    assert table_of(got) == {(0,): "1"}


def test_minor_r3():
    got = minor(r3_relation(), [[1, 2], [3]])
    assert table_of(got) == {(0, 0): "inf", (0, 1): "1", (1, 0): "1"}


def test_minor_discrete_is_identity():
    r = named_relation("Betw")
    got = minor(r, [[1], [2], [3]])
    assert got.table == r.table


def test_minor_rejects_bad_partition():
    with pytest.raises(ValueError):
        minor(named_relation("lt01"), [[1]])
    with pytest.raises(ValueError):
        minor(named_relation("lt01"), [[1, 2], [2]])


# ---------------------------------------------------------------------------
# equality invariance, hat
# ---------------------------------------------------------------------------

def test_equality_invariance_examples():
    assert is_equality_invariant(named_relation("neq01"))
    assert not is_equality_invariant(named_relation("lt01"))
    assert is_equality_invariant(relation_from_fn("u", 1, lambda w: Cost(7)))
    assert is_equality_invariant(named_relation("Dis"))
    assert not is_equality_invariant(named_relation("Betw"))


def test_hat_of_soft_neq():
    hat = build_hat(ValuedStructure([named_relation("neq01")]))
    by_name = {r.name: r for r in hat}
    assert all(c == ZERO for c in by_name["Feas(neq01)"].table.values())
    assert table_of(by_name["Opt(neq01[1|2])"]) == {
        (0, 0): "inf", (0, 1): "0", (1, 0): "0"}
    assert table_of(by_name["Opt(neq01[12])"]) == {(0,): "0"}


def test_hat_of_crisp_less_than():
    hat = build_hat(ValuedStructure([named_relation("ltInf")]))
    by_name = {r.name: r for r in hat}
    lt = named_relation("ltInf").table
    assert by_name["Feas(ltInf)"].table == lt
    assert by_name["Opt(ltInf[1|2])"].table == lt
    assert by_name["Opt(ltInf[12])"].table[WeakOrder((0,))] == INF


def test_hat_of_r3_all_partitions():
    hat = build_hat(ValuedStructure([r3_relation()]))
    by_name = {r.name: r for r in hat}
    assert set(by_name) == {
        "Feas(R3)", "Opt(R3[1|2|3])", "Opt(R3[12|3])", "Opt(R3[13|2])",
        "Opt(R3[1|23])", "Opt(R3[123])"}
    # optimum over the discrete partition: the injective triples
    assert {w.ranks for w in by_name["Opt(R3[1|2|3])"].zeros()} == {
        w.ranks for w in enumerate_weak_orders(3) if w.is_injective()}
    # identifying the first two positions leaves soft disequality: crisp !=
    assert table_of(by_name["Opt(R3[12|3])"]) == {
        (0, 0): "inf", (0, 1): "0", (1, 0): "0"}
    # the other identifications are infeasible everywhere
    assert all(c == INF for c in by_name["Opt(R3[13|2])"].table.values())
    assert all(c == INF for c in by_name["Opt(R3[1|23])"].table.values())
    assert all(c == INF for c in by_name["Opt(R3[123])"].table.values())


def test_hat_of_leq01():
    hat = build_hat(ValuedStructure([named_relation("leq01")]))
    by_name = {r.name: r for r in hat}
    assert all(c == ZERO for c in by_name["Feas(leq01)"].table.values())
    assert table_of(by_name["Opt(leq01[1|2])"]) == {
        (0, 0): "0", (0, 1): "0", (1, 0): "inf"}


# ---------------------------------------------------------------------------
# named relations
# ---------------------------------------------------------------------------

def test_cyc_table():
    zeros = {w.ranks for w in named_relation("Cyc").zeros()}
    assert zeros == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_betw_table():
    zeros = {w.ranks for w in named_relation("Betw").zeros()}
    assert zeros == {(0, 1, 2), (2, 1, 0)}


def test_rabg_0_1_1_is_soft_equality():
    assert named_relation("Rabg(0,1,1)").table == \
        named_relation("eq01").table


def test_sep_has_eight_injective_zeros():
    sep = named_relation("Sep")
    zeros = sep.zeros()
    assert len(zeros) == 8
    assert all(w.is_injective() for w in zeros)
    # x1 < x2 < y1 < y2 corresponds to ranks (0, 2, 1, 3)
    assert WeakOrder((0, 2, 1, 3)) in zeros


def test_t3_and_its_reversal():
    assert {w.ranks for w in named_relation("T3").zeros()} == {
        (0, 0, 1), (0, 1, 0)}
    assert {w.ranks for w in named_relation("negT3").zeros()} == {
        (1, 1, 0), (1, 0, 1)}


def test_dis_table():
    zeros = {w.ranks for w in named_relation("Dis").zeros()}
    assert zeros == {(0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 0)}


def test_rmix_table():
    zeros = {w.ranks for w in named_relation("Rmix").zeros()}
    assert zeros == {(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 2, 0), (2, 1, 0)}


def test_unknown_name():
    with pytest.raises(KeyError):
        named_relation("Nope")


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def brute_force_expression(structure, expr, max_values=None):
    """Independent oracle: minimize over all assignments of the variables to
    at most n distinct rational values."""
    variables = list(expr.free_vars) + list(expr.bound_vars)
    n = len(variables)
    values = list(range(max_values or n))
    best = {}
    for assign in product(values, repeat=n):
        env = dict(zip(variables, assign))
        total = ZERO
        for rel_name, args in expr.atoms:
            tup = tuple(env[a] for a in args)
            if rel_name == "eq":
                c = ZERO if tup[0] == tup[1] else INF
            elif rel_name == "empty":
                c = INF
            else:
                rel = structure.get(rel_name)
                c = rel.table[canonical_weak_order(tup)]
            total = total + c
        key = canonical_weak_order([env[v] for v in expr.free_vars])
        if key not in best or total < best[key]:
            best[key] = total
    return best


def test_triangle_of_soft_orders():
    structure = ValuedStructure([rel_abg(Fraction(1, 2), 0, 1, name="R")])
    expr = Expression(("x", "y", "z"), (),
                      (("R", ("x", "y")), ("R", ("y", "z")),
                       ("R", ("z", "x"))))
    rel = eval_expression(structure, expr)
    cyclic = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    anticyclic = {(2, 1, 0), (0, 2, 1), (1, 0, 2)}
    for w in enumerate_weak_orders(3):
        if w.ranks in cyclic:
            assert rel.table[w] == Cost(1)
        elif w.ranks in anticyclic:
            assert rel.table[w] == Cost(2)
        else:
            assert rel.table[w] == Cost(Fraction(3, 2))


def test_projection_composes_less_than():
    structure = ValuedStructure([named_relation("ltInf").renamed("L")])
    expr = Expression(("x", "y"), ("z",),
                      (("L", ("x", "z")), ("L", ("z", "y"))))
    rel = eval_expression(structure, expr)
    assert rel.table == named_relation("ltInf").table


def test_empty_sum_is_constant_zero():
    structure = ValuedStructure([])
    expr = Expression(("x",), (), ())
    rel = eval_expression(structure, expr)
    assert rel.table[WeakOrder((0,))] == ZERO


def test_soft_order_identity_for_cyc():
    cyc = named_relation("Cyc")
    for alpha, same in ((Fraction(1, 2), True), (1, True), (2, True),
                        (Fraction(1, 3), False)):
        structure = ValuedStructure([rel_abg(alpha, 0, 1, name="R")])
        expr = Expression(("x", "y", "z"), (),
                          (("R", ("x", "y")), ("R", ("y", "z")),
                           ("R", ("z", "x"))))
        got = opt(eval_expression(structure, expr))
        assert (got.table == cyc.table) == same


def test_expression_validation():
    with pytest.raises(ValueError):
        Expression((), (), ())
    with pytest.raises(ValueError):
        Expression(("x",), ("x",), ())
    with pytest.raises(ValueError):
        Expression(("x",), (), (("R", ("y",)),))
    structure = ValuedStructure([named_relation("lt01")])
    with pytest.raises(ValueError):
        eval_expression(structure, Expression(("x",), (), (("lt01", ("x",)),)))
    with pytest.raises(KeyError):
        eval_expression(structure, Expression(("x",), (), (("zz", ("x",)),)))


def test_scaled_tables_match_the_cost_tables():
    rng = random.Random(71)
    for trial in range(40):
        rels = [rg.rand_relation(rng, f"R{i}", rng.randint(1, 3))
                for i in range(rng.randint(1, 3))]
        rels.append(rel_abg(Fraction(5, 7), 0, INF, name="S"))
        structure = ValuedStructure(rels)
        denom, tables = structure.scaled
        assert structure.scaled is structure.scaled
        assert denom % 7 == 0
        assert set(tables) == {r.name for r in rels} | {"eq", "empty"}
        for rel in rels:
            assert set(tables[rel.name]) == {w.ranks for w in rel.table}
            for w, c in rel.table.items():
                assert unscaled(tables[rel.name][w.ranks], denom) == c
        assert {r: unscaled(c, denom) for r, c in tables["eq"].items()} \
            == {(0, 0): ZERO, (0, 1): INF, (1, 0): INF}
        assert {r: unscaled(c, denom) for r, c in tables["empty"].items()} \
            == {(0,): INF}


def test_eval_expression_against_brute_force():
    rng = random.Random(31)
    names = ["lt01", "leq01", "neq01", "ltInf", "eq01"]
    for trial in range(30):
        structure = ValuedStructure(
            [named_relation(n) for n in rng.sample(names, 2)]
            + [rg.rand_relation(rng, "X", rng.randint(1, 3))])
        pool = [r.name for r in structure] + ["eq"]
        nfree = rng.randint(1, 2)
        nbound = rng.randint(0, 1)
        variables = [f"w{i}" for i in range(nfree + nbound)]
        atoms = []
        for _ in range(rng.randint(0, 4)):
            rel_name = rng.choice(pool)
            arity = 2 if rel_name == "eq" else structure.get(rel_name).arity
            atoms.append((rel_name,
                          tuple(rng.choice(variables) for _ in range(arity))))
        expr = Expression(tuple(variables[:nfree]), tuple(variables[nfree:]),
                          tuple(atoms))
        got = eval_expression(structure, expr)
        want = brute_force_expression(structure, expr)
        assert {w: c for w, c in got.table.items()} == want
