import random
from fractions import Fraction

import pytest

import tvcsp as t
from tvcsp import (
    CLASSIFIER_OPS,
    CapacityError,
    JointConfig,
    OPS,
    PreconditionError,
    apply_op,
    apply_values,
    enumerate_weak_orders,
    improves,
    joint_configs,
    named_relation,
    preserves,
    rel_abg,
    relation_from_fn,
    reverse_relation,
)
from tvcsp.canonops import DUAL_BASE
from tvcsp.relations import ValuedStructure

import randgen as rg


def test_catalog_shape():
    unary = {tag for tag, op in OPS.items() if op.arity == 1}
    assert unary == {"const0", "identity"}
    zero = {tag for tag, op in OPS.items() if op.needs_zero}
    assert zero == {"pp", "ppDual", "lele", "leleDual"}
    assert [op.tag for op in CLASSIFIER_OPS] == [
        "min", "max", "mi", "miDual", "mx", "mxDual", "lele", "leleDual"]


# ---------------------------------------------------------------------------
# apply_op
# ---------------------------------------------------------------------------

def test_apply_min_example():
    cfg = JointConfig((0, 1), (1, 0))
    assert apply_op(OPS["min"], cfg).ranks == (0, 0)
    assert apply_op(OPS["max"], cfg).ranks == (0, 0)


def test_apply_mi_example():
    cfg = JointConfig((0, 1), (1, 0))
    assert apply_op(OPS["mi"], cfg).ranks == (1, 0)


def test_apply_lele_example():
    # s1 < 0 = t1 = t2 < s2: negative block below the positive block
    cfg = JointConfig((0, 2), (1, 1), 1)
    assert apply_op(OPS["lele"], cfg).ranks == (0, 1)


def test_apply_zero_requirements():
    cfg = JointConfig((0, 1), (1, 0))
    with pytest.raises(ValueError):
        apply_op(OPS["lele"], cfg)
    with pytest.raises(ValueError):
        apply_op(OPS["min"], JointConfig((0, 1), (1, 0), 2))


def test_apply_unary():
    cfg = JointConfig((0, 1, 0), (1, 0, 0))
    assert apply_op(OPS["const0"], cfg).ranks == (0, 0, 0)
    assert apply_op(OPS["identity"], cfg).ranks == (0, 1, 0)


def test_apply_proj_and_inj():
    cfg = JointConfig((0, 0, 1), (0, 1, 1))
    assert apply_op(OPS["proj1of2"], cfg).ranks == (0, 0, 1)
    # inj separates the first two coordinates because t does
    assert apply_op(OPS["inj"], cfg).ranks == (0, 1, 2)


def _realizations(cfg):
    """Two rational realizations of a joint configuration, exact and with
    the zero level mapped to 0."""
    z = cfg.zero_rank if cfg.zero_rank is not None else 0

    def lin(r):
        return Fraction(r - z)

    def bent(r):
        return Fraction(4 ** r - 4 ** z, 3)

    for f in (lin, bent):
        yield ([f(r) for r in cfg.s_ranks], [f(r) for r in cfg.t_ranks],
               Fraction(0) if cfg.zero_rank is not None else None)


@pytest.mark.parametrize("tag", [
    "proj1of2", "inj", "lex", "lexDual", "pp", "ppDual", "lele", "leleDual",
    "min", "max", "mi", "miDual", "mx", "mxDual"])
def test_canonicity_on_two_realizations(tag):
    op = OPS[tag]
    for k in (1, 2):
        for w1 in enumerate_weak_orders(k):
            for w2 in enumerate_weak_orders(k):
                for cfg in joint_configs(w1, w2, with_zero=op.needs_zero):
                    expected = apply_op(op, cfg)
                    for s, tv, zero in _realizations(cfg):
                        assert apply_values(op, s, tv, zero) == expected


def test_dual_coherence():
    rng = random.Random(17)
    tables = [rg.rand_crisp_relation(rng, f"D{i}", rng.randint(1, 3))
              for i in range(8)]
    for dual_tag, base_tag in DUAL_BASE.items():
        for rel in tables:
            lhs = preserves(OPS[dual_tag], rel).ok
            rhs = preserves(OPS[base_tag], reverse_relation(rel)).ok
            assert lhs == rhs, (dual_tag, rel.name)


def test_improves_equals_preserves_on_crisp():
    # each test runs on its own copy of the table, so neither result can
    # be read from the other's memo
    rng = random.Random(23)
    rels = [rg.rand_crisp_relation(rng, "C", rng.randint(1, 3))
            for _ in range(12)]
    rels += [r for r in map(named_relation, t.catalog_names())
             if r.is_crisp() and r.arity <= 3]
    for rel in rels:
        for op in OPS.values():
            def fresh():
                return t.ValuedRelation(rel.name, rel.arity, rel.table)
            preserved = preserves(op, fresh())
            if op.tag == "inj" and not rel.equality_invariant:
                with pytest.raises(PreconditionError):
                    improves(op, fresh())
                continue
            assert repr(improves(op, fresh())) == repr(preserved)


# ---------------------------------------------------------------------------
# derived preservation/improvement facts
# ---------------------------------------------------------------------------

def test_min_does_not_preserve_betw():
    res = preserves(OPS["min"], named_relation("Betw"))
    assert not res.ok
    c = res.counterexample
    assert {c.s_order.ranks, c.t_order.ranks} == {(0, 1, 2), (2, 1, 0)}
    assert apply_op(OPS["min"], c.joint).ranks == (0, 1, 0)


def test_min_preserves_crisp_less_than():
    assert preserves(OPS["min"], named_relation("ltInf")).ok


def test_mi_preserves_crisp_disequality():
    assert preserves(OPS["mi"], named_relation("neqInf")).ok


def test_nothing_preserves_dis():
    dis = named_relation("Dis")
    assert all(not preserves(op, dis).ok for op in CLASSIFIER_OPS)


def test_pp_but_not_lele_preserves_the_mix_relation():
    # the marker relation for languages closed under the sign-splitting
    # projection but not under its lex refinement
    rmix = named_relation("Rmix")
    assert preserves(OPS["pp"], rmix).ok
    assert not preserves(OPS["lele"], rmix).ok
    assert preserves(OPS["min"], rmix).ok


def test_lex_does_not_improve_soft_less_than():
    res = improves(OPS["lex"], named_relation("lt01"))
    assert not res.ok
    c = res.counterexample
    assert (c.s_order.ranks, c.t_order.ranks) == ((1, 0), (0, 1))
    assert c.lhs_cost == t.Cost(1)
    assert c.rhs_bound == t.Cost(Fraction(1, 2))


def test_lex_improves_soft_disequality():
    assert improves(OPS["lex"], named_relation("neq01")).ok


def test_const_improvement_examples():
    assert improves(OPS["const0"], named_relation("leq01")).ok
    assert not improves(OPS["const0"], named_relation("lt01")).ok
    assert improves(OPS["identity"], named_relation("lt01")).ok


def test_inj_requires_equality_invariance():
    with pytest.raises(PreconditionError):
        improves(OPS["inj"], named_relation("lt01"))
    assert improves(OPS["inj"], named_relation("neq01")).ok


def test_preserves_requires_crisp():
    with pytest.raises(PreconditionError):
        preserves(OPS["min"], named_relation("lt01"))


def test_joint_cap():
    big = relation_from_fn("big", 5, lambda w: t.ZERO)
    with pytest.raises(CapacityError):
        improves(OPS["lex"], big)
    with pytest.raises(CapacityError):
        preserves(OPS["min"], big)
    assert preserves(OPS["min"], named_relation("Sep")) is not None


def test_lex_improvement_pins_injective_value():
    # every lex-improving table has one finite injective value below all
    rng = random.Random(41)
    lex = OPS["lex"]
    checked = 0
    for i in range(20):
        s = rg.make_lex_structure(rng)
        for rel in s:
            assert improves(lex, rel).ok
            inj_vals = {rel.table[w] for w in enumerate_weak_orders(rel.arity)
                        if w.is_injective() and rel.table[w].is_finite}
            if not inj_vals:
                continue
            assert len(inj_vals) == 1
            m = inj_vals.pop()
            assert all(m <= c for c in rel.table.values())
            checked += 1
    assert checked >= 10


def test_essentially_crisp():
    assert ValuedStructure([named_relation("ltInf")]).essentially_crisp
    assert not ValuedStructure([named_relation("lt01")]).essentially_crisp
    assert not ValuedStructure([rel_abg(1, 0, t.INF)]).essentially_crisp


def test_improvement_invariant_under_shift_and_scale():
    # the improvement inequality is affine: shifting by any rational or
    # scaling by a positive one never changes the verdict
    rng = random.Random(71)
    ops = [OPS[tag] for tag in ("lex", "min", "mi", "mx", "lele")]
    for i in range(10):
        rel = rg.rand_relation(rng, "A", rng.randint(1, 3))
        shifted = t.shift(rel, Fraction(-7, 3))
        scaled = t.scale(rel, Fraction(5, 2))
        for op in ops:
            base = improves(op, rel).ok
            assert improves(op, shifted).ok == base
            assert improves(op, scaled).ok == base


def test_essentially_crisp_matches_projection_improvement():
    rng = random.Random(53)
    proj = OPS["proj1of2"]
    for i in range(20):
        rels = [rg.rand_relation(rng, f"R{j}", rng.randint(1, 3))
                for j in range(rng.randint(1, 3))]
        s = ValuedStructure(rels)
        lhs = s.essentially_crisp
        rhs = all(improves(proj, r).ok for r in s)
        assert lhs == rhs
