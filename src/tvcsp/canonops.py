"""Canonical operations on Q and the preservation/improvement testers.

Each operation in the catalog is canonical: the order type of its
componentwise application is determined by the joint order type of the
input tuples (with the constant 0 adjoined for the two operations that
branch on the sign of an argument).  The defining endomorphism chains are
never materialized; instead every operation is evaluated through an exact
symbolic key per coordinate whose lexicographic comparison realizes
precisely the interleaving the definition imposes:

* ``min``             key ``min(s, t)``
* ``lex`` / ``inj``   key ``(s, t)``
* ``mi``              key ``(min(s, t), tag)``, tag 0/1/2 for s=t, s>t, s<t
* ``mx``              key ``(min(s, t), tag)``, tag 0 for s≠t, 1 for s=t
* ``pp``              key ``(0, s)`` if s ≤ 0 else ``(1, t)``
* ``lele``            key ``(0, s, t)`` if s ≤ 0 else ``(1, t, s)``

Duals conjugate by x ↦ -x: inputs are negated (0 is a fixed point) and the
output order reversed.  The keys work on any mutually comparable values, so
the same code path evaluates both rank vectors and concrete rationals;
tests exploit this to verify representative independence.

The exhaustive testers enumerate joint configurations per pair of marginal
order types, visiting only pairs with a finite right-hand side.  A relation
of arity ``k`` drives an enumeration over ``2k`` or ``2k + 1`` positions,
so they refuse arities above ``config.DEFAULT_JOINT_ARITY_CAP``.  A result
depends on the operation and the table alone, so each is computed once and
kept on the relation (:attr:`ValuedRelation.test_results`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import config
from .cost import Cost
from .errors import CapacityError, PreconditionError
from .orders import (
    JointConfig,
    WeakOrder,
    bottom_order,
    canonical_weak_order,
    enumerate_weak_orders,
    joint_configs,
)
from .relations import ValuedRelation, ValuedStructure, is_equality_invariant


@dataclass(frozen=True, slots=True)
class CanonicalOp:
    """Catalog entry: tag, arity, and whether 0 must be placed."""

    tag: str
    arity: int
    needs_zero: bool = False

    def __str__(self) -> str:
        return self.tag


_TAGS = [
    ("const0", 1, False),
    ("identity", 1, False),
    ("proj1of2", 2, False),
    ("inj", 2, False),
    ("lex", 2, False),
    ("lexDual", 2, False),
    ("pp", 2, True),
    ("ppDual", 2, True),
    ("lele", 2, True),
    ("leleDual", 2, True),
    ("min", 2, False),
    ("max", 2, False),
    ("mi", 2, False),
    ("miDual", 2, False),
    ("mx", 2, False),
    ("mxDual", 2, False),
]

OPS: dict[str, CanonicalOp] = {
    tag: CanonicalOp(tag, arity, zero) for tag, arity, zero in _TAGS}

#: The operations consulted for crisp preservation by the classifier,
#: in the deterministic order in which they are tried.
CLASSIFIER_OPS: tuple[CanonicalOp, ...] = tuple(
    OPS[t] for t in ("min", "max", "mi", "miDual", "mx", "mxDual",
                     "lele", "leleDual"))

#: Dual pairs by tag; used for input negation and by the coherence tests.
DUAL_BASE = {
    "lexDual": "lex", "ppDual": "pp", "leleDual": "lele",
    "miDual": "mi", "mxDual": "mx", "max": "min",
}


def _base_keys(tag: str, s: Sequence, t: Sequence, zero) -> list:
    if tag == "min":
        return [a if a < b else b for a, b in zip(s, t)]
    if tag in ("lex", "inj"):
        return list(zip(s, t))
    if tag == "mi":
        return [(a if a < b else b, 0 if a == b else (1 if a > b else 2))
                for a, b in zip(s, t)]
    if tag == "mx":
        return [(a if a < b else b, 0 if a != b else 1)
                for a, b in zip(s, t)]
    if tag == "pp":
        return [(0, a) if a <= zero else (1, b) for a, b in zip(s, t)]
    if tag == "lele":
        return [(0, a, b) if a <= zero else (1, b, a) for a, b in zip(s, t)]
    if tag == "proj1of2":
        return list(s)
    raise KeyError(f"no key rule for operation {tag!r}")


def component_keys(tag: str, s: Sequence, t: Sequence, zero=None
                   ) -> tuple[list, bool]:
    """Symbolic output keys and whether the output order is reversed.

    ``s`` and ``t`` may hold joint ranks or concrete rationals; ``zero``
    must be the representation of 0 on the same scale when the operation
    branches on sign.
    """
    base = DUAL_BASE.get(tag)
    if base is not None:
        keys, rev = component_keys(
            base, [-v for v in s], [-v for v in t],
            None if zero is None else -zero)
        return keys, not rev
    return _base_keys(tag, s, t, zero), False


def apply_values(op: CanonicalOp, s: Sequence, t: Sequence, zero=None
                 ) -> WeakOrder:
    """Order type of ``op`` applied componentwise to concrete values."""
    if op.arity == 1:
        if op.tag == "const0":
            return bottom_order(len(s))
        return canonical_weak_order(s)
    keys, rev = component_keys(op.tag, s, t, zero)
    out = canonical_weak_order(keys)
    return out.reversed() if rev else out


def apply_op(op: CanonicalOp, cfg: JointConfig) -> WeakOrder:
    """Order type of ``op`` applied to any pair realizing ``cfg``."""
    if op.needs_zero and cfg.zero_rank is None:
        raise ValueError(f"{op.tag} needs the constant 0 in the joint "
                         "configuration")
    if not op.needs_zero and cfg.zero_rank is not None:
        raise ValueError(f"{op.tag} takes no zero position")
    return apply_values(op, cfg.s_ranks, cfg.t_ranks, cfg.zero_rank)


@lru_cache(maxsize=None)
def _distinct_outputs(tag: str, w1: WeakOrder, w2: WeakOrder
                      ) -> tuple[tuple[WeakOrder, JointConfig], ...]:
    """Distinct output order types over all joint configurations of a pair
    of marginals, each with its first witnessing configuration, in
    deterministic first-occurrence order."""
    op = OPS[tag]
    seen: dict[WeakOrder, JointConfig] = {}
    order: list[WeakOrder] = []
    for cfg in joint_configs(w1, w2, with_zero=op.needs_zero):
        out = apply_op(op, cfg)
        if out not in seen:
            seen[out] = cfg
            order.append(out)
    return tuple((o, seen[o]) for o in order)


@dataclass(frozen=True)
class Counterexample:
    """A violated preservation/improvement inequality."""

    s_order: WeakOrder
    t_order: WeakOrder
    joint: JointConfig
    lhs_cost: Cost
    rhs_bound: Cost

    def __str__(self) -> str:
        return (f"s={self.s_order} t={self.t_order} -> cost {self.lhs_cost} "
                f"> bound {self.rhs_bound} ({self.joint})")


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first counterexample when it fails."""

    ok: bool
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:
        return self.ok


def _check_cap(rel: ValuedRelation, op: CanonicalOp) -> None:
    limit = config.DEFAULT_JOINT_ARITY_CAP
    if rel.arity > limit:
        raise CapacityError(
            f"joint enumeration for {op.tag} on {rel.name!r}",
            rel.arity, "joint arity cap", limit)


def _diagonal_config(w: WeakOrder) -> JointConfig:
    return JointConfig(w.ranks, w.ranks, None)


def _unary_check(op: CanonicalOp, rel: ValuedRelation) -> CheckResult:
    if op.tag == "identity":
        return CheckResult(True)
    # const0: the image of every tuple is all-equal, so the all-equal entry
    # must be a global minimum (for crisp tables: nonempty forces it to 0);
    # no cost exceeds an ∞ bound.
    image = bottom_order(rel.arity)
    img_cost = rel.table[image]
    for w in enumerate_weak_orders(rel.arity):
        bound = rel.table[w]
        if img_cost > bound:
            return CheckResult(False, Counterexample(
                w, w, _diagonal_config(w), img_cost, bound))
    return CheckResult(True)


def _binary_check(op: CanonicalOp, rel: ValuedRelation) -> CheckResult:
    _check_cap(rel, op)
    orders = enumerate_weak_orders(rel.arity)
    for w1 in orders:
        c1 = rel.table[w1]
        if not c1.is_finite:
            continue
        for w2 in orders:
            c2 = rel.table[w2]
            if not c2.is_finite:
                continue
            bound = c1.half_sum(c2)
            for out, witness in _distinct_outputs(op.tag, w1, w2):
                if rel.table[out] > bound:
                    return CheckResult(False, Counterexample(
                        w1, w2, witness, rel.table[out], bound))
    return CheckResult(True)


def _tested(op: CanonicalOp, rel: ValuedRelation) -> CheckResult:
    """The improvement test of ``op`` on ``rel``, run on first use."""
    res = rel.test_results.get(op.tag)
    if res is None:
        check = _unary_check if op.arity == 1 else _binary_check
        res = rel.test_results.setdefault(op.tag, check(op, rel))
    return res


def preserves(op: CanonicalOp, rel: ValuedRelation) -> CheckResult:
    """Does the operation map tuples of a crisp relation back into it?

    Exhaustive over joint configurations whose marginals are 0-entries; on
    failure the first counterexample in enumeration order is reported.  On
    a crisp table every finite bound of the improvement test is 0, so this
    is :func:`improves` and shares its memo.
    """
    if not rel.is_crisp():
        raise PreconditionError(
            f"preservation is defined for crisp relations; {rel.name!r} "
            "is not crisp (use improves for valued relations)")
    return _tested(op, rel)


def improves(op: CanonicalOp, rel: ValuedRelation) -> CheckResult:
    """Is the cost of the componentwise image at most the average input
    cost for every joint configuration?

    An infinite right-hand side is always satisfied, so only pairs of
    finite-cost marginals are enumerated.  On crisp tables this coincides
    with preservation.
    """
    if op.tag == "inj" and not is_equality_invariant(rel):
        raise PreconditionError(
            "the improvement test for inj is only canonical on "
            f"equality-invariant relations; {rel.name!r} is not")
    return _tested(op, rel)


def improves_structure(op: CanonicalOp, s: ValuedStructure) -> CheckResult:
    for rel in s:
        res = improves(op, rel)
        if not res:
            return res
    return CheckResult(True)


def preserves_structure(op: CanonicalOp, s: ValuedStructure) -> CheckResult:
    for rel in s:
        res = preserves(op, rel)
        if not res:
            return res
    return CheckResult(True)
