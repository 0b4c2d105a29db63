"""Valued relations over Q as order-type cost tables, and their calculus.

A temporal valued relation assigns the same cost to all tuples of one order
type, so a relation of arity ``k`` is stored as a total map from the weak
orders on ``k`` positions to costs.  This module provides the closure
operations on such tables (sums of atomic expressions with projection,
shifting, nonnegative scaling, feasibility, optimum, minors), the derived
crisp structure used by the classifier, and a catalog of named relations.

It is also the one place where an atom's cost is read: an atom name
resolves to a relation of the structure or to a builtin, and its cost at
an assignment is the entry of the canonical rank tuple of its arguments
in the structure's :attr:`ValuedStructure.scaled` tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
import re
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import config
from .cost import Cost, INF, ZERO, Rational, parse_cost
from .errors import CapacityError
from .orders import (
    WeakOrder,
    canonical_ranks,
    enumerate_weak_orders,
    partition_signature,
    set_partitions,
)

#: Atom names usable in every expression and instance without declaration.
BUILTIN_EQ = "eq"
BUILTIN_EMPTY = "empty"
RESERVED_NAMES = frozenset({BUILTIN_EQ, BUILTIN_EMPTY})


@dataclass(frozen=True)
class ValuedRelation:
    """Arity plus a total cost table indexed by weak orders."""

    name: str
    arity: int
    table: Mapping[WeakOrder, Cost]

    def __post_init__(self):
        orders = enumerate_weak_orders(self.arity)
        if set(self.table) != set(orders):
            raise ValueError(
                f"table of {self.name!r} must cover all {len(orders)} "
                f"order types of arity {self.arity}")

    # The facts below depend on the table alone, which never changes, so
    # each is computed on first use and kept on the relation.

    def is_crisp(self) -> bool:
        return self._crisp

    @cached_property
    def _crisp(self) -> bool:
        return all(c == ZERO or c == INF for c in self.table.values())

    def finite_values(self) -> tuple[Cost, ...]:
        """Distinct finite costs, sorted."""
        return self._finite_values

    @cached_property
    def _finite_values(self) -> tuple[Cost, ...]:
        return tuple(sorted({c for c in self.table.values() if c.is_finite}))

    def is_essentially_crisp(self) -> bool:
        return len(self.finite_values()) <= 1

    def zeros(self) -> tuple[WeakOrder, ...]:
        return self._zeros

    @cached_property
    def _zeros(self) -> tuple[WeakOrder, ...]:
        return tuple(w for w in enumerate_weak_orders(self.arity)
                     if self.table[w] == ZERO)

    @cached_property
    def zero_ranks(self) -> tuple[tuple[int, ...], ...]:
        """The rank tuples of :meth:`zeros`, in the same order."""
        return tuple(w.ranks for w in self._zeros)

    @cached_property
    def _bottom_sets(self) -> dict:
        return {}

    def bottom_sets_memo(self, pattern: tuple[int, ...]) -> dict:
        """Admissible bottom sets of atoms on this relation whose arguments
        repeat as ``pattern`` (each argument's first position among the
        arguments), keyed on the layers of the arguments and filled by
        both crisp backends (see ``cspengine._CompiledAtom.bottom_sets``).

        An entry depends only on the relation, the pattern and those
        layers, so it holds for every instance.  Only the states a search
        visits are stored.  Keys are raw layer numbers, each unplaced or
        below the number of variables, and the free-set driver is not
        capped: a pattern holds at most ``(n + 1) ** arity`` entries for
        the largest ``n`` solved over the relation.
        """
        memo = self._bottom_sets.get(pattern)
        if memo is None:
            memo = self._bottom_sets.setdefault(pattern, {})
        return memo

    def reversed(self) -> "ValuedRelation":
        """:func:`reverse_relation` of this relation, built once."""
        return self._reversed

    @cached_property
    def _reversed(self) -> "ValuedRelation":
        return reverse_relation(self)

    @cached_property
    def equality_invariant(self) -> bool:
        """True when the cost depends only on the equality classes of a
        tuple, i.e. the relation is preserved by every permutation of the
        domain."""
        by_partition: dict[tuple[int, ...], Cost] = {}
        for w, c in self.table.items():
            sig = partition_signature(w)
            if by_partition.setdefault(sig, c) != c:
                return False
        return True

    @cached_property
    def test_results(self) -> dict:
        """Tester results by operation tag, filled by
        :func:`canonops.improves` and :func:`canonops.preserves`."""
        return {}

    @cached_property
    def feasibility(self) -> "ValuedRelation":
        """:func:`feas` of this relation."""
        return feas(self)

    @cached_property
    def optimum(self) -> "ValuedRelation":
        """:func:`opt` of this relation."""
        return opt(self)

    @cached_property
    def injective_values(self) -> tuple[Cost, ...]:
        """Distinct finite costs of the injective order types, sorted."""
        return tuple(sorted({c for w, c in self.table.items()
                             if w.is_injective() and c.is_finite}))

    @cached_property
    def _minors(self) -> dict:
        return {}

    def minor_at(self, blocks: tuple[tuple[int, ...], ...]
                 ) -> "ValuedRelation":
        """:func:`minor` of this relation at a partition given as tuples of
        ascending positions ordered by their first position, built once
        per partition."""
        out = self._minors.get(blocks)
        if out is None:
            out = self._minors.setdefault(blocks, minor(self, blocks))
        return out

    def renamed(self, name: str) -> "ValuedRelation":
        return ValuedRelation(name, self.arity, self.table)


def relation_from_fn(name: str, arity: int,
                     fn: Callable[[WeakOrder], Cost]) -> ValuedRelation:
    return ValuedRelation(
        name, arity, {w: fn(w) for w in enumerate_weak_orders(arity)})


def crisp_relation(name: str, arity: int,
                   zeros: Iterable[WeakOrder]) -> ValuedRelation:
    zset = set(zeros)
    return relation_from_fn(name, arity,
                            lambda w: ZERO if w in zset else INF)


def is_equality_invariant(rel: ValuedRelation) -> bool:
    """:attr:`ValuedRelation.equality_invariant`."""
    return rel.equality_invariant


# ---------------------------------------------------------------------------
# Clone operations on tables
# ---------------------------------------------------------------------------

def shift(rel: ValuedRelation, amount: Rational,
          name: Optional[str] = None) -> ValuedRelation:
    """Entrywise addition of a rational constant (∞ stays ∞)."""
    return ValuedRelation(
        name or f"shift({rel.name},{Fraction(amount)})", rel.arity,
        {w: c.shift(amount) for w, c in rel.table.items()})


def scale(rel: ValuedRelation, factor: Rational,
          name: Optional[str] = None) -> ValuedRelation:
    """Entrywise multiplication by a nonnegative rational; 0 · ∞ = 0."""
    factor = Fraction(factor)
    if factor < 0:
        raise ValueError("scaling factor must be nonnegative")
    return ValuedRelation(
        name or f"scale({rel.name},{factor})", rel.arity,
        {w: c.scale(factor) for w, c in rel.table.items()})


def feas(rel: ValuedRelation, name: Optional[str] = None) -> ValuedRelation:
    """Feasibility relation: 0 where the cost is finite, ∞ elsewhere."""
    return ValuedRelation(
        name or f"Feas({rel.name})", rel.arity,
        {w: (ZERO if c.is_finite else INF) for w, c in rel.table.items()})


def opt(rel: ValuedRelation, name: Optional[str] = None) -> ValuedRelation:
    """Minimal-value relation: 0 exactly where the minimum finite cost is
    attained; the empty (all-∞) relation when there is no finite entry."""
    finite = [c for c in rel.table.values() if c.is_finite]
    if not finite:
        return ValuedRelation(name or f"Opt({rel.name})", rel.arity,
                              {w: INF for w in rel.table})
    m = min(finite)
    return ValuedRelation(
        name or f"Opt({rel.name})", rel.arity,
        {w: (ZERO if c == m else INF) for w, c in rel.table.items()})


def reverse_relation(rel: ValuedRelation,
                     name: Optional[str] = None) -> ValuedRelation:
    """Table of the relation on negated arguments (rank reversal)."""
    return ValuedRelation(
        name or f"rev({rel.name})", rel.arity,
        {w.reversed(): c for w, c in rel.table.items()})


def _partition_blocks(arity: int,
                      partition: Iterable[Iterable[int]]) -> list[list[int]]:
    blocks = [sorted(set(b)) for b in partition]
    seen: list[int] = sorted(p for b in blocks for p in b)
    if seen != list(range(1, arity + 1)) or any(not b for b in blocks):
        raise ValueError(
            f"not a partition of positions 1..{arity}: {partition}")
    blocks.sort(key=lambda b: b[0])
    return blocks


def partition_label(arity: int, partition: Iterable[Iterable[int]]) -> str:
    blocks = _partition_blocks(arity, partition)
    return "|".join("".join(str(p) for p in b) for b in blocks)


def minor(rel: ValuedRelation, partition: Iterable[Iterable[int]],
          name: Optional[str] = None) -> ValuedRelation:
    """Identify argument positions according to a partition of 1..k.

    Blocks are ordered by their smallest position; the result's arity is
    the number of blocks.
    """
    blocks = _partition_blocks(rel.arity, partition)
    block_of = {}
    for i, b in enumerate(blocks):
        for p in b:
            block_of[p - 1] = i
    sigma = tuple(block_of[p] for p in range(rel.arity))
    label = partition_label(rel.arity, partition)
    table = {}
    for w in enumerate_weak_orders(len(blocks)):
        expanded = WeakOrder(tuple(w.ranks[sigma[p]] for p in range(rel.arity)))
        table[w] = rel.table[expanded]
    return ValuedRelation(name or f"{rel.name}[{label}]", len(blocks), table)


# ---------------------------------------------------------------------------
# Valued structures
# ---------------------------------------------------------------------------

#: A scaled cost: an integer, or the float infinity for ``∞``.
Scaled = Union[int, float]
_SCALED_INF = float("inf")


def unscaled(total: Scaled, denom: int) -> Cost:
    """The cost of a sum of :attr:`ValuedStructure.scaled` entries."""
    return INF if total == _SCALED_INF else Cost(Fraction(int(total), denom))


class ValuedStructure:
    """A named collection of valued relations over Q.

    Relations keep their declaration order.  The two flags consumed by the
    classifier, the content key and the scaled tables are computed on
    demand and cached; all tables are immutable, so the cache never goes
    stale.
    """

    def __init__(self, relations: Iterable[ValuedRelation], name: str = ""):
        self.name = name
        self._rels: dict[str, ValuedRelation] = {}
        for r in relations:
            if r.name in RESERVED_NAMES:
                raise ValueError(f"relation name {r.name!r} is reserved")
            if r.name in self._rels:
                raise ValueError(f"duplicate relation name {r.name!r}")
            self._rels[r.name] = r

    @property
    def relations(self) -> tuple[ValuedRelation, ...]:
        return tuple(self._rels.values())

    def get(self, name: str) -> ValuedRelation:
        try:
            return self._rels[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._rels

    def __iter__(self):
        return iter(self._rels.values())

    def __len__(self) -> int:
        return len(self._rels)

    @cached_property
    def equality_invariant(self) -> bool:
        return all(r.equality_invariant for r in self)

    @cached_property
    def essentially_crisp(self) -> bool:
        return all(r.is_essentially_crisp() for r in self)

    @cached_property
    def content_key(self) -> tuple:
        """Each relation's name, arity and costs in weak-order order: equal
        exactly for structures of the same content, whatever their name.

        The costs enter as one string of their canonical texts (``inf``,
        ``3/2``), which stand one to one for their values and contain no
        space.  Unlike ``Fraction`` values, a string hashes and compares
        in C.
        """
        return tuple(
            (rel.name, rel.arity,
             " ".join([str(rel.table[w])
                       for w in enumerate_weak_orders(rel.arity)]))
            for rel in self)

    @cached_property
    def scaled(self) -> tuple[int, dict[str, dict[tuple[int, ...], Scaled]]]:
        """Every table, the builtins' included, over one common denominator.

        Returns the denominator and, per relation name, the table keyed by
        canonical rank tuples.  Finite costs become plain integers and
        ``∞`` the float infinity, which is exact: finite sums never leave
        the integers and the infinity is absorbing.  :func:`unscaled` turns
        a sum back into a cost.
        """
        rels = (*self._rels.values(), _EQ_REL, _EMPTY_REL)
        denom = 1
        for rel in rels:
            for c in rel.finite_values():
                denom = lcm(denom, c.fraction.denominator)
        return denom, {
            rel.name: {w.ranks: (int(c.fraction * denom) if c.is_finite
                                 else _SCALED_INF)
                       for w, c in rel.table.items()}
            for rel in rels}


def feas_structure(s: ValuedStructure) -> ValuedStructure:
    return ValuedStructure([r.feasibility for r in s],
                           name=f"Feas({s.name})")


def build_hat(s: ValuedStructure) -> ValuedStructure:
    """The derived crisp structure consulted by the classifier.

    Contains the feasibility relation of every relation and the
    minimal-value relation of every minor of every relation (the discrete
    partition contributes the plain optimum), each named
    ``Opt(<name>[<partition label>])``.  These are the relations memoized
    on ``s``'s relations, the ones the lex solver reads.
    """
    rels = []
    for r in s:
        rels.append(r.feasibility)
        for blocks in set_partitions(range(1, r.arity + 1)):
            rels.append(r.minor_at(tuple(map(tuple, blocks))).optimum)
    return ValuedStructure(rels, name=f"hat({s.name})")


# ---------------------------------------------------------------------------
# Named relation catalog
# ---------------------------------------------------------------------------

def _chain_zeros(arity: int, chains: Sequence[Sequence[int]]) -> list[WeakOrder]:
    """Zero set given as disjuncts; each disjunct chains 0-based positions
    bottom-up with ``[pos...]`` groups tied (here: all strict chains)."""
    zeros = []
    for chain in chains:
        ranks = [0] * arity
        for level, pos in enumerate(chain):
            ranks[pos] = level
        zeros.append(WeakOrder(tuple(ranks)))
    return zeros


def rel_abg(alpha: Union[Cost, Rational], beta: Union[Cost, Rational],
            gamma: Union[Cost, Rational],
            name: Optional[str] = None) -> ValuedRelation:
    """Binary relation costing ``alpha`` on x=y, ``beta`` on x<y, ``gamma``
    on x>y."""
    a = alpha if isinstance(alpha, Cost) else Cost(alpha)
    b = beta if isinstance(beta, Cost) else Cost(beta)
    g = gamma if isinstance(gamma, Cost) else Cost(gamma)
    table = {WeakOrder((0, 0)): a, WeakOrder((0, 1)): b, WeakOrder((1, 0)): g}
    return ValuedRelation(name or f"Rabg({a},{b},{g})", 2, table)


def _betw() -> ValuedRelation:
    return crisp_relation("Betw", 3, _chain_zeros(3, [(0, 1, 2), (2, 1, 0)]))


def _cyc() -> ValuedRelation:
    return crisp_relation(
        "Cyc", 3, _chain_zeros(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]))


def _sep() -> ValuedRelation:
    # arguments (x1, y1, x2, y2); the two pairs {x1,y1}, {x2,y2} must cross
    chains = [
        (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2),
        (2, 0, 3, 1), (2, 1, 3, 0), (3, 0, 2, 1), (3, 1, 2, 0),
    ]
    return crisp_relation("Sep", 4, _chain_zeros(4, chains))


def _t3() -> ValuedRelation:
    zeros = [WeakOrder((0, 0, 1)), WeakOrder((0, 1, 0))]
    return crisp_relation("T3", 3, zeros)


def _dis() -> ValuedRelation:
    def fn(w: WeakOrder) -> Cost:
        x, y, z = w.ranks
        ok = (x == y != z) or (x != y == z)
        return ZERO if ok else INF
    return relation_from_fn("Dis", 3, fn)


def _rmix() -> ValuedRelation:
    def fn(w: WeakOrder) -> Cost:
        x, y, z = w.ranks
        ok = (x == y) or (z < x and z < y)
        return ZERO if ok else INF
    return relation_from_fn("Rmix", 3, fn)


_CATALOG: dict[str, Callable[[], ValuedRelation]] = {
    "Betw": _betw,
    "Cyc": _cyc,
    "Sep": _sep,
    "T3": _t3,
    "negT3": lambda: reverse_relation(_t3(), name="negT3"),
    "Dis": _dis,
    "Rmix": _rmix,
    "eq01": lambda: rel_abg(0, 1, 1, name="eq01"),
    "eqInf": lambda: rel_abg(ZERO, INF, INF, name="eqInf"),
    "neq01": lambda: rel_abg(1, 0, 0, name="neq01"),
    "neqInf": lambda: rel_abg(INF, ZERO, ZERO, name="neqInf"),
    "lt01": lambda: rel_abg(1, 0, 1, name="lt01"),
    "ltInf": lambda: rel_abg(INF, ZERO, INF, name="ltInf"),
    "leq01": lambda: rel_abg(0, 0, 1, name="leq01"),
}

_RABG_RE = re.compile(r"^Rabg\(([^,]+),([^,]+),([^)]+)\)$")


def named_relation(name: str) -> ValuedRelation:
    """Catalog lookup; also accepts the parametric form ``Rabg(a,b,g)``."""
    if name in _CATALOG:
        return _CATALOG[name]()
    m = _RABG_RE.match(name.replace(" ", ""))
    if m:
        return rel_abg(*(parse_cost(tok) for tok in m.groups()))
    raise KeyError(f"unknown named relation {name!r}")


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


# ---------------------------------------------------------------------------
# Expressions: sums of atomic expressions with projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """A sum of atoms over free and existentially minimized variables."""

    free_vars: tuple[str, ...]
    bound_vars: tuple[str, ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.free_vars:
            raise ValueError("an expression needs at least one free variable")
        declared = list(self.free_vars) + list(self.bound_vars)
        if len(set(declared)) != len(declared):
            raise ValueError("free and bound variables must be distinct")
        for _, args in self.atoms:
            for a in args:
                if a not in declared:
                    raise ValueError(f"atom uses undeclared variable {a!r}")


_EQ_REL = rel_abg(ZERO, INF, INF, name=BUILTIN_EQ)
_EMPTY_REL = relation_from_fn(BUILTIN_EMPTY, 1, lambda w: INF)


def atom_relation(structure: ValuedStructure, name: str) -> ValuedRelation:
    """Resolve an atom name against the structure or the builtins."""
    if name == BUILTIN_EQ:
        return _EQ_REL
    if name == BUILTIN_EMPTY:
        return _EMPTY_REL
    return structure.get(name)


def resolve_atoms(structure: ValuedStructure, source
                  ) -> list[tuple[ValuedRelation, tuple[str, ...]]]:
    """The relation and arguments of each atom of ``source`` (an instance
    or an expression); :class:`ValueError` on a wrong argument count."""
    out = []
    for name, args in source.atoms:
        rel = atom_relation(structure, name)
        if len(args) != rel.arity:
            raise ValueError(
                f"atom {name!r} expects {rel.arity} arguments, got {len(args)}")
        out.append((rel, args))
    return out


def weak_order_totals(structure: ValuedStructure, source,
                      variables: Sequence[str], cap: int
                      ) -> Iterator[tuple[tuple[int, ...], Scaled]]:
    """Every weak order on ``variables`` with the scaled sum of the atoms
    of ``source`` at it, in increasing rank order.

    Enumerates the ordered Bell number of ``len(variables)`` orders, at
    most ``cap`` positions.  Each atom remembers the entry of every rank
    tuple it has met, so a canonical form is computed once per tuple.
    """
    _, tables = structure.scaled
    pos = {v: i for i, v in enumerate(variables)}
    compiled = [(tables[rel.name], tuple(pos[a] for a in args), {})
                for rel, args in resolve_atoms(structure, source)]
    for w in enumerate_weak_orders(len(variables), cap=cap):
        ranks = w.ranks
        total: Scaled = 0
        for table, positions, memo in compiled:
            key = tuple([ranks[p] for p in positions])
            c = memo.get(key)
            if c is None:
                c = memo[key] = table[canonical_ranks(key)]
            total += c
            if total == _SCALED_INF:
                break
        yield ranks, total


def eval_expression(structure: ValuedStructure, expr: Expression,
                    name: str = "expr") -> ValuedRelation:
    """The valued relation an expression defines over a structure.

    For each order type of the free variables, the cost is the minimum,
    over all order types of free and bound variables together extending
    it, of the sum of atom costs.  Density of Q makes every abstract
    extension realizable, so the minimum over this finite set is the exact
    projection.
    """
    variables = expr.free_vars + expr.bound_vars
    n = len(variables)
    limit = config.arity_cap()
    if n > limit:
        raise CapacityError("expression evaluation", n,
                            config.ARITY_CAP_NAME, limit)
    nfree = len(expr.free_vars)
    best: dict[tuple[int, ...], Scaled] = {}
    for ranks, total in weak_order_totals(structure, expr, variables, limit):
        marg = canonical_ranks(ranks[:nfree])
        cur = best.get(marg)
        if cur is None or total < cur:
            best[marg] = total
    denom, _ = structure.scaled
    return ValuedRelation(name, nfree, {WeakOrder(r): unscaled(c, denom)
                                        for r, c in best.items()})
