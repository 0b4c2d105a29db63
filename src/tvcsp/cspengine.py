"""Satisfiability of crisp temporal instances.

Two backends decide conjunctions of atoms over crisp order-type tables:

* a complete layer-by-layer backtracking search, sound and complete for
  every crisp language at desk scale, returning the first witness in
  layer order (see :func:`solve_crisp_complete`);
* a greedy min-layer procedure, polynomial for languages closed under the
  binary minimum (or maximum, run on reversed tables).

A solution over Q is determined by the weak order it induces on the
variables, so witnesses are weak orders; layer ``i`` of the construction
corresponds to rank ``i``.

An instance is variables plus atoms, nothing else.  Forced equalities are
asked with strict-order atoms: x and y are equal in every solution exactly
when the instance plus ``ltInf(x, y)`` and the instance plus
``ltInf(y, x)`` are both unsatisfiable.  ``x < y`` is preserved by all
eight catalog operations, so a probe stays in its instance's class.

An instance compiles its atoms once, and the probe copies share them and
compile only their ``ltInf`` atom.  Which bottom sets an atom admits, given
the layers of its placed arguments, is a fact about its relation, so both
backends read it from the relation's
:meth:`~relations.ValuedRelation.bottom_sets_memo`, shared by every
instance over that relation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional

from . import config
from .errors import CapacityError, PreconditionError, UnsupportedClassError
from .orders import WeakOrder, canonical_ranks
from .relations import ValuedRelation, named_relation

Atom = tuple[ValuedRelation, tuple[str, ...]]

# one relation for every probe, so its bottom-set memo is shared by all
_LT = named_relation("ltInf")


@dataclass(frozen=True)
class CrispInstance:
    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variables")
        declared = set(self.variables)
        for rel, args in self.atoms:
            if not rel.is_crisp():
                raise ValueError(f"atom relation {rel.name!r} is not crisp")
            if len(args) != rel.arity:
                raise ValueError(
                    f"atom {rel.name!r} expects {rel.arity} arguments")
            if not set(args) <= declared:
                raise ValueError(f"atom {rel.name!r} uses undeclared variables")

    def with_lt(self, x: str, y: str) -> "CrispInstance":
        """This instance plus ``ltInf(x, y)`` as its first atom.  Only the
        new pair is validated, and the copy compiles only the new atom.

        First, because the search tests atoms in order and the new atom
        rejects the most candidate layers at the least cost."""
        if x == y or x not in self.variables or y not in self.variables:
            raise ValueError(f"bad strict-order pair ({x}, {y})")
        index, atoms = self._compiled
        out = copy.copy(self)
        object.__setattr__(out, "atoms", ((_LT, (x, y)),) + self.atoms)
        object.__setattr__(out, "_compiled", (
            index, (_CompiledAtom(_LT, (x, y), index),) + atoms))
        return out

    @cached_property
    def _compiled(self) -> tuple[dict[str, int], tuple["_CompiledAtom", ...]]:
        """The variable index and the compiled atoms, built once."""
        index = {v: i for i, v in enumerate(self.variables)}
        return index, tuple([_CompiledAtom(rel, args, index)
                             for rel, args in self.atoms])


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Optional[WeakOrder] = None


class _CompiledAtom:
    """One atom with its feasible rank tuples, its variable indices and
    its relation's bottom-set memo for its pattern of repeated
    arguments."""

    __slots__ = ("positions", "zeros", "_layers_of", "_memo")

    def __init__(self, rel: ValuedRelation, args: tuple[str, ...],
                 index: dict[str, int]):
        self.positions = tuple(index[a] for a in args)
        self.zeros = rel.zero_ranks
        self._layers_of = itemgetter(*self.positions)
        self._memo = rel.bottom_sets_memo(tuple(args.index(a) for a in args))

    def bottom_sets(self, layer: list[Optional[int]]) -> tuple[int, ...]:
        """The admissible bottom sets, as masks over argument positions:
        the unplaced arguments jointly minimal among the unplaced ones in
        some feasible order type that agrees with the placed layers and
        puts every unplaced argument above them.  ``()`` means there is no
        such order type, and ``(0,)`` that all arguments are placed and
        the atom holds.

        :meth:`_matches` reads only the layers of the atom's arguments and
        which arguments repeat, so the answer is kept in the relation's
        :meth:`~ValuedRelation.bottom_sets_memo`.
        """
        key = self._layers_of(layer)
        found = self._memo.get(key)
        if found is None:
            open_pos = [i for i, p in enumerate(self.positions)
                        if layer[p] is None]
            masks = set()
            for z in self.zeros:
                if self._matches(z, layer):
                    low = min([z[i] for i in open_pos], default=None)
                    masks.add(sum(1 << i for i in open_pos if z[i] == low))
            found = self._memo[key] = tuple(sorted(masks))
        return found

    def _matches(self, z: tuple[int, ...], layer: list[Optional[int]]) -> bool:
        pos = self.positions
        k = len(pos)
        for i in range(k):
            li = layer[pos[i]]
            for j in range(i + 1, k):
                lj = layer[pos[j]]
                if li is not None and lj is not None:
                    if (z[i] < z[j]) != (li < lj) or (z[i] == z[j]) != (li == lj):
                        return False
                elif li is not None:
                    if z[i] >= z[j]:
                        return False
                elif lj is not None:
                    if z[j] >= z[i]:
                        return False
                else:
                    # both unplaced: same variable must stay tied
                    if pos[i] == pos[j] and z[i] != z[j]:
                        return False
        return True


def _compile(inst: CrispInstance) -> tuple[_CompiledAtom, ...]:
    """The instance's compiled atoms; the crisp cap is read at every call."""
    n = len(inst.variables)
    cap = config.crisp_cap()
    if n > cap:
        raise CapacityError("crisp satisfiability", n,
                            config.SEARCH_CAP_NAME, cap)
    return inst._compiled[1]


def solve_crisp_complete(inst: CrispInstance) -> SatResult:
    """Complete backtracking over successive bottom layers.

    Candidate bottom sets are explored in decreasing indicator order (the
    earliest variable is the most significant bit), layer after layer.  The
    witness is therefore the satisfying weak order whose bottom layer has
    the greatest indicator, ties broken by the next layer up, and so on.
    That is not the lexicographically least rank vector: over ``v0..v3``,
    ``neqInf(v2, v1)`` and ``ltInf(v2, v0)`` give ``[2,0,1,0]`` although
    ``[1,1,0,0]`` also satisfies them.
    """
    atoms = _compile(inst)
    n = len(inst.variables)
    layer: list[Optional[int]] = [None] * n
    if n == 0:
        return SatResult(True, None)
    if _backtrack(atoms, layer, tuple(range(n)), 0):
        ranks = tuple(layer[i] for i in range(n))
        return SatResult(True, WeakOrder(ranks))
    return SatResult(False, None)


def _backtrack(atoms: tuple[_CompiledAtom, ...],
               layer: list[Optional[int]], unplaced: tuple[int, ...],
               depth: int) -> bool:
    """Place some of ``unplaced`` as layer ``depth``, then the rest above.

    A module-level function rather than a closure: a recursive closure
    refers to itself through its cell, so every search would leave a
    reference cycle holding its compiled atoms until the cyclic collector
    runs.
    """
    if not unplaced:
        return True
    m = len(unplaced)
    for mask in range((1 << m) - 1, 0, -1):
        chosen = [unplaced[i] for i in range(m) if mask & (1 << (m - 1 - i))]
        for v in chosen:
            layer[v] = depth
        if all(a.bottom_sets(layer) for a in atoms):
            rest = tuple(v for v in unplaced if layer[v] is None)
            if _backtrack(atoms, layer, rest, depth + 1):
                return True
        for v in chosen:
            layer[v] = None
    return False


def solve_crisp_minlayer(inst: CrispInstance, direction: str = "min",
                         check_closure: bool = True) -> SatResult:
    """Greedy bottom-layer construction for min- or max-closed languages.

    Repeatedly shrinks the candidate set F of unplaced variables to the
    greatest fixpoint under: a variable of an atom survives only if it lies
    in some admissible bottom set of that atom contained in F (see
    :meth:`_CompiledAtom.bottom_sets`).  For min-closed relations the union
    of admissible bottom sets inside F is itself admissible, which is what
    makes placing all of F as one layer sound.  If F empties while
    variables remain, the instance is unsatisfiable.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    if direction == "max":
        # a list first: see solvers.Instance.from_atoms
        flipped = CrispInstance(
            inst.variables,
            tuple([(rel.reversed(), args) for rel, args in inst.atoms]))
        res = solve_crisp_minlayer(flipped, "min", check_closure)
        if res.witness is None:
            return res
        return SatResult(True, res.witness.reversed())

    if check_closure:
        from .canonops import OPS, preserves
        seen: dict[int, bool] = {}
        for rel, _ in inst.atoms:
            if id(rel) in seen:
                continue
            seen[id(rel)] = True
            if not preserves(OPS["min"], rel):
                raise UnsupportedClassError(
                    f"relation {rel.name!r} is not preserved by min; "
                    "the min-layer backend does not cover it")

    atoms = _compile(inst)
    n = len(inst.variables)
    if n == 0:
        return SatResult(True, None)
    layer: list[Optional[int]] = [None] * n
    unplaced = set(range(n))
    depth = 0
    while unplaced:
        candidates = set(unplaced)
        changed = True
        while changed:
            changed = False
            for atom in atoms:
                masks = atom.bottom_sets(layer)
                if not masks:
                    return SatResult(False, None)
                # the argument positions whose variable is in F
                inside = sum(1 << i for i, p in enumerate(atom.positions)
                             if p in candidates)
                if not inside:
                    continue
                admissible_union = 0
                for m in masks:
                    if not m & ~inside:
                        admissible_union |= m
                drop = inside & ~admissible_union
                if drop:
                    candidates -= {p for i, p in enumerate(atom.positions)
                                   if drop >> i & 1}
                    changed = True
        if not candidates:
            return SatResult(False, None)
        for v in candidates:
            layer[v] = depth
        unplaced -= candidates
        depth += 1

    witness = WeakOrder(tuple(layer[i] for i in range(n)))
    # the greedy construction is only trusted as far as this check
    for atom in atoms:
        if canonical_ranks([layer[p] for p in atom.positions]) \
                not in atom.zeros:
            raise PreconditionError(
                "min-layer produced an invalid witness; the instance is "
                "outside the min-closed class")
    return SatResult(True, witness)


def forced_equalities(inst: CrispInstance,
                      witness: Optional[WeakOrder] = None
                      ) -> tuple[tuple[str, str], ...]:
    """All variable pairs equal in every solution, as ``(x, y)`` pairs with
    ``x`` declared before ``y``, in declaration order.

    A pair (x, y) is forced exactly when the instance plus ``ltInf(x, y)``
    and the instance plus ``ltInf(y, x)`` are both unsatisfiable.  Pairs
    are taken in order and only undecided ones are probed:

    * a pair that some witness found so far separates (the base solution
      or the solution of a satisfiable probe) is not forced;
    * a pair inside a class already merged by unsatisfiable probes is
      forced, since forced equality is an equivalence relation.

    An undecided pair is probed with ``ltInf(x, y)`` first, and with
    ``ltInf(y, x)`` only if that is unsatisfiable.  So at most two probes
    per pair are made (the base solve plus ``n(n-1)`` probes in the worst
    case), and none at all when the base solution is injective.  The
    instance itself must be satisfiable.

    A caller that already holds a solution passes it as ``witness``, and
    the base solve is skipped.  Any solution gives the same pairs: a pair
    that some solution separates is not forced, whichever seeds the search.
    """
    if witness is None:
        base = solve_crisp_complete(inst)
        if not base.satisfiable:
            raise PreconditionError(
                "forced equalities of an unsatisfiable instance")
        witness = base.witness
    vs = inst.variables
    n = len(vs)
    seen = [] if witness is None else [witness.ranks]
    cls = list(range(n))  # class label per variable; same label = forced
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if any(r[i] != r[j] for r in seen):
                continue
            if cls[i] != cls[j]:
                res = solve_crisp_complete(inst.with_lt(vs[i], vs[j]))
                if not res.satisfiable:
                    res = solve_crisp_complete(inst.with_lt(vs[j], vs[i]))
                if res.satisfiable:
                    seen.append(res.witness.ranks)
                    continue
                old, new = cls[j], cls[i]
                cls = [new if c == old else c for c in cls]
            out.append((vs[i], vs[j]))
    return tuple(out)
