"""Satisfiability of crisp temporal instances.

Two backends decide conjunctions of atoms over crisp order-type tables:

* a complete layer-by-layer backtracking search, sound and complete for
  every crisp language at desk scale and capped by the crisp cap,
  returning the first witness in layer order (see
  :func:`solve_crisp_complete`);
* a polynomial free-set driver (Bodirsky & Kára) for languages preserved
  by ``min``, ``mi`` or their duals ``max``, ``miDual``
  (see :func:`solve_crisp_freeset`).  It places a free set (a nonempty
  set of unplaced variables that meets every atom in nothing or in one of
  the atom's admissible bottom sets) as the next layer, until every
  variable is placed or no free set is left.  A finder per witness finds
  the set; the duals run on reversed tables.

:func:`solve_crisp` is where an instance's witness operation picks the
backend; :func:`solve_crisp_minlayer` is its min/max route behind a
closure check.

A solution over Q is determined by the weak order it induces on the
variables, so witnesses are weak orders; layer ``i`` of the construction
corresponds to rank ``i``.

An instance is variables plus atoms, nothing else.  Forced equalities are
asked with strict-order atoms: x and y are equal in every solution exactly
when the instance plus ``ltInf(x, y)`` and the instance plus
``ltInf(y, x)`` are both unsatisfiable.  ``x < y`` is preserved by all
eight catalog operations, so a probe stays in its instance's class and
runs on the same backend.

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
from .canonops import DUAL_BASE, OPS, preserves
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
        if "_reversed" in self.__dict__:
            # reversed, x < y reads y < x
            object.__setattr__(out, "_reversed", self._reversed.with_lt(y, x))
        return out

    def reversed(self) -> "CrispInstance":
        """This instance over the reversed tables, built once: its
        solutions are the reversals of this instance's.  A probe of an
        instance whose reversal is built is reversed as a probe of that
        reversal, so it too compiles only its ``ltInf`` atom."""
        return self._reversed

    @cached_property
    def _reversed(self) -> "CrispInstance":
        # not validated again: the atoms were validated here
        out = object.__new__(CrispInstance)
        # a list first: see solvers.Instance.from_atoms
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "atoms", tuple(
            [(rel.reversed(), args) for rel, args in self.atoms]))
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


def _check_cap(inst: CrispInstance) -> None:
    """Refuse an instance above the crisp cap, read at every call."""
    n = len(inst.variables)
    cap = config.crisp_cap()
    if n > cap:
        raise CapacityError("crisp satisfiability", n,
                            config.SEARCH_CAP_NAME, cap)


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
    _check_cap(inst)
    atoms = inst._compiled[1]
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
    """:func:`solve_crisp` for the ``min`` (or ``max``) witness, behind,
    unless ``check_closure`` is false, a check that ``direction``
    preserves every relation."""
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    if check_closure:
        seen: set[int] = set()
        for rel, _ in inst.atoms:
            if id(rel) in seen:
                continue
            seen.add(id(rel))
            if not preserves(OPS[direction], rel):
                raise UnsupportedClassError(
                    f"relation {rel.name!r} is not preserved by "
                    f"{direction}; the min-layer backend does not cover it")
    return solve_crisp(inst, direction)


def _min_finder(atoms: tuple[_CompiledAtom, ...], n: int):
    """The greatest free set, as a function of the layer's masks and the
    unplaced variables.

    Shrinks the candidate set F of unplaced variables to the greatest
    fixpoint under: a variable of an atom survives only if it lies in some
    admissible bottom set of that atom contained in F.  Admissible bottom
    sets of a min-closed relation are closed under union (``min`` of two
    zeros, both with their bottom sets at one value, has the union as its
    bottom set), so the union of those inside F is admissible, and the
    fixpoint is a free set unless it is empty.
    """
    def find(masks: list[tuple[int, ...]], unplaced: set[int]) -> set[int]:
        candidates = set(unplaced)
        changed = True
        while changed:
            changed = False
            for atom, atom_masks in zip(atoms, masks):
                # the argument positions whose variable is in F
                inside = sum(1 << i for i, p in enumerate(atom.positions)
                             if p in candidates)
                if not inside:
                    continue
                admissible_union = 0
                for m in atom_masks:
                    if not m & ~inside:
                        admissible_union |= m
                drop = inside & ~admissible_union
                if drop:
                    candidates -= {p for i, p in enumerate(atom.positions)
                                   if drop >> i & 1}
                    changed = True
        return candidates

    return find


def _mi_finder(atoms: tuple[_CompiledAtom, ...], n: int):
    """The least free set that contains the first seed in declaration order
    that lies in some free set (empty when no free set exists), as a
    function of the layer's masks and the unplaced variables.

    Admissible bottom sets of an mi-closed relation are closed under
    intersection when it is nonempty: put the bottom sets A1, A2 of two
    zeros at one value; ``mi`` of the zeros has bottom set A1 ∩ A2 (or A2
    when they are disjoint).  Horn closure from a seed s therefore works:
    start with S = {s}; for each atom that meets S, intersect its
    admissible sets that contain S's positions in it (none: no free set
    contains s) and add the result's variables to S.  Every free set that
    contains s contains each variable added, by induction, and at the
    fixpoint each atom meets S in exactly such an intersection, which is
    admissible.  So S is the least free set containing s.
    """
    # the atoms on each variable, each once
    occurs: list[list[int]] = [[] for _ in range(n)]
    for k, atom in enumerate(atoms):
        for p in set(atom.positions):
            occurs[p].append(k)

    def find(masks: list[tuple[int, ...]], unplaced: set[int]) -> set[int]:
        for seed in sorted(unplaced):
            closed = _horn_closure(seed, atoms, masks, occurs)
            if closed:
                return closed
        return set()

    return find


def _horn_closure(seed: int, atoms: tuple[_CompiledAtom, ...],
                  masks: list[tuple[int, ...]],
                  occurs: list[list[int]]) -> set[int]:
    """:func:`_mi_finder`'s closure from ``seed``; empty when it fails."""
    closed = {seed}
    todo = [seed]
    while todo:
        for k in occurs[todo.pop()]:
            pos = atoms[k].positions
            inside = sum(1 << i for i, p in enumerate(pos) if p in closed)
            meet = -1
            for m in masks[k]:
                if m & inside == inside:
                    meet &= m
            if meet == -1:
                return set()
            for i, p in enumerate(pos):
                if meet >> i & 1 and p not in closed:
                    closed.add(p)
                    todo.append(p)
    return closed


#: Free-set finder per base witness, built once per solve from the
#: compiled atoms and the number of variables.
_FINDERS = {"min": _min_finder, "mi": _mi_finder}


def solve_crisp_freeset(inst: CrispInstance, witness_tag: str) -> SatResult:
    """Place free sets layer by layer, for languages preserved by
    ``witness_tag``: ``"min"``, ``"mi"`` or their duals ``"max"``,
    ``"miDual"``.

    A free set is a nonempty set of unplaced variables that meets every
    atom in nothing or in one of its admissible bottom sets (see
    :meth:`_CompiledAtom.bottom_sets`).  Each layer reads every atom's
    masks once.  If some atom admits none, or the witness's finder finds
    no free set, the instance is unsatisfiable; otherwise the set is
    placed as the layer.  A dual runs its base witness on reversed tables
    and reverses the witness.

    Why any free set F may be placed, for ``min`` and ``mi``: take a
    solution s above the placed layers.  For an atom that F meets, a zero
    z of its relation has F's part of its arguments as bottom set; put
    that part just above the placed layers and the other arguments above
    every value of s.  Applied to z and s, ``min`` and ``mi`` both put
    F's part at the bottom, tied, and the other arguments in s's order.
    So "F at the bottom, the rest as in s" is a solution.  Conversely the
    bottom set of any solution is free, so a finder that finds a free set
    whenever one exists makes the driver complete.

    No cap is read: there are at most ``n`` layers, each polynomial in
    the instance.  An unsatisfiable answer is right only when the witness
    preserves every relation, which the caller guarantees.  A satisfiable
    answer is checked atom by atom at the end.
    """
    base = DUAL_BASE.get(witness_tag, witness_tag)
    finder = _FINDERS.get(base)
    if finder is None:
        raise ValueError(f"no free-set finder for {witness_tag!r}")
    if base != witness_tag:
        res = solve_crisp_freeset(inst.reversed(), base)
        if res.witness is None:
            return res
        return SatResult(True, res.witness.reversed())

    atoms = inst._compiled[1]
    n = len(inst.variables)
    if n == 0:
        return SatResult(True, None)
    find = finder(atoms, n)
    layer: list[Optional[int]] = [None] * n
    unplaced = set(range(n))
    depth = 0
    while unplaced:
        masks = [atom.bottom_sets(layer) for atom in atoms]
        if not all(masks):
            return SatResult(False, None)
        free = find(masks, unplaced)
        if not free:
            return SatResult(False, None)
        for v in free:
            layer[v] = depth
        unplaced -= free
        depth += 1

    # the construction is only trusted as far as this check
    for atom in atoms:
        if canonical_ranks([layer[p] for p in atom.positions]) \
                not in atom.zeros:
            raise PreconditionError(
                f"the free-set driver produced an invalid witness; the "
                f"instance is outside the {witness_tag}-closed class")
    return SatResult(True, WeakOrder(tuple(layer[i] for i in range(n))))


def solve_crisp(inst: CrispInstance,
                witness_tag: Optional[str] = None) -> SatResult:
    """Decide ``inst`` on the backend its witness picks: the free-set
    driver when the tag's base has a finder (``min``, ``max``, ``mi``,
    ``miDual``), the complete search otherwise (``mx``, ``lele``, their
    duals, ``None``).  The caller guarantees that the witness preserves
    every relation.  The backends are looked up by name at each call, so
    a wrapper put in their place is the one that runs."""
    if DUAL_BASE.get(witness_tag, witness_tag) in _FINDERS:
        if witness_tag in ("min", "max"):
            # The driver needs no cap; this keeps the benchmark's capped
            # climb on the min route until it moves (ROADMAP item 1).
            _check_cap(inst)
        return solve_crisp_freeset(inst, witness_tag)
    return solve_crisp_complete(inst)


def forced_equalities(inst: CrispInstance,
                      witness: Optional[WeakOrder] = None,
                      witness_tag: Optional[str] = None
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

    Every solve is :func:`solve_crisp` with ``witness_tag``, the operation
    preserving the instance's relations (the complete search when it is
    not given).  The backend it picks decides the probes too, since
    ``ltInf`` is preserved by all eight catalog operations.
    """
    if witness is None:
        base = solve_crisp(inst, witness_tag)
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
                res = solve_crisp(inst.with_lt(vs[i], vs[j]), witness_tag)
                if not res.satisfiable:
                    res = solve_crisp(inst.with_lt(vs[j], vs[i]), witness_tag)
                if res.satisfiable:
                    seen.append(res.witness.ranks)
                    continue
                old, new = cls[j], cls[i]
                cls = [new if c == old else c for c in cls]
            out.append((vs[i], vs[j]))
    return tuple(out)
