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

Disequality side-constraints are native to the engine (they are what the
forced-equality queries add) but only the complete backend accepts them:
a disequality is not min-closed, so the greedy backend refuses and callers
fall back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import config
from .errors import CapacityError, PreconditionError, UnsupportedClassError
from .orders import WeakOrder
from .relations import ValuedRelation, reverse_relation

Atom = tuple[ValuedRelation, tuple[str, ...]]


@dataclass(frozen=True)
class CrispInstance:
    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]
    disequalities: frozenset[tuple[str, str]] = frozenset()

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
        for x, y in self.disequalities:
            if x not in declared or y not in declared or x == y:
                raise ValueError(f"bad disequality pair ({x}, {y})")

    def with_disequality(self, x: str, y: str) -> "CrispInstance":
        return CrispInstance(self.variables, self.atoms,
                             self.disequalities | {(x, y)})


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Optional[WeakOrder] = None


class _CompiledAtom:
    """One atom with its feasible rank tuples and variable indices."""

    __slots__ = ("positions", "zeros")

    def __init__(self, rel: ValuedRelation, args: tuple[str, ...],
                 index: dict[str, int]):
        self.positions = tuple(index[a] for a in args)
        self.zeros = tuple(w.ranks for w in rel.zeros())

    def consistent(self, layer: list[Optional[int]]) -> bool:
        """Is some feasible order type compatible with the placed layers,
        all unplaced variables strictly above them?"""
        return any(self._matches(z, layer) for z in self.zeros)

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

    def feasible_matches(self, layer: list[Optional[int]]
                         ) -> Iterable[tuple[int, ...]]:
        return (z for z in self.zeros if self._matches(z, layer))


def _compile(inst: CrispInstance, cap: int, cap_name: str):
    n = len(inst.variables)
    if n > cap:
        raise CapacityError("crisp satisfiability", n, cap_name, cap)
    index = {v: i for i, v in enumerate(inst.variables)}
    atoms = [_CompiledAtom(rel, args, index) for rel, args in inst.atoms]
    diseqs = tuple((index[x], index[y]) for x, y in sorted(inst.disequalities))
    return index, atoms, diseqs


def solve_crisp_complete(inst: CrispInstance,
                         cap: Optional[int] = None) -> SatResult:
    """Complete backtracking over successive bottom layers.

    Candidate bottom sets are explored in decreasing indicator order (the
    earliest variable is the most significant bit), layer after layer.  The
    witness is therefore the satisfying weak order whose bottom layer has
    the greatest indicator, ties broken by the next layer up, and so on.
    That is not the lexicographically least rank vector: over ``v0..v3``,
    ``neqInf(v2, v1)`` and ``ltInf(v2, v0)`` give ``[2,0,1,0]`` although
    ``[1,1,0,0]`` also satisfies them.
    """
    limit = config.crisp_cap() if cap is None else cap
    _, atoms, diseqs = _compile(inst, limit, config.SEARCH_CAP_NAME)
    n = len(inst.variables)
    layer: list[Optional[int]] = [None] * n

    def ok_so_far() -> bool:
        return all(a.consistent(layer) for a in atoms)

    def backtrack(unplaced: tuple[int, ...], depth: int) -> bool:
        if not unplaced:
            return True
        m = len(unplaced)
        for mask in range((1 << m) - 1, 0, -1):
            chosen = [unplaced[i] for i in range(m) if mask & (1 << (m - 1 - i))]
            for v in chosen:
                layer[v] = depth
            bad = any(layer[x] == layer[y] for x, y in diseqs
                      if layer[x] is not None and layer[y] is not None)
            if not bad and ok_so_far():
                rest = tuple(v for v in unplaced if layer[v] is None)
                if backtrack(rest, depth + 1):
                    return True
            for v in chosen:
                layer[v] = None
        return False

    if n == 0:
        return SatResult(True, None)
    if backtrack(tuple(range(n)), 0):
        ranks = tuple(layer[i] for i in range(n))
        return SatResult(True, WeakOrder(ranks))
    return SatResult(False, None)


def solve_crisp_minlayer(inst: CrispInstance, direction: str = "min",
                         check_closure: bool = True,
                         cap: Optional[int] = None) -> SatResult:
    """Greedy bottom-layer construction for min- or max-closed languages.

    Repeatedly shrinks the candidate set F of unplaced variables to the
    greatest fixpoint under: a variable of an atom survives only if it lies
    in some admissible bottom set of that atom contained in F.  An
    admissible bottom set of an atom is a set of its unplaced variables
    that appear jointly equal and strictly below all its other unplaced
    variables in some feasible order type compatible with the layers
    already placed.  For min-closed relations the union of admissible
    bottom sets inside F is itself admissible, which is what makes placing
    all of F as one layer sound.  If F empties while variables remain, the
    instance is unsatisfiable.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    if inst.disequalities:
        raise UnsupportedClassError(
            "disequality side-constraints are not min-closed; "
            "use the complete backend")
    if direction == "max":
        flipped = CrispInstance(
            inst.variables,
            tuple((reverse_relation(rel), args) for rel, args in inst.atoms))
        res = solve_crisp_minlayer(flipped, "min", check_closure, cap)
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

    limit = config.crisp_cap() if cap is None else cap
    _, atoms, _ = _compile(inst, limit, config.SEARCH_CAP_NAME)
    n = len(inst.variables)
    layer: list[Optional[int]] = [None] * n
    unplaced = set(range(n))
    depth = 0
    while unplaced:
        candidates = set(unplaced)
        changed = True
        while changed:
            changed = False
            for atom in atoms:
                vars_here = set(atom.positions)
                open_here = vars_here & unplaced
                feasible = list(atom.feasible_matches(layer))
                if not feasible:
                    return SatResult(False, None)
                if not (open_here & candidates):
                    continue
                admissible_union: set[int] = set()
                for z in feasible:
                    open_pos = [i for i, p in enumerate(atom.positions)
                                if p in unplaced]
                    low = min(z[i] for i in open_pos)
                    bottom = {atom.positions[i] for i in open_pos
                              if z[i] == low}
                    if bottom <= candidates:
                        admissible_union |= bottom
                drop = (open_here & candidates) - admissible_union
                if drop:
                    candidates -= drop
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
        induced = tuple(witness.ranks[p] for p in atom.positions)
        lo = sorted(set(induced))
        normalized = tuple(lo.index(r) for r in induced)
        if normalized not in set(atom.zeros):
            raise PreconditionError(
                "min-layer produced an invalid witness; the instance is "
                "outside the min-closed class")
    return SatResult(True, witness)


def forced_equalities(inst: CrispInstance,
                      cap: Optional[int] = None) -> tuple[tuple[str, str], ...]:
    """All variable pairs equal in every solution.

    Decided with one satisfiability probe per pair: (x, y) is forced
    exactly when the instance plus the disequality x ≠ y is unsatisfiable.
    The instance itself must be satisfiable.
    """
    base = solve_crisp_complete(inst, cap=cap)
    if not base.satisfiable:
        raise PreconditionError("forced equalities of an unsatisfiable instance")
    out = []
    vs = inst.variables
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            probe = inst.with_disequality(vs[i], vs[j])
            if not solve_crisp_complete(probe, cap=cap).satisfiable:
                out.append((vs[i], vs[j]))
    return tuple(out)
