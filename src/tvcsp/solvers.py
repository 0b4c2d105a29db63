"""Instance evaluation, the brute-force oracle, and the tractable solvers.

An instance is a finite sum of atoms over named relations (plus the
builtin ``eq`` and ``empty`` atoms) with an optional rational threshold.
Its cost at an assignment depends only on the weak order the assignment
induces on the variables, so the oracle minimizes over all weak orders.
The specialized solvers implement the polynomial algorithms of the
tractable classification cases and are cross-checked against the oracle in
the test suite.

Each tractable case has one solver, which checks its own precondition.
What solving derives from a relation alone (tester results, feasibility
relation, minors and their optima) is memoized on the relation, so a
precondition the classifier has already tested costs one lookup per
relation.  :func:`solve_dispatch` keeps the structure and verdict of
recently seen templates in a small cache keyed on structure content, so a
template sent again with a new instance is not classified again and its
solver reads the memos of the relations first classified.

The lex and essentially crisp solvers decide their crisp instances with
:func:`cspengine.solve_crisp`, which the witness's tag routes to a backend.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Sequence

from . import config
from .classify import (
    CONST_CASE,
    EQ_CONST_CASE,
    EQ_HARD_CASE,
    EQ_INJ_CASE,
    ESS_CRISP_CASE,
    HARD_CASE,
    LEX_CASE,
    Verdict,
    _first_preserver,
    classify_equality,
    classify_temporal,
)
from .canonops import CanonicalOp, OPS, improves
from .cost import Cost, INF, ZERO
from .cspengine import CrispInstance, forced_equalities, solve_crisp
from .errors import CapacityError, InvariantViolation, PreconditionError
from .orders import WeakOrder, bottom_order, canonical_ranks
# atom_relation and resolve_atoms are also read as solvers.<name>
from .relations import (
    Scaled,
    ValuedRelation,
    ValuedStructure,
    atom_relation,
    build_hat,
    feas_structure,
    resolve_atoms,
    unscaled,
    weak_order_totals,
)


@dataclass(frozen=True)
class Instance:
    """Sum of atoms ``(relation name, argument variables)`` over named
    variables, with an optional finite threshold."""

    variables: tuple[str, ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    threshold: Optional[Cost] = None

    def __post_init__(self):
        if not self.variables:
            raise ValueError("an instance needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variables")
        declared = set(self.variables)
        for name, args in self.atoms:
            if not set(args) <= declared:
                raise ValueError(f"atom {name!r} uses undeclared variables")
        if self.threshold is not None and not self.threshold.is_finite:
            raise ValueError("threshold must be finite")

    @staticmethod
    def from_atoms(atoms: Sequence[tuple[str, Sequence[str]]],
                   threshold: Optional[Cost] = None,
                   extra_vars: Sequence[str] = ()) -> "Instance":
        seen: list[str] = []
        for v in extra_vars:
            if v not in seen:
                seen.append(v)
        for _, args in atoms:
            for v in args:
                if v not in seen:
                    seen.append(v)
        # tuple() of a list, not of a generator: CPython builds a tuple from
        # a generator at a guessed size and resizes it, and the dead tuple
        # goes to the free list of its final size, which only tuples made
        # at an exact size drain.  Per-solve atom tuples made that way pile
        # up there, about 1 MB of peak memory over a long run of solves.
        return Instance(tuple(seen),
                        tuple([(n, tuple(a)) for n, a in atoms]), threshold)

    def with_threshold(self, threshold: Optional[Cost]) -> "Instance":
        """This instance deciding against ``threshold``; the instance
        itself, not a copy, when ``threshold`` is ``None``."""
        return self if threshold is None else replace(self, threshold=threshold)


@dataclass(frozen=True)
class SolveOutcome:
    optimal_cost: Cost
    argmin: Optional[WeakOrder]
    decision: Optional[bool]
    method: str
    note: str = ""

    def __str__(self) -> str:
        arg = str(self.argmin) if self.argmin is not None else "-"
        dec = ("" if self.decision is None
               else (" accept" if self.decision else " reject"))
        return f"cost={self.optimal_cost} argmin={arg} [{self.method}]{dec}"


def evaluate(structure: ValuedStructure, inst: Instance,
             w: WeakOrder) -> Cost:
    """Cost of the instance at an assignment with order type ``w``."""
    if w.arity != len(inst.variables):
        raise ValueError("witness arity does not match the variable count")
    denom, tables = structure.scaled
    rank = dict(zip(inst.variables, w.ranks))
    total: Scaled = 0
    for rel, args in resolve_atoms(structure, inst):
        total += tables[rel.name][canonical_ranks([rank[a] for a in args])]
    return unscaled(total, denom)


def _decide(cost: Cost, threshold: Optional[Cost]) -> Optional[bool]:
    return None if threshold is None else cost <= threshold


def solve_oracle(structure: ValuedStructure, inst: Instance,
                 cap: Optional[int] = None) -> SolveOutcome:
    """Exact minimum by enumeration of all weak orders on the variables.

    The sums come from :func:`relations.weak_order_totals`, which yields
    the weak orders in increasing rank order, so the first minimum is the
    least weak order attaining it: that is the reported argmin.
    """
    n = len(inst.variables)
    limit = config.oracle_cap() if cap is None else cap
    if n > limit:
        raise CapacityError("oracle enumeration", n,
                            config.SEARCH_CAP_NAME, limit)
    ranks, best = min(
        weak_order_totals(structure, inst, inst.variables, limit),
        key=itemgetter(1))
    cost = unscaled(best, structure.scaled[0])
    return SolveOutcome(cost, WeakOrder(ranks),
                        _decide(cost, inst.threshold), "oracle")


def solve_exact_layers(structure: ValuedStructure,
                       inst: Instance) -> SolveOutcome:
    """Exact minimum for instances whose atoms each use at most two
    distinct variables, by dynamic programming over the set of placed
    variables; same answer as :func:`solve_oracle`, argmin included.

    A weak order is built bottom-up, one layer at a time.  An atom on
    ``{x, y}`` is charged when the first of the two is placed: equal when
    both land in the same layer, ``<`` towards the one still unplaced.
    The cost of a layer ``L`` placed on ``S`` thus depends on ``L`` and
    the unplaced rest only, and the best completion of every ``S`` follows
    from those of its supersets: O(3ⁿ·n) steps instead of the ordered Bell
    number of ``n`` weak orders.  Each state also keeps the least
    completing rank vector (as base ``n + 1`` digits, the first variable
    most significant), so ties break exactly as in the oracle.  Atoms on
    one variable cost their all-equal entry wherever the assignment goes.
    Capped at ``config.layer_cap()`` variables.
    """
    n = len(inst.variables)
    limit = config.layer_cap()
    if n > limit:
        raise CapacityError("layer dynamic program", n,
                            config.SEARCH_CAP_NAME, limit)
    pos = {v: i for i, v in enumerate(inst.variables)}
    denom, tables = structure.scaled

    # below[x][y]: cost of the atoms on {x, y} when x < y; equal[x][y]
    # (x < y as indices): their cost when x = y
    below = [[0] * n for _ in range(n)]
    equal = [[0] * n for _ in range(n)]
    constant: Scaled = 0
    for rel, args in resolve_atoms(structure, inst):
        scaled = tables[rel.name]
        distinct = list(dict.fromkeys(args))
        if len(distinct) == 1:
            constant += scaled[(0,) * rel.arity]
            continue
        if len(distinct) > 2:
            raise PreconditionError(
                f"atom {rel.name!r} uses more than two distinct variables")
        a, b = distinct
        # both rank values occur whenever ra != rb: the keys are canonical
        lt, eq, gt = (scaled[tuple([ra if v == a else rb for v in args])]
                      for ra, rb in ((0, 1), (0, 0), (1, 0)))
        x, y = pos[a], pos[b]
        below[x][y] += lt
        below[y][x] += gt
        equal[min(x, y)][max(x, y)] += eq
    if constant == float("inf"):
        return SolveOutcome(INF, bottom_order(n),
                            _decide(INF, inst.threshold), "exactLayers")

    full = (1 << n) - 1
    members = [tuple(i for i in range(n) if m >> i & 1)
               for m in range(full + 1)]
    # within[L]: atoms inside layer L; under[x][T]: atoms from x up to T
    within = [sum(equal[x][y] for x in ms for y in ms if x < y)
              for ms in members]
    under = [[sum(below[x][y] for y in ms) for ms in members]
             for x in range(n)]
    base = n + 1
    digits = [sum(base ** (n - 1 - i) for i in ms) for ms in members]

    best: list[tuple[Scaled, int]] = [(0, 0)] * (full + 1)
    for placed in range(full - 1, -1, -1):
        rest = full ^ placed
        choice = None
        layer = rest
        while layer:
            above = rest ^ layer
            cost, vec = best[placed | layer]
            cand = (cost + within[layer]
                    + sum(under[x][above] for x in members[layer]),
                    vec + digits[above])
            if choice is None or cand < choice:
                choice = cand
            layer = (layer - 1) & rest
        best[placed] = choice

    total, vec = best[0]
    ranks = tuple(vec // base ** (n - 1 - i) % base for i in range(n))
    cost = unscaled(constant + total, denom)
    return SolveOutcome(cost, WeakOrder(ranks),
                        _decide(cost, inst.threshold), "exactLayers")


def solve_const(structure: ValuedStructure, inst: Instance,
                threshold: Optional[Cost] = None) -> SolveOutcome:
    """All-equal assignment; optimal whenever the constant operation
    improves the structure."""
    const0 = OPS["const0"]
    for rel in structure:
        if not improves(const0, rel):
            raise PreconditionError(
                f"constant operation does not improve {rel.name!r}")
    inst = inst.with_threshold(threshold)
    w = bottom_order(len(inst.variables))
    cost = evaluate(structure, inst, w)
    return SolveOutcome(cost, w, _decide(cost, inst.threshold), CONST_CASE)


class _UnionFind:
    def __init__(self, items: Sequence[str]):
        self.index = {v: i for i, v in enumerate(items)}
        self.parent = {v: v for v in items}

    def find(self, v: str) -> str:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.index[rb] < self.index[ra]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def roots(self) -> list[str]:
        """One root per class, in the declaration order of the classes'
        first members."""
        return list(dict.fromkeys([self.find(v) for v in self.index]))


def solve_equality_inj(structure: ValuedStructure, inst: Instance,
                       threshold: Optional[Cost] = None) -> SolveOutcome:
    """Propagation of forced equalities for equality-invariant structures
    improved by a binary injection.

    A pair of argument positions of an atom is glued when every finite
    entry of the atom's table consistent with the current identifications
    has them equal; gluing repeats to a fixpoint, after which any
    assignment injective on the surviving classes is optimal.  An atom
    whose arguments have collapsed to a single class rejects the instance
    when its all-equal entry is infinite.
    """
    inj = OPS["inj"]
    if not structure.equality_invariant:
        raise PreconditionError("structure is not equality-invariant")
    for rel in structure:
        if not improves(inj, rel):
            raise PreconditionError(
                f"binary injection does not improve {rel.name!r}")
    inst = inst.with_threshold(threshold)
    atoms = resolve_atoms(structure, inst)
    uf = _UnionFind(inst.variables)

    changed = True
    while changed:
        changed = False
        for rel, args in atoms:
            cargs = tuple(uf.find(a) for a in args)
            if len(set(cargs)) == 1:
                if not rel.table[bottom_order(rel.arity)].is_finite:
                    return SolveOutcome(INF, None,
                                        _decide(INF, inst.threshold),
                                        EQ_INJ_CASE)
                continue
            consistent = [
                w for w in rel.feasibility.zeros() if all(
                    (cargs[p] != cargs[q]) or (w.ranks[p] == w.ranks[q])
                    for p in range(rel.arity) for q in range(p + 1, rel.arity))
            ]
            if not consistent:
                # vacuously every pair is glued in all finite entries
                first = cargs[0]
                for other in cargs[1:]:
                    changed |= uf.union(first, other)
                continue
            for p in range(rel.arity):
                for q in range(p + 1, rel.arity):
                    if cargs[p] == cargs[q]:
                        continue
                    if all(w.ranks[p] == w.ranks[q] for w in consistent):
                        changed |= uf.union(cargs[p], cargs[q])

    rank = {r: i for i, r in enumerate(uf.roots())}
    w = WeakOrder(tuple(rank[uf.find(v)] for v in inst.variables))
    cost = evaluate(structure, inst, w)
    return SolveOutcome(cost, w, _decide(cost, inst.threshold), EQ_INJ_CASE)


def _feas_instance(atoms, variables) -> CrispInstance:
    """The crisp instance of the atoms' feasibility relations."""
    # a list first: see Instance.from_atoms
    return CrispInstance(
        tuple(variables),
        tuple([(rel.feasibility, args) for rel, args in atoms]))


def _lex_minor(rel: ValuedRelation, blocks: tuple[tuple[int, ...], ...]
               ) -> tuple[Cost, ValuedRelation]:
    """The unique finite injective value of the minor of ``rel`` that
    identifies each block of positions, and the minor's optimum relation;
    :class:`InvariantViolation` when lex cannot improve the minor."""
    sub = rel.minor_at(blocks)
    inj_vals = sub.injective_values
    if len(inj_vals) > 1:
        raise InvariantViolation(
            f"finite injective entries of {sub.name!r} disagree; "
            "lex improvement cannot hold")
    if not inj_vals:
        raise InvariantViolation(
            f"{sub.name!r} has no finite injective entry after forced "
            "equalities; lex improvement cannot hold")
    if sub.finite_values()[0] != inj_vals[0]:
        raise InvariantViolation(
            f"{sub.name!r} undercuts its injective value; "
            "lex improvement cannot hold")
    return inj_vals[0], sub.optimum


def solve_lex(structure: ValuedStructure, inst: Instance,
              threshold: Optional[Cost] = None,
              witness: Optional[CanonicalOp] = None) -> SolveOutcome:
    """Optimum for structures improved by lex whose derived crisp structure
    is preserved by one of the eight catalog operations.

    Plan: decide feasibility; contract the equalities forced by the
    feasibility relations; per atom, identify repeated variables into a
    minor, read off its unique finite injective value and its
    minimal-value relation; the optimum is the sum of those values when
    the crisp instance of minimal-value atoms is satisfiable.
    """
    lex = OPS["lex"]
    for rel in structure:
        if not improves(lex, rel):
            raise PreconditionError(f"lex does not improve {rel.name!r}")
    if witness is None:
        witness = _first_preserver(build_hat(structure))
        if witness is None:
            raise PreconditionError(
                "no catalog operation preserves the derived crisp structure")
    inst = inst.with_threshold(threshold)
    atoms = resolve_atoms(structure, inst)
    tag = witness.tag

    feas_inst = _feas_instance(atoms, inst.variables)
    base = solve_crisp(feas_inst, tag)
    if not base.satisfiable:
        return SolveOutcome(INF, None, _decide(INF, inst.threshold), LEX_CASE)

    forced = forced_equalities(feas_inst, witness=base.witness,
                               witness_tag=tag)
    uf = _UnionFind(inst.variables)
    for x, y in forced:
        uf.union(x, y)
    reps = uf.roots()

    total = ZERO
    crisp_atoms = []
    for rel, args in atoms:
        cargs = tuple(uf.find(a) for a in args)
        distinct: list[str] = []
        for a in cargs:
            if a not in distinct:
                distinct.append(a)
        blocks = tuple(tuple(p + 1 for p, a in enumerate(cargs) if a == d)
                       for d in distinct)
        m_j, optimum = _lex_minor(rel, blocks)
        total = total + m_j
        crisp_atoms.append((optimum, tuple(distinct)))

    psi = CrispInstance(tuple(reps), tuple(crisp_atoms))
    res = solve_crisp(psi, tag)
    if not res.satisfiable:
        return SolveOutcome(INF, None, _decide(INF, inst.threshold), LEX_CASE)
    rep_rank = {r: res.witness.ranks[i] for i, r in enumerate(reps)}
    w = WeakOrder(tuple(rep_rank[uf.find(v)] for v in inst.variables))
    return SolveOutcome(total, w, _decide(total, inst.threshold), LEX_CASE)


def solve_essentially_crisp(structure: ValuedStructure, inst: Instance,
                            threshold: Optional[Cost] = None,
                            witness: Optional[CanonicalOp] = None
                            ) -> SolveOutcome:
    """Feasibility check plus the fixed per-atom finite values: an
    essentially crisp relation is its feasibility relation shifted by its
    unique finite value."""
    if not structure.essentially_crisp:
        raise PreconditionError("structure is not essentially crisp")
    if witness is None:
        witness = _first_preserver(feas_structure(structure))
        if witness is None:
            raise PreconditionError(
                "no catalog operation preserves the feasibility structure")
    inst = inst.with_threshold(threshold)
    atoms = resolve_atoms(structure, inst)
    res = solve_crisp(_feas_instance(atoms, inst.variables), witness.tag)
    if not res.satisfiable:
        return SolveOutcome(INF, None, _decide(INF, inst.threshold),
                            ESS_CRISP_CASE)
    total = ZERO
    for rel, _ in atoms:
        total = total + rel.finite_values()[0]
    return SolveOutcome(total, res.witness,
                        _decide(total, inst.threshold), ESS_CRISP_CASE)


_FALLBACK_NOTE = ("template classified NP-complete; exact answer computed "
                  "by exponential {}")

#: Plans (structure and verdict) :func:`solve_dispatch` keeps; the least
#: recently used goes first.
PLAN_CACHE_SIZE = 32

_PLANS: OrderedDict[tuple, tuple[ValuedStructure, Verdict]] = OrderedDict()
_PLANS_LOCK = threading.Lock()


def _plan_for(structure: ValuedStructure
              ) -> tuple[ValuedStructure, Verdict]:
    """The cached structure of the structure's content, which stands in for
    every content-equal copy, and its verdict; classifies on a miss."""
    key = structure.content_key
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            return plan
    if structure.equality_invariant:
        verdict = classify_equality(structure)
    else:
        verdict = classify_temporal(structure)
    plan = (structure, verdict)
    with _PLANS_LOCK:
        _PLANS[key] = plan
        if len(_PLANS) > PLAN_CACHE_SIZE:
            _PLANS.popitem(last=False)
    return plan


def solve_dispatch(structure: ValuedStructure, inst: Instance,
                   threshold: Optional[Cost] = None
                   ) -> tuple[SolveOutcome, Verdict]:
    """Classify, then route to the matching solver.

    Equality-invariant structures go through the equality classification
    so both code paths stay exercised.  The verdict comes from the plan
    cache, which holds it with the first structure of the same content for
    up to ``PLAN_CACHE_SIZE`` contents, and the solver runs on that
    structure.  The verdict's tests are exactly the preconditions of the
    tractable solvers, and their results are memoized on its relations, so
    the solvers' own checks are lookups; the witness is handed over.  Hard
    templates fall back to an exact exponential method, with an explicit
    warning in the outcome: the layer dynamic program when every atom uses
    at most two distinct variables, the oracle otherwise.
    """
    structure, verdict = _plan_for(structure)
    inst = inst.with_threshold(threshold)

    if verdict.case in (CONST_CASE, EQ_CONST_CASE):
        out = replace(solve_const(structure, inst), method=verdict.case)
    elif verdict.case == EQ_INJ_CASE:
        out = solve_equality_inj(structure, inst)
    elif verdict.case == LEX_CASE:
        out = solve_lex(structure, inst, witness=verdict.witness)
    elif verdict.case == ESS_CRISP_CASE:
        out = solve_essentially_crisp(structure, inst,
                                      witness=verdict.witness)
    else:
        assert verdict.case in (HARD_CASE, EQ_HARD_CASE)
        if all(len(set(args)) <= 2 for _, args in inst.atoms):
            out = solve_exact_layers(structure, inst)
            how = "dynamic programming over layers"
        else:
            out = solve_oracle(structure, inst)
            how = "enumeration of weak orders"
        out = replace(out, method="oracleFallback",
                      note=_FALLBACK_NOTE.format(how))
    return out, verdict
