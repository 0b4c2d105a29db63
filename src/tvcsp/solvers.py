"""Instance evaluation, the brute-force oracle, and the tractable solvers.

An instance is a finite sum of atoms over named relations (plus the
builtin ``eq`` and ``empty`` atoms) with an optional rational threshold.
Its cost at an assignment depends only on the weak order the assignment
induces on the variables, so the oracle minimizes over all weak orders.
The specialized solvers implement the polynomial algorithms of the
tractable classification cases and are cross-checked against the oracle in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

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
    classify_equality,
    classify_temporal,
)
from .canonops import CLASSIFIER_OPS, CanonicalOp, OPS, improves, preserves
from .cost import Cost, INF, ZERO
from .cspengine import (
    CrispInstance,
    SatResult,
    forced_equalities,
    solve_crisp_complete,
    solve_crisp_minlayer,
)
from .errors import CapacityError, InvariantViolation, PreconditionError
from .orders import WeakOrder, bottom_order, canonical_ranks, enumerate_weak_orders
from .relations import (
    BUILTIN_EMPTY,
    BUILTIN_EQ,
    ValuedRelation,
    ValuedStructure,
    build_hat,
    feas,
    feas_structure,
    minor,
    opt,
    rel_abg,
    relation_from_fn,
)

_EQ_REL = rel_abg(ZERO, INF, INF, name=BUILTIN_EQ)
_EMPTY_REL = relation_from_fn(BUILTIN_EMPTY, 1, lambda w: INF)


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
        return Instance(tuple(seen),
                        tuple((n, tuple(a)) for n, a in atoms), threshold)


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


def atom_relation(structure: ValuedStructure, name: str) -> ValuedRelation:
    """Resolve an atom name against the structure or the builtins."""
    if name == BUILTIN_EQ:
        return _EQ_REL
    if name == BUILTIN_EMPTY:
        return _EMPTY_REL
    return structure.get(name)


def resolve_atoms(structure: ValuedStructure, inst: Instance
                  ) -> list[tuple[ValuedRelation, tuple[str, ...]]]:
    out = []
    for name, args in inst.atoms:
        rel = atom_relation(structure, name)
        if len(args) != rel.arity:
            raise ValueError(
                f"atom {name!r} expects {rel.arity} arguments, got {len(args)}")
        out.append((rel, args))
    return out


def evaluate(structure: ValuedStructure, inst: Instance,
             w: WeakOrder) -> Cost:
    """Cost of the instance at an assignment with order type ``w``."""
    if w.arity != len(inst.variables):
        raise ValueError("witness arity does not match the variable count")
    pos = {v: i for i, v in enumerate(inst.variables)}
    total = ZERO
    for rel, args in resolve_atoms(structure, inst):
        ranks = tuple(w.ranks[pos[a]] for a in args)
        total = total + rel.table[WeakOrder(canonical_ranks(ranks))]
        if total == INF:
            return INF
    return total


def _decide(cost: Cost, threshold: Optional[Cost]) -> Optional[bool]:
    return None if threshold is None else cost <= threshold


def _scaled_tables(rels: Sequence[ValuedRelation]
                   ) -> tuple[int, list[dict[WeakOrder, Union[int, float]]]]:
    """The tables of ``rels`` rescaled to one common denominator.

    Finite costs become plain integers and ``∞`` the float infinity, which
    is exact: finite sums never leave the integers and the infinity is
    absorbing.  Returns the denominator and one scaled table per relation.
    """
    denom = 1
    for rel in rels:
        for c in rel.table.values():
            if c.is_finite:
                denom = lcm(denom, c.fraction.denominator)
    inf = float("inf")
    return denom, [
        {w: (inf if not c.is_finite else int(c.fraction * denom))
         for w, c in rel.table.items()}
        for rel in rels]


def _unscaled(total: Union[int, float], denom: int) -> Cost:
    return INF if total == float("inf") else Cost(Fraction(int(total), denom))


def solve_oracle(structure: ValuedStructure, inst: Instance,
                 cap: Optional[int] = None) -> SolveOutcome:
    """Exact minimum by enumeration of all weak orders on the variables.

    The inner loop runs on the integer tables of :func:`_scaled_tables`.
    The reported argmin is the least weak order attaining the minimum.
    """
    n = len(inst.variables)
    limit = config.oracle_cap() if cap is None else cap
    if n > limit:
        raise CapacityError("oracle enumeration", n,
                            config.SEARCH_CAP_NAME, limit)
    atoms = resolve_atoms(structure, inst)
    pos = {v: i for i, v in enumerate(inst.variables)}
    denom, tables = _scaled_tables([rel for rel, _ in atoms])

    compiled = []
    for scaled, (_, args) in zip(tables, atoms):
        table: dict[tuple[int, ...], Union[int, float]] = {}
        compiled.append((scaled, tuple(pos[a] for a in args), table))

    inf = float("inf")
    best: Union[int, float, None] = None
    best_ranks: Optional[tuple[int, ...]] = None
    for w in enumerate_weak_orders(n, cap=limit):
        ranks = w.ranks
        total: Union[int, float] = 0
        for scaled, positions, memo in compiled:
            key = tuple(ranks[p] for p in positions)
            c = memo.get(key)
            if c is None:
                c = scaled[WeakOrder(canonical_ranks(key))]
                memo[key] = c
            total += c
            if total == inf:
                break
        if best is None or total < best:
            best = total
            best_ranks = ranks

    assert best is not None and best_ranks is not None
    cost = _unscaled(best, denom)
    return SolveOutcome(cost, WeakOrder(best_ranks),
                        _decide(cost, inst.threshold), "oracle")


def solve_exact_layers(structure: ValuedStructure, inst: Instance,
                       cap: Optional[int] = None) -> SolveOutcome:
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
    Shares the oracle's cap.
    """
    n = len(inst.variables)
    limit = config.oracle_cap() if cap is None else cap
    if n > limit:
        raise CapacityError("layer dynamic program", n,
                            config.SEARCH_CAP_NAME, limit)
    atoms = resolve_atoms(structure, inst)
    pos = {v: i for i, v in enumerate(inst.variables)}
    denom, tables = _scaled_tables([rel for rel, _ in atoms])

    # below[x][y]: cost of the atoms on {x, y} when x < y; equal[x][y]
    # (x < y as indices): their cost when x = y
    below = [[0] * n for _ in range(n)]
    equal = [[0] * n for _ in range(n)]
    constant: Union[int, float] = 0
    for scaled, (rel, args) in zip(tables, atoms):
        distinct = list(dict.fromkeys(args))
        if len(distinct) == 1:
            constant += scaled[bottom_order(rel.arity)]
            continue
        if len(distinct) > 2:
            raise PreconditionError(
                f"atom {rel.name!r} uses more than two distinct variables")
        a, b = distinct
        lt, eq, gt = (scaled[WeakOrder(tuple(ra if v == a else rb
                                             for v in args))]
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

    best: list[tuple[Union[int, float], int]] = [(0, 0)] * (full + 1)
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
    cost = _unscaled(constant + total, denom)
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
    inst = replace(inst, threshold=threshold or inst.threshold)
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
    inst = replace(inst, threshold=threshold or inst.threshold)
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
                w for w, c in rel.table.items() if c.is_finite and all(
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

    reps = []
    for v in inst.variables:
        r = uf.find(v)
        if r not in reps:
            reps.append(r)
    rank = {r: i for i, r in enumerate(reps)}
    w = WeakOrder(tuple(rank[uf.find(v)] for v in inst.variables))
    cost = evaluate(structure, inst, w)
    return SolveOutcome(cost, w, _decide(cost, inst.threshold), EQ_INJ_CASE)


def _pick_backend(witness: Optional[CanonicalOp]):
    """Crisp backend matching the witness operation: the greedy min-layer
    procedure when the witness is min or max, the complete one otherwise.
    Closure re-checks are skipped; the caller guarantees preservation."""
    if witness is not None and witness.tag in ("min", "max"):
        direction = witness.tag

        def run(ci: CrispInstance) -> SatResult:
            return solve_crisp_minlayer(ci, direction, check_closure=False)

        return run
    return solve_crisp_complete


def _feas_instance(atoms, variables) -> CrispInstance:
    return CrispInstance(
        tuple(variables),
        tuple((feas(rel), args) for rel, args in atoms))


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
        hat = build_hat(structure)
        for op in CLASSIFIER_OPS:
            if all(preserves(op, rel) for rel in hat):
                witness = op
                break
        if witness is None:
            raise PreconditionError(
                "no catalog operation preserves the derived crisp structure")
    inst = replace(inst, threshold=threshold or inst.threshold)
    atoms = resolve_atoms(structure, inst)
    backend = _pick_backend(witness)

    feas_inst = _feas_instance(atoms, inst.variables)
    if not backend(feas_inst).satisfiable:
        return SolveOutcome(INF, None, _decide(INF, inst.threshold), LEX_CASE)

    forced = forced_equalities(feas_inst)
    uf = _UnionFind(inst.variables)
    for x, y in forced:
        uf.union(x, y)
    reps = []
    for v in inst.variables:
        r = uf.find(v)
        if r not in reps:
            reps.append(r)

    total = ZERO
    crisp_atoms = []
    for rel, args in atoms:
        cargs = tuple(uf.find(a) for a in args)
        distinct: list[str] = []
        for a in cargs:
            if a not in distinct:
                distinct.append(a)
        blocks = [[p + 1 for p, a in enumerate(cargs) if a == d]
                  for d in distinct]
        sub = minor(rel, blocks)
        inj_vals = {sub.table[w] for w in enumerate_weak_orders(sub.arity)
                    if w.is_injective() and sub.table[w].is_finite}
        if len(inj_vals) > 1:
            raise InvariantViolation(
                f"finite injective entries of {sub.name!r} disagree; "
                "lex improvement cannot hold")
        if not inj_vals:
            raise InvariantViolation(
                f"{sub.name!r} has no finite injective entry after forced "
                "equalities; lex improvement cannot hold")
        m_j = inj_vals.pop()
        finite = [c for c in sub.table.values() if c.is_finite]
        if min(finite) != m_j:
            raise InvariantViolation(
                f"{sub.name!r} undercuts its injective value; "
                "lex improvement cannot hold")
        total = total + m_j
        crisp_atoms.append((opt(sub), tuple(distinct)))

    psi = CrispInstance(tuple(reps), tuple(crisp_atoms))
    res = backend(psi)
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
        fs = feas_structure(structure)
        for op in CLASSIFIER_OPS:
            if all(preserves(op, rel) for rel in fs):
                witness = op
                break
        if witness is None:
            raise PreconditionError(
                "no catalog operation preserves the feasibility structure")
    inst = replace(inst, threshold=threshold or inst.threshold)
    atoms = resolve_atoms(structure, inst)
    backend = _pick_backend(witness)

    res = backend(_feas_instance(atoms, inst.variables))
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


def solve_dispatch(structure: ValuedStructure, inst: Instance,
                   threshold: Optional[Cost] = None
                   ) -> tuple[SolveOutcome, Verdict]:
    """Classify, then route to the matching solver.

    Equality-invariant structures go through the equality classification
    so both code paths stay exercised.  Hard templates fall back to an
    exact exponential method, with an explicit warning in the outcome:
    the layer dynamic program when every atom uses at most two distinct
    variables, the oracle otherwise.
    """
    if structure.equality_invariant:
        verdict = classify_equality(structure)
    else:
        verdict = classify_temporal(structure)
    inst = replace(inst, threshold=threshold or inst.threshold)

    if verdict.case in (CONST_CASE, EQ_CONST_CASE):
        out = solve_const(structure, inst)
        out = replace(out, method=verdict.case)
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
