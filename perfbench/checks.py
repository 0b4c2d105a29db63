"""Independent answer checks, run after the timed region.

Each check returns ``None`` when the answer is right and a one-line reason
when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Optional

import tvcsp as t
from tvcsp import files, solvers


def argmin_cost(structure, inst, cost: t.Cost, argmin) -> Optional[str]:
    """The reported argmin re-evaluates to the reported cost."""
    if argmin is None:
        return None if cost == t.INF else "finite cost, no argmin"
    again = solvers.evaluate(structure, inst, argmin)
    if again != cost:
        return f"argmin {argmin} evaluates to {again}, reported {cost}"
    return None


def against_oracle(structure, inst, cost: t.Cost) -> Optional[str]:
    ref = solvers.solve_oracle(structure, inst, cap=len(inst.variables))
    if ref.optimal_cost != cost:
        return f"oracle says {ref.optimal_cost}, got {cost}"
    return None


def fas_bruteforce(inst) -> int:
    """Fewest backward arcs over the n! linear orders."""
    arcs = [args for _, args in inst.atoms]
    best = len(arcs)
    for perm in permutations(inst.variables):
        pos = {v: i for i, v in enumerate(perm)}
        best = min(best, sum(1 for u, v in arcs if pos[u] >= pos[v]))
    return best


def set_partitions(items: list):
    """All set partitions, written here rather than taken from
    ``tvcsp.orders`` so that the check does not share code with the
    engine."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def cc_bruteforce(inst) -> int:
    """Correlation clustering cost minimized over all set partitions."""
    best = len(inst.atoms)
    for part in set_partitions(list(inst.variables)):
        block = {v: b for b, vs in enumerate(part) for v in vs}
        cost = sum(1 for name, (x, y) in inst.atoms
                   if (block[x] == block[y]) == (name == "neq01"))
        best = min(best, cost)
    return best


def expected_exact(kind: str, inst) -> int:
    return fas_bruteforce(inst) if kind == "fas" else cc_bruteforce(inst)


def cost_equals(out_cost: t.Cost, value) -> bool:
    return out_cost.is_finite and out_cost.fraction == Fraction(value)


def parse_cli_answer(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value.strip()
    return fields


def cli_answer(rung, stdout: str) -> Optional[str]:
    """A ``tvcsp solve`` answer matches the rung's optimum, route and
    re-evaluates at its argmin."""
    fields = parse_cli_answer(stdout)
    if fields.get("method") != rung.method:
        return f"method {fields.get('method')!r}, expected {rung.method!r}"
    try:
        cost = t.parse_cost(fields["optimal"])
        ranks = tuple(int(x) for x in fields["argmin"].strip("[]").split(","))
        witness = t.WeakOrder(ranks)
    except (KeyError, ValueError) as exc:
        return f"unreadable answer: {exc}"
    if not cost_equals(cost, rung.optimum):
        return f"optimal {cost}, expected {rung.optimum}"
    structure = files.parse_structure(rung.structure_text)
    inst = files.parse_instance(rung.instance_text, structure)
    return argmin_cost(structure, inst, cost, witness)
