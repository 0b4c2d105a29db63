"""Seeded inputs for the three workloads.

Requests are text, the way a client would send them: a structure file and
an instance file.  Instance text is written here directly, so making inputs
costs little and calls no tvcsp code; structure text comes from
``serialize_structure`` once per template, at set-up.

Every generated instance is feasible, so every request has a finite
optimum: atoms are kept only when a hidden assignment gives them a finite
cost.  Ladder instances additionally carry their optimum, known by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tvcsp as t
from tvcsp import files

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"


def canon(values) -> tuple[int, ...]:
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def instance_text(variables, atoms) -> str:
    used = {v for _, args in atoms for v in args}
    lines = ["instance"]
    lone = [v for v in variables if v not in used]
    if lone:
        lines.append("vars " + " ".join(lone))
    lines.extend(f"atom {name} " + " ".join(args) for name, args in atoms)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

def r3_one_sided() -> t.ValuedRelation:
    """Injective triples cost 0, ``x = y < z`` costs 1, the rest ∞.

    Not equality-invariant, so dispatch takes the temporal classifier:
    lexCase with witness miDual.
    """
    def fn(w: t.WeakOrder) -> t.Cost:
        if w.is_injective():
            return t.ZERO
        r = w.ranks
        return t.Cost(1) if r[0] == r[1] < r[2] else t.INF
    return t.relation_from_fn("R3o", 3, fn)


def x_lowest() -> t.ValuedRelation:
    """Cost 1 when x is a minimum of (x, y, z) and not all are equal.

    Closed under max but not min: essentiallyCrispCase, witness max.
    """
    zeros = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 2, 1)]
    crisp = t.crisp_relation("Xlow", 3, [t.WeakOrder(z) for z in zeros])
    return t.shift(crisp, 1, name="Xlow")


def corpus_structure(name: str) -> t.ValuedStructure:
    return files.parse_structure(
        (CORPUS / f"{name}.structure").read_text("utf-8"))


@dataclass
class Template:
    name: str
    structure: t.ValuedStructure
    case: str
    witness: Optional[str]
    method: str
    sizes: tuple[int, ...]

    def __post_init__(self):
        self.text = files.serialize_structure(self.structure)
        self.rels = [(r.name, r.arity) for r in self.structure]
        self.finite = {r.name: {w.ranks for w, c in r.table.items()
                                if c.is_finite} for r in self.structure}


TRACTABLE = (3, 4, 5, 6, 7)
HARD = (3, 4)


def _s(*names: str) -> t.ValuedStructure:
    return t.ValuedStructure([t.named_relation(n) for n in names])


def dispatch_pool() -> list[Template]:
    """About a dozen templates covering every verdict case of dispatch."""
    T = Template
    return [
        T("const-leq01", _s("leq01"), "constCase", None, "constCase",
          TRACTABLE),
        T("const-rmix", _s("Rmix"), "constCase", None, "constCase",
          TRACTABLE),
        T("eqconst-eq01", _s("eq01"), "eqConstCase", None, "eqConstCase",
          TRACTABLE),
        T("eqinj-r3", corpus_structure("merge-cost"), "eqInjCase", None,
          "eqInjCase", TRACTABLE),
        T("eqinj-neq01", _s("neq01"), "eqInjCase", None, "eqInjCase",
          TRACTABLE),
        T("lex-r3o", t.ValuedStructure([r3_one_sided(),
                                        t.named_relation("neq01")]),
          "lexCase", "miDual", "lexCase", TRACTABLE),
        T("lex-neq-lt", _s("neq01", "ltInf"), "lexCase", "mi", "lexCase",
          TRACTABLE),
        T("ess-min", corpus_structure("point-order"), "essentiallyCrispCase",
          "min", "essentiallyCrispCase", TRACTABLE),
        T("ess-max", t.ValuedStructure([x_lowest()]), "essentiallyCrispCase",
          "max", "essentiallyCrispCase", TRACTABLE),
        T("ess-mi", _s("neqInf", "ltInf"), "essentiallyCrispCase", "mi",
          "essentiallyCrispCase", TRACTABLE),
        T("hard-fas", corpus_structure("fas"), "hardCase", None,
          "oracleFallback", HARD),
        T("hard-betw", _s("Betw"), "hardCase", None, "oracleFallback", HARD),
        T("hard-cc", _s("eq01", "neq01"), "eqHardCase", None,
          "oracleFallback", HARD),
    ]


def planted_instance(rng: random.Random, tmpl: Template, n: int) -> str:
    """``n`` variables, ``n``–``2n`` atoms, feasible under a hidden weak
    order; arguments may repeat a variable."""
    variables = [f"v{i}" for i in range(n)]
    hidden = [rng.randrange(n) for _ in range(n)]
    atoms = []
    for _ in range(rng.randint(n, 2 * n)):
        for _try in range(20):
            name, arity = rng.choice(tmpl.rels)
            idx = [rng.randrange(n) for _ in range(arity)]
            if canon([hidden[i] for i in idx]) in tmpl.finite[name]:
                atoms.append((name, tuple(variables[i] for i in idx)))
                break
    return instance_text(variables, atoms)


@dataclass(frozen=True)
class Request:
    kind: str
    n: int
    structure_text: str
    instance_text: str


class DispatchStream:
    """Endless seeded stream: uniform template choice, uniform size."""

    def __init__(self, seed: int, pool: list[Template]):
        self.rng = random.Random(f"dispatch-mix/{seed}")
        self.pool = pool

    def next(self) -> Request:
        tmpl = self.rng.choice(self.pool)
        n = self.rng.choice(tmpl.sizes)
        return Request(tmpl.name, n, tmpl.text,
                       planted_instance(self.rng, tmpl, n))


# ---------------------------------------------------------------------------
# oracle-hard: feedback arc set and correlation clustering
# ---------------------------------------------------------------------------

def fas_structure_text() -> str:
    structure, _, _ = files.gen_feedback_arc_set([("a", "b")])
    return files.serialize_structure(structure)


def random_digraph(rng: random.Random, n: int, arcs: int):
    out = []
    while len(out) < arcs:
        u, v = rng.sample(range(n), 2)
        out.append((f"v{u}", f"v{v}"))
    return out


def random_cc_atoms(rng: random.Random, n: int, count: int):
    out = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        out.append((rng.choice(("eq01", "neq01")), (f"v{u}", f"v{v}")))
    return out


#: Request pattern of oracle-hard, repeated: two thirds of the requests
#: are at n = 6, so the median and the tail fall in different size classes
#: whatever the run length.
ORACLE_PATTERN = (("fas", 6), ("cc", 6), ("fas", 7), ("cc", 6), ("fas", 6),
                  ("cc", 7))


class OracleStream:
    def __init__(self, seed: int):
        self.rng = random.Random(f"oracle-hard/{seed}")
        self.i = 0
        self.fas_text = fas_structure_text()
        self.cc_text = files.serialize_structure(_s("eq01", "neq01"))

    def next(self) -> Request:
        kind, n = ORACLE_PATTERN[self.i % len(ORACLE_PATTERN)]
        self.i += 1
        variables = [f"v{i}" for i in range(n)]
        if kind == "fas":
            atoms = [("lt01", arc)
                     for arc in random_digraph(self.rng, n, 2 * n)]
            text = self.fas_text
        else:
            atoms = random_cc_atoms(self.rng, n, 2 * n)
            text = self.cc_text
        return Request(kind, n, text, instance_text(variables, atoms))


# ---------------------------------------------------------------------------
# scale-ladder: one route per template, optimum known by construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rung:
    route: str
    n: int
    structure_text: str
    instance_text: str
    optimum: int
    method: str


DOUBLING = (4, 8, 16, 32, 64)
ORACLE_RUNGS = (5, 6, 7, 8, 9)


def _perm(rng: random.Random, n: int) -> list[str]:
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    return names


def _forward_pairs(rng: random.Random, order: list[str], count: int):
    out = []
    for _ in range(count):
        i, j = sorted(rng.sample(range(len(order)), 2))
        out.append((order[i], order[j]))
    return out


def rung_ess_min(rng, n):
    """Point-order DAG consistent with a hidden linear order; each
    ``lt_plus2`` atom costs exactly 2."""
    order = _perm(rng, n)
    atoms = [(rng.choice(("ltInf", "lt_plus2")), pair)
             for pair in _forward_pairs(rng, order, 2 * n)]
    opt = 2 * sum(1 for name, _ in atoms if name == "lt_plus2")
    return corpus_structure("point-order"), atoms, opt, \
        "essentiallyCrispCase"


def rung_ess_mi(rng, n):
    """``neqInf``/``ltInf`` atoms true at a hidden weak order: optimum 0."""
    names = [f"v{i}" for i in range(n)]
    levels = max(2, n // 2)
    hidden = {v: i % levels for i, v in enumerate(_perm(rng, n))}
    atoms = []
    while len(atoms) < 2 * n:
        x, y = rng.sample(names, 2)
        if hidden[x] < hidden[y]:
            atoms.append((rng.choice(("neqInf", "ltInf")), (x, y)))
        elif hidden[x] != hidden[y]:
            atoms.append(("neqInf", (x, y)))
    return _s("neqInf", "ltInf"), atoms, 0, "essentiallyCrispCase"


def rung_lex(rng, n):
    """One-sided R3 and ``neq01`` along a hidden linear order.  Each
    ``R3o(a, a, c)`` atom costs at least 1 and exactly 1 there; every
    other atom costs 0 at an injective assignment."""
    order = _perm(rng, n)
    atoms = [("R3o", (order[i], order[i + 1], order[i + 2]))
             for i in range(n - 2)]
    repeated = [("R3o", (a, a, c))
                for a, c in _forward_pairs(rng, order, max(1, n // 4))]
    atoms += repeated
    atoms += [("neq01", tuple(rng.sample(order, 2))) for _ in range(n // 2)]
    structure = t.ValuedStructure([r3_one_sided(), t.named_relation("neq01")])
    return structure, atoms, len(repeated), "lexCase"


def rung_eq_inj(rng, n):
    """Merge-cost R3 chains; each ``R3(a, a, c)`` atom costs exactly 1."""
    names = [f"v{i}" for i in range(n)]
    atoms = [("R3", (names[i], names[i + 1], names[i + 2]))
             for i in range(n - 2)]
    repeated = [("R3", (a, a, c)) for a, c in
                (rng.sample(names, 2) for _ in range(max(1, n // 4)))]
    atoms += repeated
    return corpus_structure("merge-cost"), atoms, len(repeated), "eqInjCase"


def rung_const(rng, n):
    """``eq01`` atoms: the all-equal assignment costs 0."""
    names = [f"v{i}" for i in range(n)]
    atoms = [("eq01", tuple(rng.sample(names, 2))) for _ in range(2 * n)]
    return _s("eq01"), atoms, 0, "eqConstCase"


def rung_oracle(rng, n):
    """Feedback arc set with 2n arcs: ``n // 2`` planted 3-cycles, each
    closed by one backward arc, plus forward arcs of a hidden order.  The
    cycles are arc-disjoint, so the optimum is exactly ``n // 2``."""
    order = _perm(rng, n)
    arcs = []
    cycles = n // 2
    for _ in range(cycles):
        a, b, c = sorted(rng.sample(range(n), 3))
        arcs += [(order[a], order[b]), (order[b], order[c]),
                 (order[c], order[a])]
    arcs += _forward_pairs(rng, order, 2 * n - len(arcs))
    rng.shuffle(arcs)
    structure, _, _ = files.gen_feedback_arc_set(arcs)
    return structure, [("lt01", arc) for arc in arcs], cycles, \
        "oracleFallback"


ROUTES = {
    "essCrisp-min": (rung_ess_min, DOUBLING),
    "essCrisp-mi": (rung_ess_mi, DOUBLING),
    "lex": (rung_lex, DOUBLING),
    "eqInj": (rung_eq_inj, DOUBLING),
    "const": (rung_const, DOUBLING),
    "oracle": (rung_oracle, ORACLE_RUNGS),
}

#: The solver whose span carries each route's own work.
ROUTE_SOLVER = {
    "essCrisp-min": "solvers.solve_essentially_crisp",
    "essCrisp-mi": "solvers.solve_essentially_crisp",
    "lex": "solvers.solve_lex",
    "eqInj": "solvers.solve_equality_inj",
    "const": "solvers.solve_const",
    "oracle": "solvers.solve_oracle",
}


def ladder(seed: int) -> dict[str, list[Rung]]:
    out = {}
    for route, (build, sizes) in ROUTES.items():
        rungs = []
        for n in sizes:
            rng = random.Random(f"scale-ladder/{seed}/{route}/{n}")
            structure, atoms, opt, method = build(rng, n)
            variables = [f"v{i}" for i in range(n)]
            rungs.append(Rung(route, n, files.serialize_structure(structure),
                              instance_text(variables, atoms), opt, method))
        out[route] = rungs
    return out
