"""Command-line surface.

Exit codes: 0 = answered, 1 = rejected/unsat decision, 2 = input error,
3 = capacity error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .canonops import OPS, improves, preserves
from .classify import classify_temporal
from .cost import INF, parse_cost
from .errors import CapacityError, ParseError, TvcspError
from .files import (
    gen_feedback_arc_set,
    parse_expression,
    parse_instance,
    parse_structure,
    serialize_instance,
    serialize_relation,
    serialize_structure,
)
from .relations import build_hat, eval_expression, feas, opt, scale, shift
from .solvers import solve_dispatch, solve_oracle

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TvcspError(f"cannot read {path}: {exc}") from exc


def _load_structure(path: str):
    return parse_structure(_read(path))


def _cmd_classify(args) -> int:
    verdict = classify_temporal(_load_structure(args.structure))
    print(f"complexity: {verdict.complexity}")
    print(f"case: {verdict.case}")
    print(f"witness: {verdict.witness or '-'}")
    if verdict.note:
        print(f"note: {verdict.note}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    structure = _load_structure(args.structure)
    inst = parse_instance(_read(args.instance), structure)
    threshold = parse_cost(args.threshold) if args.threshold else None
    if threshold is not None and not threshold.is_finite:
        raise TvcspError("threshold must be finite")
    if args.backend == "oracle":
        out = solve_oracle(structure, inst.with_threshold(threshold))
    else:
        out, _ = solve_dispatch(structure, inst, threshold=threshold)
    print(f"optimal: {out.optimal_cost}")
    print(f"argmin: {out.argmin if out.argmin is not None else '-'}")
    print(f"method: {out.method}")
    if out.decision is not None:
        print(f"decision: {'accept' if out.decision else 'reject'}")
    if out.note:
        print(f"note: {out.note}")
    if out.decision is not None:
        return EXIT_OK if out.decision else EXIT_REJECTED
    return EXIT_OK if out.optimal_cost != INF else EXIT_REJECTED


def _cmd_check(args) -> int:
    structure = _load_structure(args.structure)
    try:
        op = OPS[args.op]
    except KeyError:
        raise TvcspError(f"unknown operation {args.op!r}; choose from "
                         f"{', '.join(OPS)}") from None
    rels = [structure.get(args.relation)] if args.relation else \
        list(structure.relations)
    tester = preserves if args.mode == "preserve" else improves
    for rel in rels:
        res = tester(op, rel)
        if res.ok:
            print(f"{rel.name}: true")
        else:
            c = res.counterexample
            print(f"{rel.name}: false s={c.s_order} t={c.t_order} "
                  f"cost={c.lhs_cost} bound={c.rhs_bound}")
    return EXIT_OK


def _cmd_expr(args) -> int:
    structure = _load_structure(args.structure)
    expr = parse_expression(_read(args.expr), structure)
    rel = eval_expression(structure, expr)
    if args.shift:
        rel = shift(rel, parse_cost(args.shift).fraction, name=rel.name)
    if args.scale:
        rel = scale(rel, parse_cost(args.scale).fraction, name=rel.name)
    if args.feas:
        rel = feas(rel, name=rel.name)
    if args.opt:
        rel = opt(rel, name=rel.name)
    print(serialize_relation(rel))
    return EXIT_OK


def _cmd_hat(args) -> int:
    structure = _load_structure(args.structure)
    sys.stdout.write(serialize_structure(build_hat(structure)))
    return EXIT_OK


def _parse_edge(token: str) -> tuple[str, str]:
    parts = token.split(",")
    if len(parts) != 2 or not all(parts):
        raise TvcspError(f"bad edge {token!r}; expected u,v")
    return parts[0], parts[1]


def _cmd_gen(args) -> int:
    if args.kind != "fas":
        raise TvcspError(f"unknown generator {args.kind!r}")
    edges = [_parse_edge(t) for t in args.edges]
    structure, inst, warnings = gen_feedback_arc_set(edges)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    spath = Path(f"{args.out}.structure")
    ipath = Path(f"{args.out}.instance")
    spath.write_text(serialize_structure(structure), encoding="utf-8")
    ipath.write_text(serialize_instance(inst), encoding="utf-8")
    print(f"wrote {spath}")
    print(f"wrote {ipath}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvcsp",
        description="Exact engine for temporal valued constraint "
                    "satisfaction problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify",
                       help="decide P vs NP-complete for a structure")
    p.add_argument("structure")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("solve", help="optimize or decide an instance")
    p.add_argument("--structure", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--threshold")
    p.add_argument("--backend", choices=("dispatch", "oracle"),
                   default="dispatch")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check",
                       help="test preservation/improvement by an operation")
    p.add_argument("--op", required=True)
    p.add_argument("--mode", choices=("preserve", "improve"), required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--relation")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("expr",
                       help="evaluate an expression to a cost table")
    p.add_argument("--structure", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--opt", action="store_true")
    p.add_argument("--feas", action="store_true")
    p.add_argument("--shift")
    p.add_argument("--scale")
    p.set_defaults(fn=_cmd_expr)

    p = sub.add_parser("hat",
                       help="emit the derived crisp structure as a file")
    p.add_argument("--structure", required=True)
    p.set_defaults(fn=_cmd_hat)

    p = sub.add_parser("gen", help="generate bundled problem families")
    p.add_argument("kind", choices=("fas",))
    p.add_argument("--edges", nargs="+", required=True,
                   metavar="U,V")
    p.add_argument("--out", default="fas")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ParseError, TvcspError, ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
