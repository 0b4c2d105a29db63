"""Parsers and serializers for structure, instance, and expression files,
plus the feedback-arc-set instance generator.

The format is a plain line-oriented text with ``#`` comments::

    # structure file
    structure <name>                      (optional header)
    relation <name> arity=<k> [default=<cost>]
    [r1,r2,...] <cost>                    (one table entry; attaches to the
                                           relation declared above)

    # instance file
    instance
    vars <v> ...                          (optional extra variables)
    threshold <cost>                      (optional, finite)
    atom <relation|eq|empty> <v> ...

    # expression file
    expression
    free <v> ...
    bound <v> ...                         (optional)
    atom <relation|eq|empty> <v> ...

Costs are ``inf``, an integer, or ``p/q``.  Rank vectors must be canonical
(the ranks used form an initial segment of the naturals) and each order
type may appear at most once; together with ``default`` the table must be
total.  Serialization is canonical (the most frequent cost becomes the
default and the remaining entries are sorted), so parse/serialize
round-trips are stable.
"""

from __future__ import annotations

import os
import re
import threading
from collections import Counter, OrderedDict
from typing import Optional, Sequence

from . import config
from .cost import Cost, parse_cost
from .errors import ParseError
from .orders import WeakOrder, enumerate_weak_orders
from .relations import (
    RESERVED_NAMES,
    Expression,
    ValuedRelation,
    ValuedStructure,
    atom_relation,
    rel_abg,
)
from .solvers import Instance

_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NAME_RE = re.compile(r"^[^\s=]+$")
_ENTRY_RE = re.compile(r"^(\[[^\]]*\])\s+(\S+)\s*$")
_KV_RE = re.compile(r"^([A-Za-z]+)=(\S+)$")


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _col(line_text: str, token: str) -> int:
    at = line_text.find(token)
    return at + 1 if at >= 0 else 1


def _parse_ranks(token: str, lineno: int, line: str) -> tuple[int, ...]:
    body = token[1:-1].strip()
    if not body:
        raise ParseError("empty rank vector", lineno, _col(line, token))
    try:
        return tuple(int(t) for t in body.split(","))
    except ValueError:
        raise ParseError(f"bad rank vector {token}", lineno,
                         _col(line, token)) from None


class _RelationBuilder:
    def __init__(self, name: str, arity: int, default: Optional[Cost],
                 lineno: int):
        self.name = name
        self.arity = arity
        self.default = default
        self.lineno = lineno
        self.entries: dict[WeakOrder, Cost] = {}

    def build(self) -> ValuedRelation:
        table = {}
        for w in enumerate_weak_orders(self.arity):
            if w in self.entries:
                table[w] = self.entries[w]
            elif self.default is not None:
                table[w] = self.default
            else:
                raise ParseError(
                    f"relation {self.name!r} has no entry for {w} and no "
                    "default", self.lineno)
        return ValuedRelation(self.name, self.arity, table)


#: Parsed structures :func:`parse_structure` keeps; the least recently used
#: goes first.
STRUCTURE_CACHE_SIZE = 32

_STRUCTURES: OrderedDict[tuple[str, Optional[str]], ValuedStructure] = \
    OrderedDict()
_STRUCTURES_LOCK = threading.Lock()


def parse_structure(text: str) -> ValuedStructure:
    """The structure a structure file describes.

    Structures are immutable, so one text parsed again returns the same
    object, kept for up to ``STRUCTURE_CACHE_SIZE`` texts.  The key holds
    the arity cap setting in force, which the parse checks: as the raw
    environment value, which reading cannot fail, so that an invalid
    setting fails inside the parse as without the cache.  A text that
    fails to parse is not kept and fails the same way every time.
    """
    key = (text, os.environ.get(config.ARITY_CAP_NAME))
    with _STRUCTURES_LOCK:
        structure = _STRUCTURES.get(key)
        if structure is not None:
            _STRUCTURES.move_to_end(key)
            return structure
    structure = _parse_structure(text)
    with _STRUCTURES_LOCK:
        # a thread that parsed the same text first keeps its object
        structure = _STRUCTURES.setdefault(key, structure)
        if len(_STRUCTURES) > STRUCTURE_CACHE_SIZE:
            _STRUCTURES.popitem(last=False)
    return structure


def _parse_structure(text: str) -> ValuedStructure:
    name = ""
    builders: list[_RelationBuilder] = []
    for lineno, line in _lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "structure":
            if len(tokens) > 2:
                raise ParseError("structure takes at most one name", lineno,
                                 _col(line, tokens[2]))
            name = tokens[1] if len(tokens) == 2 else ""
        elif head == "relation":
            if len(tokens) < 3:
                raise ParseError("expected: relation <name> arity=<k> "
                                 "[default=<cost>]", lineno)
            rel_name = tokens[1]
            if not _NAME_RE.match(rel_name):
                raise ParseError(f"bad relation name {rel_name!r}", lineno,
                                 _col(line, rel_name))
            if rel_name in RESERVED_NAMES:
                raise ParseError(
                    f"relation name {rel_name!r} is reserved for the "
                    "builtin atom", lineno, _col(line, rel_name))
            if any(b.name == rel_name for b in builders):
                raise ParseError(f"duplicate relation {rel_name!r}", lineno,
                                 _col(line, rel_name))
            arity: Optional[int] = None
            default: Optional[Cost] = None
            for tok in tokens[2:]:
                kv = _KV_RE.match(tok)
                if not kv:
                    raise ParseError(f"expected key=value, got {tok!r}",
                                     lineno, _col(line, tok))
                key, value = kv.groups()
                if key == "arity":
                    try:
                        arity = int(value)
                    except ValueError:
                        raise ParseError(f"bad arity {value!r}", lineno,
                                         _col(line, tok)) from None
                elif key == "default":
                    try:
                        default = parse_cost(value)
                    except ValueError as exc:
                        raise ParseError(str(exc), lineno,
                                         _col(line, tok)) from None
                else:
                    raise ParseError(f"unknown key {key!r}", lineno,
                                     _col(line, tok))
            if arity is None or arity < 1:
                raise ParseError("relation needs arity=<k> with k >= 1",
                                 lineno)
            builders.append(_RelationBuilder(rel_name, arity, default, lineno))
        elif head.startswith("["):
            if not builders:
                raise ParseError("table entry before any relation", lineno)
            m = _ENTRY_RE.match(line.strip())
            if not m:
                raise ParseError("expected: [r1,r2,...] <cost>", lineno)
            ranks = _parse_ranks(m.group(1), lineno, line)
            b = builders[-1]
            if len(ranks) != b.arity:
                raise ParseError(
                    f"rank vector has {len(ranks)} positions, relation "
                    f"{b.name!r} has arity {b.arity}", lineno)
            try:
                w = WeakOrder(ranks)
            except ValueError:
                raise ParseError(
                    f"non-canonical ranks {m.group(1)} (rank values must "
                    "form an initial segment 0..m-1)", lineno) from None
            if w in b.entries:
                raise ParseError(f"duplicate entry for order type {w}",
                                 lineno)
            try:
                b.entries[w] = parse_cost(m.group(2))
            except ValueError as exc:
                raise ParseError(str(exc), lineno,
                                 _col(line, m.group(2))) from None
        else:
            raise ParseError(f"unknown directive {head!r}", lineno,
                             _col(line, head))
    return ValuedStructure([b.build() for b in builders], name=name)


def _check_vars(tokens: Sequence[str], lineno: int, line: str) -> None:
    for v in tokens:
        if not _VAR_RE.match(v):
            raise ParseError(f"bad variable name {v!r}", lineno, _col(line, v))


def _parse_atom(tokens: Sequence[str], lineno: int, line: str,
                structure: ValuedStructure) -> tuple[str, tuple[str, ...]]:
    """An ``atom <relation> <var> ...`` line, checked against the
    structure and the builtins."""
    if len(tokens) < 3:
        raise ParseError("expected: atom <relation> <var> ...", lineno)
    rel_name = tokens[1]
    args = tuple(tokens[2:])
    _check_vars(args, lineno, line)
    try:
        arity = atom_relation(structure, rel_name).arity
    except KeyError:
        raise ParseError(f"unknown relation {rel_name!r}", lineno,
                         _col(line, rel_name)) from None
    if len(args) != arity:
        raise ParseError(
            f"atom {rel_name!r} expects {arity} arguments, got {len(args)}",
            lineno)
    return rel_name, args


def parse_instance(text: str, structure: ValuedStructure) -> Instance:
    atoms: list[tuple[str, tuple[str, ...]]] = []
    threshold: Optional[Cost] = None
    extra_vars: list[str] = []
    seen_header = False
    for lineno, line in _lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "instance":
            seen_header = True
        elif head == "vars":
            _check_vars(tokens[1:], lineno, line)
            extra_vars.extend(tokens[1:])
        elif head == "threshold":
            if len(tokens) != 2:
                raise ParseError("expected: threshold <cost>", lineno)
            try:
                threshold = parse_cost(tokens[1])
            except ValueError as exc:
                raise ParseError(str(exc), lineno,
                                 _col(line, tokens[1])) from None
            if not threshold.is_finite:
                raise ParseError("threshold must be finite", lineno,
                                 _col(line, tokens[1]))
        elif head == "atom":
            atoms.append(_parse_atom(tokens, lineno, line, structure))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno,
                             _col(line, head))
    if not seen_header:
        raise ParseError("missing 'instance' header", 1)
    if not atoms and not extra_vars:
        raise ParseError("instance has no variables (add atoms or a vars "
                         "line)", 1)
    return Instance.from_atoms(atoms, threshold, extra_vars=extra_vars)


def parse_expression(text: str, structure: ValuedStructure) -> Expression:
    free: list[str] = []
    bound: list[str] = []
    atoms: list[tuple[str, tuple[str, ...]]] = []
    seen_header = False
    for lineno, line in _lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "expression":
            seen_header = True
        elif head == "free":
            _check_vars(tokens[1:], lineno, line)
            free.extend(tokens[1:])
        elif head == "bound":
            _check_vars(tokens[1:], lineno, line)
            bound.extend(tokens[1:])
        elif head == "atom":
            atoms.append(_parse_atom(tokens, lineno, line, structure))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno,
                             _col(line, head))
    if not seen_header:
        raise ParseError("missing 'expression' header", 1)
    try:
        return Expression(tuple(free), tuple(bound), tuple(atoms))
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def serialize_relation(rel: ValuedRelation) -> str:
    counts = Counter(rel.table.values())
    default = sorted(counts, key=lambda c: (-counts[c], c))[0]
    lines = [f"relation {rel.name} arity={rel.arity} default={default}"]
    for w in enumerate_weak_orders(rel.arity):
        if rel.table[w] != default:
            lines.append(f"{w} {rel.table[w]}")
    return "\n".join(lines)


def serialize_structure(structure: ValuedStructure) -> str:
    parts = []
    if structure.name:
        parts.append(f"structure {structure.name}")
    parts.extend(serialize_relation(r) for r in structure)
    return "\n".join(parts) + "\n"


def serialize_instance(inst: Instance) -> str:
    lines = ["instance"]
    in_atoms = {v for _, args in inst.atoms for v in args}
    standalone = [v for v in inst.variables if v not in in_atoms]
    if standalone:
        lines.append("vars " + " ".join(standalone))
    if inst.threshold is not None:
        lines.append(f"threshold {inst.threshold}")
    for name, args in inst.atoms:
        lines.append(f"atom {name} " + " ".join(args))
    return "\n".join(lines) + "\n"


def serialize_expression(expr: Expression) -> str:
    lines = ["expression", "free " + " ".join(expr.free_vars)]
    if expr.bound_vars:
        lines.append("bound " + " ".join(expr.bound_vars))
    for name, args in expr.atoms:
        lines.append(f"atom {name} " + " ".join(args))
    return "\n".join(lines) + "\n"


def gen_feedback_arc_set(edges: Sequence[tuple[str, str]]
                         ) -> tuple[ValuedStructure, Instance, tuple[str, ...]]:
    """Structure and instance whose optimum is the minimum number of edges
    to delete to make the multigraph acyclic.

    Repeated edges are allowed and count with multiplicity; self-loops are
    flagged because their atom contributes a constant 1.
    """
    if not edges:
        raise ValueError("edge list must be nonempty")
    structure = ValuedStructure([rel_abg(1, 0, 1, name="lt01")], name="fas")
    warnings = tuple(
        f"self-loop edge ({u},{v}): its atom costs 1 under every assignment"
        for u, v in edges if u == v)
    atoms = [("lt01", (u, v)) for u, v in edges]
    return structure, Instance.from_atoms(atoms), warnings
