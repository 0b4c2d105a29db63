from collections import OrderedDict

import pytest

import tvcsp as t
from tvcsp import (
    Cost,
    INF,
    ParseError,
    WeakOrder,
    ZERO,
    gen_feedback_arc_set,
    named_relation,
    parse_expression,
    parse_instance,
    parse_structure,
    serialize_expression,
    serialize_instance,
    serialize_structure,
    solve_oracle,
)
from tvcsp import files
from fractions import Fraction
from itertools import permutations, product

SOFT_NEQ = """
# soft disequality
structure demo
relation neq01 arity=2 default=0
[0,0] 1
"""


def test_parse_structure_basic():
    s = parse_structure(SOFT_NEQ)
    assert s.name == "demo"
    rel = s.get("neq01")
    assert rel.table == named_relation("neq01").table


def test_parse_entries_without_default():
    text = """relation r arity=2
[0,0] 1
[0,1] 1/2
[1,0] inf
"""
    rel = parse_structure(text).get("r")
    assert rel.table[WeakOrder((0, 1))] == Cost(Fraction(1, 2))
    assert rel.table[WeakOrder((1, 0))] == INF


@pytest.mark.parametrize("text,fragment,line", [
    ("relation r arity=2 default=0\n[0,2] 1\n", "non-canonical", 2),
    ("relation r arity=2 default=0\n[0,0] 1\n[0,0] 2\n", "duplicate", 3),
    ("relation r arity=2\n[0,0] 1\n", "no entry", 1),
    ("relation r arity=2 default=0\n[0,0,1] 1\n", "arity", 2),
    ("relation r arity=2 default=zz\n", "bad cost", 1),
    ("relation r arity=2 default=0\nnonsense here\n", "unknown directive", 2),
    ("relation eq arity=2 default=0\n", "reserved", 1),
    ("relation r arity=0\n", "arity", 1),
    ("[0,0] 1\n", "before any relation", 1),
])
def test_parse_structure_errors(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert fragment in str(err.value)
    assert err.value.line == line


# ---------------------------------------------------------------------------
# parse cache
# ---------------------------------------------------------------------------

@pytest.fixture
def cold_parses(monkeypatch):
    """An empty parse cache for the test."""
    monkeypatch.setattr(files, "_STRUCTURES", OrderedDict())


def test_parse_cache_returns_one_object_per_text(cold_parses):
    first = parse_structure(SOFT_NEQ)
    assert parse_structure(SOFT_NEQ) is first
    other = parse_structure(SOFT_NEQ + "# the same content\n")
    assert other is not first
    assert serialize_structure(other) == serialize_structure(first)


def test_parse_cache_keeps_no_failed_parse(cold_parses):
    text = "relation r arity=2 default=0\n[0,0] 1\n[0,0] 2\n"
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse_structure(text)
        errors.append((str(err.value), err.value.line, err.value.column))
    assert errors[0] == errors[1]
    assert not files._STRUCTURES


def test_parse_cache_rereads_the_arity_cap(cold_parses, monkeypatch):
    text = "relation r arity=3 default=0\n[0,0,0] 1\n"
    assert parse_structure(text).get("r").arity == 3
    monkeypatch.setenv("TVCSP_ARITY_CAP", "2")
    for _ in range(2):
        with pytest.raises(t.CapacityError) as err:
            parse_structure(text)
        assert "TVCSP_ARITY_CAP=2" in str(err.value)
    monkeypatch.delenv("TVCSP_ARITY_CAP")
    assert parse_structure(text).get("r").arity == 3


def test_parse_cache_evicts_past_its_bound(cold_parses):
    bound = files.STRUCTURE_CACHE_SIZE
    texts = [f"# copy {i}\n{SOFT_NEQ}" for i in range(bound + 4)]
    first = [parse_structure(text) for text in texts]
    assert len(files._STRUCTURES) == bound
    # the newest texts are kept; the oldest are parsed again
    assert parse_structure(texts[-1]) is first[-1]
    again = parse_structure(texts[0])
    assert again is not first[0]
    assert serialize_structure(again) == serialize_structure(first[0])
    assert len(files._STRUCTURES) == bound


def test_structure_round_trip_catalog():
    rels = [named_relation(n) for n in t.catalog_names()]
    s = t.ValuedStructure(rels, name="catalog")
    text = serialize_structure(s)
    again = parse_structure(text)
    assert [r.name for r in again] == [r.name for r in s]
    for a, b in zip(s, again):
        assert a.table == b.table
    # canonical serialization is a fixpoint
    assert serialize_structure(again) == text


def test_instance_round_trip():
    s = parse_structure(SOFT_NEQ)
    text = """instance
vars a b
threshold 3/2
atom neq01 x y
atom eq x z
atom empty w
"""
    inst = parse_instance(text, s)
    assert inst.variables == ("a", "b", "x", "y", "z", "w")
    assert inst.threshold == Cost(Fraction(3, 2))
    again = parse_instance(serialize_instance(inst), s)
    assert again == inst


@pytest.mark.parametrize("text,fragment", [
    ("instance\natom nope x y\n", "unknown relation"),
    ("instance\natom neq01 x\n", "expects 2 arguments"),
    ("instance\nthreshold inf\n", "finite"),
    ("instance\n", "no variables"),
    ("atom neq01 x y\n", "missing 'instance'"),
    ("instance\natom neq01 x 1y\n", "bad variable"),
])
def test_parse_instance_errors(text, fragment):
    s = parse_structure(SOFT_NEQ)
    with pytest.raises(ParseError) as err:
        parse_instance(text, s)
    assert fragment in str(err.value)


def test_expression_round_trip():
    s = parse_structure(SOFT_NEQ)
    text = """expression
free x y
bound z
atom neq01 x z
atom neq01 z y
"""
    expr = parse_expression(text, s)
    assert expr.free_vars == ("x", "y")
    assert expr.bound_vars == ("z",)
    assert parse_expression(serialize_expression(expr), s) == expr


def test_parse_expression_errors():
    s = parse_structure(SOFT_NEQ)
    with pytest.raises(ParseError):
        parse_expression("expression\nbound z\n", s)  # no free variables
    with pytest.raises(ParseError):
        parse_expression("expression\nfree x\natom zz x\n", s)
    with pytest.raises(ParseError) as err:
        parse_expression("expression\nfree x y\natom neq01 x\n", s)
    assert err.value.line == 3


CORPUS_PAIRINGS = {"fas-cycle": "fas", "merge-cost": "merge-cost",
                   "triangle": "soft-order"}


def test_corpus_round_trips():
    from pathlib import Path
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    structures = {}
    seen = 0
    for path in sorted(corpus.glob("*.structure")):
        s = parse_structure(path.read_text())
        structures[path.stem] = s
        canonical = serialize_structure(s)
        assert serialize_structure(parse_structure(canonical)) == canonical
        seen += 1
    for path in sorted(corpus.glob("*.instance")):
        s = structures[CORPUS_PAIRINGS[path.stem]]
        inst = parse_instance(path.read_text(), s)
        assert parse_instance(serialize_instance(inst), s) == inst
        seen += 1
    for path in sorted(corpus.glob("*.expression")):
        s = structures[CORPUS_PAIRINGS[path.stem]]
        expr = parse_expression(path.read_text(), s)
        assert parse_expression(serialize_expression(expr), s) == expr
        seen += 1
    assert seen >= 9


def test_hat_output_reparses():
    s = t.ValuedStructure([named_relation("neq01")], name="soft-neq")
    hat = t.build_hat(s)
    again = parse_structure(serialize_structure(hat))
    for a, b in zip(hat, again):
        assert a.name == b.name and a.table == b.table


# ---------------------------------------------------------------------------
# feedback arc set generator
# ---------------------------------------------------------------------------

def fas_optimum(structure, inst):
    return solve_oracle(structure, inst).optimal_cost


def test_gen_fas_three_cycle():
    s, inst, warnings = gen_feedback_arc_set([("a", "b"), ("b", "c"),
                                              ("c", "a")])
    assert not warnings
    assert fas_optimum(s, inst) == Cost(1)


def test_gen_fas_multi_edges():
    s, inst, _ = gen_feedback_arc_set([("a", "b"), ("b", "a"), ("a", "b")])
    assert fas_optimum(s, inst) == Cost(1)


def test_gen_fas_single_edge():
    s, inst, _ = gen_feedback_arc_set([("a", "b")])
    assert fas_optimum(s, inst) == ZERO


def test_gen_fas_flags_self_loops():
    s, inst, warnings = gen_feedback_arc_set([("a", "a"), ("a", "b")])
    assert len(warnings) == 1 and "self-loop" in warnings[0]
    assert fas_optimum(s, inst) == Cost(1)


def test_gen_fas_rejects_empty():
    with pytest.raises(ValueError):
        gen_feedback_arc_set([])


def permutation_min_feedback(vertices, edges):
    """Independent oracle: brute force over vertex permutations."""
    best = len(edges)
    for perm in permutations(vertices):
        position = {v: i for i, v in enumerate(perm)}
        back = sum(1 for u, v in edges if position[u] >= position[v])
        best = min(best, back)
    return best


def test_gen_fas_matches_permutation_brute_force_on_tournaments():
    for m in (3, 4):
        vertices = [f"u{i}" for i in range(m)]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for bits in product((0, 1), repeat=len(pairs)):
            edges = [(vertices[i], vertices[j]) if b else
                     (vertices[j], vertices[i])
                     for (i, j), b in zip(pairs, bits)]
            s, inst, _ = gen_feedback_arc_set(edges)
            got = fas_optimum(s, inst)
            assert got == Cost(permutation_min_feedback(vertices, edges))
