"""Fixed-size micro-timings of each layer, one fresh process per item.

They reproduce the Baseline of ROADMAP.md: weak-order enumeration at
k = 7, 8 with its RSS, joint configurations and the ``_distinct_outputs``
cache, the testers on the catalog, ``Sep`` classification, ``build_hat``,
both crisp backends, the oracle on feedback arc set at n = 6, 7, 8,
``solve_lex`` on R3 chains at n = 6, 8, 10, the other tractable solvers and
parse/serialize of ``corpus/``.  Items that fill a process-wide cache run
cold, once; the rest report the median of repeats after one warm-up call.
They are reported with the per-layer metrics and gate nothing.
"""

from __future__ import annotations

import random
import statistics
import time

import tvcsp as t
from tvcsp import canonops, cspengine, files, relations, solvers

from procs import peak_rss_mb
from workloads import CORPUS, corpus_structure, instance_text, rung_ess_min, \
    random_digraph


def _ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return 1000.0 * (time.perf_counter() - start)


def _median_ms(fn, repeats: int = 5) -> float:
    fn()
    return statistics.median(_ms(fn) for _ in range(repeats))


def _enumerate(k: int):
    def item():
        before = peak_rss_mb()
        ms = _ms(lambda: t.enumerate_weak_orders(k, cap=k))
        return {f"micro.orders.enumerate_k{k}.ms": ms,
                f"micro.orders.enumerate_k{k}.rss_mb": peak_rss_mb() - before}
    return item


def distinct_outputs_k3():
    orders = t.enumerate_weak_orders(3)

    def fill():
        for op in t.CLASSIFIER_OPS:
            for w1 in orders:
                for w2 in orders:
                    canonops._distinct_outputs(op.tag, w1, w2)
    return {"micro.canonops.distinct_outputs_k3.ms": _ms(fill)}


def testers_catalog():
    """Every classifier operation plus lex on every catalog relation of
    arity at most 3, cold caches."""
    rels = [t.named_relation(n) for n in t.catalog_names()]
    ops = t.CLASSIFIER_OPS + (t.OPS["lex"],)

    def run():
        for rel in rels:
            if rel.arity <= 3:
                for op in ops:
                    t.improves(op, rel)
    return {"micro.canonops.testers_catalog.ms": _ms(run)}


def classify_sep():
    s = t.ValuedStructure([t.named_relation("Sep")])
    return {"micro.classify.classify_sep.ms":
            _ms(lambda: t.classify_temporal(s))}


def _oracle_fas(n: int):
    def item():
        rng = random.Random(f"micro/fas/{n}")
        s, inst, _ = files.gen_feedback_arc_set(random_digraph(rng, n, 2 * n))
        return {f"micro.solvers.oracle_fas_n{n}.ms":
                _ms(lambda: solvers.solve_oracle(s, inst, cap=n))}
    return item


def warm_layers():
    """Layers without a process-wide cache of their own, on warm tables."""
    out = {}
    merge = corpus_structure("merge-cost")
    out["micro.relations.build_hat.ms"] = _median_ms(
        lambda: relations.build_hat(merge))

    point, atoms, _, _ = rung_ess_min(random.Random("micro/dag"), 10)
    names = [f"v{i}" for i in range(10)]
    dag = files.parse_instance(instance_text(names, atoms), point)
    feas_inst = cspengine.CrispInstance(
        dag.variables, tuple((relations.feas(rel), args) for rel, args
                             in solvers.resolve_atoms(point, dag)))
    out["micro.cspengine.complete_n10.ms"] = _median_ms(
        lambda: cspengine.solve_crisp_complete(feas_inst))
    out["micro.cspengine.minlayer_n10.ms"] = _median_ms(
        lambda: cspengine.solve_crisp_minlayer(feas_inst,
                                               check_closure=False))
    out["micro.solvers.solve_essentially_crisp_n10.ms"] = _median_ms(
        lambda: solvers.solve_essentially_crisp(point, dag))

    for n in (6, 8, 10):
        chain = t.Instance.from_atoms(
            [("R3", (f"v{i}", f"v{i + 1}", f"v{i + 2}"))
             for i in range(n - 2)])
        out[f"micro.solvers.solve_lex_r3_n{n}.ms"] = _median_ms(
            lambda: solvers.solve_lex(merge, chain), repeats=3)
        if n == 10:
            out["micro.solvers.solve_equality_inj_r3_n10.ms"] = _median_ms(
                lambda: solvers.solve_equality_inj(merge, chain))

    eq01 = t.ValuedStructure([t.named_relation("eq01")])
    rng = random.Random("micro/const")
    names = [f"v{i}" for i in range(64)]
    const_inst = t.Instance.from_atoms(
        [("eq01", tuple(rng.sample(names, 2))) for _ in range(128)])
    out["micro.solvers.solve_const_n64.ms"] = _median_ms(
        lambda: solvers.solve_const(eq01, const_inst))

    structures = {p.stem: p.read_text("utf-8")
                  for p in sorted(CORPUS.glob("*.structure"))}
    # an instance file goes with the structure whose name prefixes its own
    instances = [(p.read_text("utf-8"),
                  structures[max((s for s in structures
                                  if p.stem.startswith(s)), key=len)])
                 for p in sorted(CORPUS.glob("*.instance"))]
    expression = (CORPUS / "triangle.expression").read_text("utf-8")
    soft = files.parse_structure(structures["soft-order"])

    def parse_all():
        parsed = [files.parse_structure(text) for text in structures.values()]
        for text, stext in instances:
            files.parse_instance(text, files.parse_structure(stext))
        files.parse_expression(expression, soft)
        return parsed

    parsed = parse_all()
    insts = [files.parse_instance(i, files.parse_structure(s))
             for i, s in instances]
    expr = files.parse_expression(expression, soft)

    def serialize_all():
        for s in parsed:
            files.serialize_structure(s)
        for inst in insts:
            files.serialize_instance(inst)
        files.serialize_expression(expr)

    out["micro.files.parse_corpus.ms"] = _median_ms(parse_all, repeats=20)
    out["micro.files.serialize_corpus.ms"] = _median_ms(serialize_all,
                                                        repeats=20)
    return out


ITEMS = {
    "enumerate_k7": _enumerate(7),
    "enumerate_k8": _enumerate(8),
    "distinct_outputs_k3": distinct_outputs_k3,
    "testers_catalog": testers_catalog,
    "classify_sep": classify_sep,
    "oracle_fas_n6": _oracle_fas(6),
    "oracle_fas_n7": _oracle_fas(7),
    "oracle_fas_n8": _oracle_fas(8),
    "warm_layers": warm_layers,
}

METRICS = (
    "micro.orders.enumerate_k7.ms", "micro.orders.enumerate_k7.rss_mb",
    "micro.orders.enumerate_k8.ms", "micro.orders.enumerate_k8.rss_mb",
    "micro.canonops.distinct_outputs_k3.ms",
    "micro.canonops.testers_catalog.ms",
    "micro.classify.classify_sep.ms",
    "micro.relations.build_hat.ms",
    "micro.cspengine.complete_n10.ms", "micro.cspengine.minlayer_n10.ms",
    "micro.solvers.oracle_fas_n6.ms", "micro.solvers.oracle_fas_n7.ms",
    "micro.solvers.oracle_fas_n8.ms",
    "micro.solvers.solve_lex_r3_n6.ms", "micro.solvers.solve_lex_r3_n8.ms",
    "micro.solvers.solve_lex_r3_n10.ms",
    "micro.solvers.solve_equality_inj_r3_n10.ms",
    "micro.solvers.solve_essentially_crisp_n10.ms",
    "micro.solvers.solve_const_n64.ms",
    "micro.files.parse_corpus.ms", "micro.files.serialize_corpus.ms",
)
