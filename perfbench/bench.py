"""The three workloads: set-up, closed-loop measurement, checks, metrics.

One client sends one request at a time (closed loop, no think time), and
at most one child process runs at once.  Inputs come only from the seed.
End-to-end times are scaled by the machine-speed gauge (``gauge.py``).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tvcsp as t
from tvcsp import canonops, files, solvers

import checks
import micro
import tracer as tracing
import workloads
from gauge import Gauge
from procs import PERFBENCH, RungRunner, peak_rss_mb, run_child
from workloads import (ROUTE_SOLVER, DispatchStream, OracleStream, Request,
                       dispatch_pool, ladder)

ROUTES = tuple(workloads.ROUTES)

#: Children doing a fresh set-up each, besides the run's own set-up.
SETUP_CHILDREN = 4

#: Seconds of requests between two gauge readings.
GAUGE_EVERY_S = 0.075

#: How many dispatch-mix answers of each size, first in stream order, are
#: checked against the oracle (one oracle call costs about 1 ms at n = 4,
#: 4 ms at n = 5, 0.03 s at n = 6 and 0.3 s at n = 7).  Sizes 6 and 7 are
#: checked after the loop, so that the weak orders they materialize stay
#: out of the measured peak RSS.
ORACLE_CHECKS = {3: math.inf, 4: math.inf, 5: 200, 6: 16, 7: 4}
ORACLE_LATER = (6, 7)

#: Requests per chunk of the traced replay.  Each chunk runs untraced and
#: then traced, so drift in machine speed reaches both sides alike.
TRACE_CHUNK = 8


@dataclass(frozen=True)
class Answer:
    """What a request returned, without the parsed inputs, so that memory
    does not grow with the number of requests."""

    cost: t.Cost
    argmin: Optional[t.WeakOrder]
    case: str
    witness: Optional[str]
    method: str


@dataclass
class Run:
    """What one run measured; turned into metrics at the end."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    rungs: list = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it
    (at least the median), and its value."""
    n = len(values)
    pct = max(50, math.floor(100 * (1 - 10 / n)))
    ordered = sorted(values)
    return ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)], pct


# ---------------------------------------------------------------------------
# In-process request loop (dispatch-mix, oracle-hard)
# ---------------------------------------------------------------------------

def solve_request(req: Request) -> Answer:
    structure = files.parse_structure(req.structure_text)
    inst = files.parse_instance(req.instance_text, structure)
    out, verdict = solvers.solve_dispatch(structure, inst)
    return Answer(out.optimal_cost, out.argmin, verdict.case,
                  verdict.witness.tag if verdict.witness else None,
                  out.method)


def answer(req: Request):
    try:
        return solve_request(req)
    except Exception as exc:  # counted as a failed request
        return exc


def closed_loop(stream, seconds: float, check, run: Run,
                keep: bool) -> list:
    """Send requests until ``seconds`` of scaled request time have passed.

    Each answer is checked as soon as it arrives, outside the timed region;
    ``check`` returns a problem or ``None``.  Requests and answers are kept
    only when ``keep`` is set (for the traced replay), so that otherwise
    memory does not grow with the number of requests.
    """
    sent = []
    gauge = Gauge()
    chunk: list[float] = []
    measured = 0.0
    while measured < seconds:
        req = stream.next()
        start = time.perf_counter()
        result = answer(req)
        chunk.append(time.perf_counter() - start)
        if keep:
            sent.append((req, result))
        run.attempted += 1
        if isinstance(result, Exception):
            problem = f"{type(result).__name__}: {result}"
        else:
            problem = check(req, result)
        if problem:
            run.problems.append(f"request {run.attempted} ({req.kind}, "
                                f"n={req.n}): {problem}")
        if sum(chunk) >= GAUGE_EVERY_S:
            factor = gauge.scale()
            run.raw += chunk
            run.scaled += [lat * factor for lat in chunk]
            measured += factor * sum(chunk)
            chunk = []
    return sent


def replay(sent: list, tr: tracing.Tracer):
    """Replay the requests; returns the traced answers and the untraced
    and traced seconds."""
    answers = []
    plain_s = traced_s = 0.0
    for lo in range(0, len(sent), TRACE_CHUNK):
        chunk = [req for req, _ in sent[lo:lo + TRACE_CHUNK]]
        start = time.perf_counter()
        for req in chunk:
            answer(req)
        plain_s += time.perf_counter() - start
        tr.install()
        try:
            start = time.perf_counter()
            for i, req in enumerate(chunk, lo):
                tr.request = i
                answers.append(answer(req))
            traced_s += time.perf_counter() - start
        finally:
            tr.uninstall()
    return answers, plain_s, traced_s


def overhead(plain_s: float, traced_s: float) -> dict[str, float]:
    return {"trace.overhead_ms": 1000.0 * (traced_s - plain_s),
            "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s}


def parsed(req: Request):
    structure = files.parse_structure(req.structure_text)
    return structure, files.parse_instance(req.instance_text, structure)


class InProcess:
    """A closed loop over a seeded request stream in this process."""

    name = ""

    def setup(self, seed: int, workdir: Path):
        self.seed = seed
        stream = self.make_stream(seed)
        self.warm_up(seed)
        return stream

    def run(self, stream, seconds: float, trace: bool, workdir: Path) -> Run:
        run = Run()
        deferred: list = []
        sent = closed_loop(stream, seconds / 3 if trace else seconds,
                           lambda req, ans: self.check(req, ans, deferred),
                           run, keep=trace)
        run.peak_rss_mb = peak_rss_mb()
        for req, ans in deferred:
            problem = checks.against_oracle(*parsed(req), ans.cost)
            if problem:
                run.problems.append(f"{req.kind} n={req.n}: {problem}")
        if trace:
            self.trace(run, sent)
        probe(run, self.seed, workdir, trace)
        return run

    def trace(self, run: Run, sent: list) -> None:
        info0 = canonops._distinct_outputs.cache_info()
        tr = tracing.Tracer()
        answers, plain_s, traced_s = replay(sent, tr)
        info1 = canonops._distinct_outputs.cache_info()
        n = len(sent)
        run.layer = tracing.aggregate(tr.spans, n)
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
        run.layer["canonops.distinct_outputs.hit_ratio"] = \
            hits / (hits + misses) if hits + misses else 0.0
        run.layer["canonops.distinct_outputs.lookups"] = (hits + misses) / n
        run.layer.update(overhead(plain_s, traced_s))
        tracing.write_spans(PERFBENCH / "out" / f"spans-{self.name}.json",
                            tr.spans, {"requests": n})
        for (req, first), again in zip(sent, answers):
            if repr(first) != repr(again):
                run.problems.append(f"{req.kind} n={req.n}: traced "
                                    "answer differs")

    def check(self, req: Request, ans: Answer,
              deferred: list) -> Optional[str]:
        """Check one answer now, or add it to ``deferred`` for an oracle
        check after the loop."""
        raise NotImplementedError


class DispatchMix(InProcess):
    name = "dispatch-mix"

    def make_stream(self, seed: int):
        self.checked: dict[int, int] = {}
        self.pool = dispatch_pool()
        self.by_name = {tmpl.name: tmpl for tmpl in self.pool}
        return DispatchStream(seed, self.pool)

    def warm_up(self, seed: int) -> None:
        """One request per template fills the weak-order and
        ``_distinct_outputs`` caches that classification uses."""
        warm = DispatchStream(seed, self.pool)
        warm.rng.seed(f"dispatch-mix/{seed}/warm-up")
        for tmpl in self.pool:
            warm.pool = [tmpl]
            solve_request(warm.next())

    def check(self, req, ans, deferred):
        tmpl = self.by_name[req.kind]
        if (ans.case, ans.witness, ans.method) != \
                (tmpl.case, tmpl.witness, tmpl.method):
            return f"routed {ans.case}/{ans.witness}/{ans.method}, " \
                   f"expected {tmpl.case}/{tmpl.witness}/{tmpl.method}"
        structure, inst = parsed(req)
        problem = checks.argmin_cost(structure, inst, ans.cost, ans.argmin)
        self.checked[req.n] = self.checked.get(req.n, 0) + 1
        if problem or self.checked[req.n] > ORACLE_CHECKS[req.n]:
            return problem
        if req.n in ORACLE_LATER:
            deferred.append((req, ans))
            return None
        return checks.against_oracle(structure, inst, ans.cost)


class OracleHard(InProcess):
    name = "oracle-hard"

    def make_stream(self, seed: int):
        return OracleStream(seed)

    def warm_up(self, seed: int) -> None:
        """Materialize the weak orders the oracle enumerates."""
        stream = OracleStream(seed)
        stream.rng.seed(f"oracle-hard/{seed}/warm-up")
        for _ in range(3):
            solve_request(stream.next())

    def check(self, req, ans, deferred):
        if ans.method != "oracleFallback":
            return f"routed to {ans.method}"
        structure, inst = parsed(req)
        problem = checks.argmin_cost(structure, inst, ans.cost, ans.argmin)
        if problem:
            return problem
        exact = checks.expected_exact(req.kind, inst)
        if not checks.cost_equals(ans.cost, exact):
            return f"optimal {ans.cost}, brute force {exact}"
        return None


# ---------------------------------------------------------------------------
# Children: the ladder and the cold-start probe
# ---------------------------------------------------------------------------

def climb(runner: RungRunner, rungs: list, traced: bool, run: Run) -> None:
    """Climb one route, stopping at its first rung that is not answered
    correctly."""
    for rung in rungs:
        result = runner.run(rung, traced)
        run.rungs.append(result)
        if not result.answered:
            break


#: Rounds of each route's first rung in the cold-start probe.
PROBE_ROUNDS = 5


def probe(run: Run, seed: int, workdir: Path, traced: bool) -> None:
    """The first two rungs of every route, then more rounds of the first
    rungs for the cold-start samples (untraced only)."""
    runner = RungRunner(workdir / "rungs")
    rungs = ladder(seed)
    for route in ROUTES:
        climb(runner, rungs[route][:2], traced, run)
    for _ in range(0 if traced else PROBE_ROUNDS - 1):
        for route in ROUTES:
            run.rungs.append(runner.run(rungs[route][0], False))


class ScaleLadder:
    name = "scale-ladder"

    def setup(self, seed: int, workdir: Path):
        rungs = ladder(seed)
        runner = RungRunner(workdir / "rungs")
        for route in ROUTES:
            for rung in rungs[route]:
                runner.paths(rung)
        return runner, rungs

    def run(self, state, seconds: float, trace: bool, workdir: Path) -> Run:
        """Climb every route.  Untraced, then repeat the first rungs for
        ``seconds`` more, for the cold-start samples; traced, run each
        route's first rung untraced just before its climb, for the tracing
        overhead."""
        runner, rungs = state
        run = Run()
        plain = []
        for route in ROUTES:
            if trace:
                plain.append(runner.run(rungs[route][0], False).child.wall_s)
            climb(runner, rungs[route], trace, run)
        first = [rungs[route][0] for route in ROUTES]
        if trace:
            traced = [r.child.wall_s for r in run.rungs if r.rung in first]
            run.layer.update(overhead(sum(plain), sum(traced)))
        deadline = time.perf_counter() + seconds
        while not trace and time.perf_counter() < deadline:
            run.rungs.append(runner.run(first[len(run.rungs) % len(first)],
                                        False))
        return run


WORKLOADS = {w.name: w for w in (DispatchMix(), OracleHard(), ScaleLadder())}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def child_json(argv: list[str], log: Path) -> dict:
    """Run a benchmark child to completion and read its JSON line."""
    res = run_child([sys.executable, str(PERFBENCH / "child.py")] + argv,
                    120.0, log)
    if res.outcome != "answered":
        raise RuntimeError(f"child {argv} ended {res.outcome}: "
                           f"{res.stdout[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int, workdir: Path) -> list[float]:
    """Set-up seconds of fresh children, scaled by the gauge."""
    out = []
    gauge = Gauge()
    for i in range(SETUP_CHILDREN):
        gauge.start()
        data = child_json(["setup", workload, str(seed)],
                          workdir / f"setup-{i}.log")
        out.append(data["setup_s"] * gauge.scale())
    return out


def ladder_metrics(run: Run) -> dict[str, float]:
    out = {}
    for route in ROUTES:
        answered = [r.rung.n for r in run.rungs
                    if r.rung.route == route and r.answered]
        out[f"max_n.{route}"] = float(max(answered, default=0))
    first_n = {route: sizes[0] for route, (_, sizes)
               in workloads.ROUTES.items()}
    cold = [r.scaled_wall_s for r in run.rungs
            if r.answered and r.rung.n == first_n[r.rung.route]]
    out["cold_start_ms"] = 1000.0 * statistics.median(cold) if cold else 0.0
    return out


def end_to_end(run: Run, setup: list[float], workload: str):
    """The end-to-end metrics, and facts printed beside them.

    Latency and throughput count answered requests (ladder: children);
    a request that is not answered counts against ``answered_ratio``.
    """
    if workload == "scale-ladder":
        done = [r for r in run.rungs if r.answered]
        scaled = [r.scaled_wall_s for r in done]
        raw = [r.child.wall_s for r in done]
        # each rung once: the first rungs also run again for more samples
        rungs = {(r.rung.route, r.rung.n): r.answered for r in run.rungs}
        attempted, answered = len(rungs), sum(rungs.values())
        peak = max((r.peak_rss_mb for r in done), default=0.0)
    else:
        scaled, raw = run.scaled, run.raw
        attempted = run.attempted
        answered = attempted - len(run.problems)
        peak = run.peak_rss_mb
    tail_s, pct = tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "solves_per_s": len(scaled) / sum(scaled),
        "solve_p50_ms": 1000.0 * statistics.median(scaled),
        "solve_tail_ms": 1000.0 * tail_s,
        "answered_ratio": answered / attempted,
        "peak_rss_mb": peak,
    }
    metrics.update(ladder_metrics(run))
    info = {"tail_percentile": pct, "samples": len(scaled),
            "fail_ratio": 1 - answered / attempted,
            "raw_solve_p50_ms": 1000.0 * statistics.median(raw),
            "raw_solves_per_s": len(raw) / sum(raw),
            "gauge_scale": sum(scaled) / sum(raw)}
    return metrics, info


def child_layers(run: Run) -> dict[str, float]:
    """Per-layer numbers that only traced children give."""
    out = {}
    traced = [r for r in run.rungs if r.spans]
    startup = [r.child.wall_s - r.main_s for r in traced]
    out["cli.startup_ms"] = 1000.0 * statistics.median(startup) \
        if startup else 0.0
    for route in ROUTES:
        if route == "oracle":
            continue
        solver = ROUTE_SOLVER[route]
        times = {r.rung.n: tracing.span_total(r.spans, solver)
                 for r in traced if r.rung.route == route and r.answered}
        pairs = [n for n in sorted(times) if 2 * n in times]
        growth = 0.0
        if pairs and times[pairs[-1]] > 0:
            n = pairs[-1]
            growth = math.log2(times[2 * n] / times[n])
        out[f"solvers.growth.{route}"] = growth
    return out


def ladder_layers(run: Run) -> dict[str, float]:
    traced = [r for r in run.rungs if r.spans]
    spans = []
    hits = lookups = 0
    for i, r in enumerate(traced):
        base = len(spans)
        spans.extend((name, s, e, p + base if p >= 0 else -1, i, x)
                     for name, s, e, p, _, x in r.spans)
        hits += r.cache[0]
        lookups += r.cache[0] + r.cache[1]
    tracing.write_spans(PERFBENCH / "out" / "spans-scale-ladder.json",
                        spans, {"requests": len(traced)})
    out = tracing.aggregate(spans, len(traced))
    out["canonops.distinct_outputs.hit_ratio"] = hits / lookups \
        if lookups else 0.0
    out["canonops.distinct_outputs.lookups"] = lookups / max(1, len(traced))
    return out


def micro_metrics(workdir: Path) -> dict[str, float]:
    out = {}
    for name in micro.ITEMS:
        out.update(child_json(["micro", name], workdir / f"micro-{name}.log"))
    return out
