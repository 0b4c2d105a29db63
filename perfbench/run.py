"""tvcsp benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload <dispatch-mix|oracle-hard|scale-ladder>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Inputs come only from ``--seed``.  Every answer is checked after the timed
region; a wrong answer or an error is printed, makes ``correct`` false and
the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
measured requests with wrappers around each layer's public functions
(``tracer.py``), runs the ladder children under the same wrappers, runs the
fixed-size micro-timings (``micro.py``) and prints the per-layer metrics,
with the tracing overhead against the untraced pass.  Spans are written to
``perfbench/out/spans-<workload>.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gauge import Gauge  # noqa: E402  (pure Python, before tvcsp loads)

GAUGE = Gauge()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dispatch-mix", "oracle-hard", "scale-ladder"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tvcsp" / "__init__.py").is_file():
        print(f"error: no tvcsp sources under {ROOT / 'src'}; run from the "
              "root of a tvcsp checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for name in [k for k in os.environ if k.startswith("TVCSP_")]:
        del os.environ[name]
    # One CPU for this process and the children it starts, so that the
    # gauge reads the speed of the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    workload = bench.WORKLOADS[args.workload]
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.setup(args.seed, workdir)
        setup = [(time.perf_counter() - START) * GAUGE.scale()]
        setup += bench.setup_samples(args.workload, args.seed, workdir)
        run = workload.run(state, args.seconds, bool(args.trace), workdir)
        if args.trace:
            metrics = dict(run.layer)
            if args.workload == "scale-ladder":
                metrics.update(bench.ladder_layers(run))
            metrics.update(bench.child_layers(run))
            metrics.update(bench.micro_metrics(workdir))
            info = {}
        else:
            metrics, info = bench.end_to_end(run, setup, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = run.problems + [
        f"{r.rung.route} n={r.rung.n}: {r.problem or r.child.outcome}"
        for r in run.rungs if r.wrong]
    for r in run.rungs:
        print(f"rung {r.rung.route:13s} n={r.rung.n:<3d} "
              f"{r.child.outcome:12s} {1000 * r.child.wall_s:9.1f} ms"
              + (f"  {r.problem}" if r.problem else ""))
    for key, value in info.items():
        print(f"{key}: {value}")
    for problem in problems:
        print(f"WRONG: {problem}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared}
    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems,
                      "attempted": run.attempted + len(run.rungs),
                      "failed": len(problems), "metrics": out}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
