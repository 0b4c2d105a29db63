"""Entry point of the benchmark's child processes.

    child.py solve <report.json> <0|1> <tvcsp CLI arguments...>
        run ``tvcsp``, with the tracer installed when the flag is 1, and
        write the run's peak RSS, ``cli.main`` time and spans to the report
    child.py setup <workload> <seed>
        do one workload's set-up in a fresh process and print its seconds
    child.py micro <name>
        run one fixed-size micro-timing and print its metrics

``solve`` exits with the CLI's code; ``setup`` and ``micro`` print one
JSON line.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _solve(report: str, traced: bool, argv: list[str]) -> int:
    """Untraced, nothing of the benchmark loads before ``cli.main``
    returns, so the child's wall time is that of ``tvcsp`` itself."""
    import tvcsp.cli
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    code = 1
    start = time.perf_counter()
    try:
        code = tvcsp.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        _report(Path(report), main_s, tracer.spans if tracer else [])
    return code


def _report(path: Path, main_s: float, spans: list) -> None:
    from tvcsp import canonops
    from procs import peak_rss_mb
    from tracer import write_spans
    info = canonops._distinct_outputs.cache_info()
    write_spans(path, spans, {"distinct_outputs": [info.hits, info.misses],
                              "main_s": main_s, "peak_rss_mb": peak_rss_mb()})


def _setup(workload: str, seed: int) -> int:
    import json
    import os
    import shutil
    import bench
    workdir = HERE / "out" / f"setup-{workload}-{seed}-{os.getpid()}"
    try:
        bench.WORKLOADS[workload].setup(seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - START}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _micro(name: str) -> int:
    import json
    import micro
    print(json.dumps(micro.ITEMS[name]()))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "solve":
        return _solve(rest[0], rest[1] == "1", rest[2:])
    if mode == "setup":
        return _setup(rest[0], int(rest[1]))
    if mode == "micro":
        return _micro(rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
