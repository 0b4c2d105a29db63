"""Fresh ``tvcsp`` child processes, one at a time, killed at a budget.

Exit codes follow the CLI: 0 answered, 1 rejected, 2 input error, 3 a size
cap.  A child still running at its budget is killed and counts as
over budget.  Every child is reaped before :func:`run_child` returns.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from checks import cli_answer
from gauge import ChildGauge
from workloads import ROOT, Rung

PERFBENCH = Path(__file__).resolve().parent
OUTCOMES = {0: "answered", 1: "rejected", 2: "input_error", 3: "capped"}

#: Wall-time budget of one ladder rung, start-up included.  The slowest
#: rung answered at the seed commit (oracle, n = 7) takes about 1.3 s; the
#: first one over budget (oracle, n = 8) about 9 s.
RUNG_BUDGET_S = 5.0


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM), in MB.  Unlike
    ``ru_maxrss``, it does not start from the RSS of the process that
    spawned this one."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` importable and the default
    size caps (no ``TVCSP_*`` override)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TVCSP_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


@dataclass
class ChildResult:
    outcome: str
    wall_s: float
    stdout: str
    exit_code: Optional[int] = None


def run_child(argv: list[str], budget_s: float, log: Path) -> ChildResult:
    """Run one child with stdout and stderr in ``log``; kill it at the
    budget.  The child is waited for without reaping first, so the timer
    can never signal a reused pid."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def expire():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(budget_s, expire)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    except BaseException:
        with lock:
            state["exited"] = True
            os.kill(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
    _, status = os.waitpid(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    stdout = log.read_text("utf-8", errors="replace")
    if state["killed"]:
        return ChildResult("over_budget", wall, stdout, None)
    return ChildResult(OUTCOMES.get(code, "crashed"), wall, stdout, code)


@dataclass
class RungResult:
    rung: Rung
    child: ChildResult
    problem: Optional[str] = None
    spans: list = field(default_factory=list)
    cache: tuple[int, int] = (0, 0)
    main_s: float = 0.0
    peak_rss_mb: float = 0.0
    scaled_wall_s: float = 0.0

    @property
    def answered(self) -> bool:
        return self.child.outcome == "answered" and self.problem is None

    @property
    def wrong(self) -> bool:
        """A wrong answer or an error, as opposed to a cap or the budget
        ending the climb."""
        return not self.answered and self.child.outcome not in (
            "capped", "over_budget")


class RungRunner:
    """Writes rung files once and runs rungs as children in ``workdir``,
    one reference child of the gauge between consecutive rungs."""

    def __init__(self, workdir: Path, budget_s: float = RUNG_BUDGET_S):
        self.workdir = workdir
        self.budget_s = budget_s
        workdir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.gauge = ChildGauge()

    def paths(self, rung: Rung) -> tuple[Path, Path]:
        stem = self.workdir / f"{rung.route}-{rung.n}"
        s, i = stem.with_suffix(".structure"), stem.with_suffix(".instance")
        if not s.exists():
            s.write_text(rung.structure_text, "utf-8")
            i.write_text(rung.instance_text, "utf-8")
        return s, i

    def run(self, rung: Rung, traced: bool) -> RungResult:
        s, i = self.paths(rung)
        self.count += 1
        report = self.workdir / f"report-{self.count}.json"
        argv = [sys.executable, str(PERFBENCH / "child.py"), "solve",
                str(report), "1" if traced else "0",
                "solve", "--structure", str(s), "--instance", str(i)]
        child = run_child(argv, self.budget_s,
                          self.workdir / f"child-{self.count}.log")
        result = RungResult(rung, child)
        result.scaled_wall_s = child.wall_s * self.gauge.scale()
        if child.outcome == "answered":
            result.problem = cli_answer(rung, child.stdout)
        elif child.outcome in ("rejected", "input_error", "crashed"):
            last = child.stdout.strip().splitlines()[-1:]
            result.problem = f"{child.outcome} (exit {child.exit_code}) " \
                + "".join(last)
        if report.exists():
            data = json.loads(report.read_text("utf-8"))
            result.spans = [tuple(s) for s in data["spans"]]
            result.cache = tuple(data["meta"]["distinct_outputs"])
            result.main_s = data["meta"]["main_s"]
            result.peak_rss_mb = data["meta"]["peak_rss_mb"]
            report.unlink()
        return result
