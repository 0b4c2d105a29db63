"""Span tracer placed around the public functions of each tvcsp layer.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces each
listed function by a wrapper in every ``tvcsp`` module that holds the
original (``solvers`` imports ``classify_temporal`` and the crisp backends
by name, ``cli`` imports ``solve_dispatch``, and so on), and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory as
tuples and are written out once, at the end of a run.

Per-element helpers that run millions of times (``canonical_ranks``,
``apply_values``, ``joint_configs`` and the like) are not wrapped: their
wrapper would cost more than their body.  ``cost`` is measured only through
its callers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable

#: Wrapped functions per layer module, in report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "orders": ("enumerate_weak_orders",),
    "canonops": ("improves", "preserves", "improves_structure",
                 "preserves_structure"),
    "relations": ("build_hat", "feas_structure", "is_equality_invariant",
                  "feas", "opt", "minor"),
    "classify": ("classify_temporal", "classify_equality"),
    "cspengine": ("solve_crisp_complete", "solve_crisp_minlayer",
                  "forced_equalities"),
    "solvers": ("solve_dispatch", "solve_oracle", "solve_const",
                "solve_equality_inj", "solve_lex", "solve_essentially_crisp",
                "evaluate"),
    "files": ("parse_structure", "parse_instance"),
    "cli": ("main",),
}

QUALNAMES: tuple[str, ...] = tuple(
    f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _oracle_size(args, kwargs) -> int:
    inst = args[1] if len(args) > 1 else kwargs["inst"]
    return len(inst.variables)


#: Extra integer recorded with a span, computed from the call arguments.
_ANNOTATE: dict[str, Callable] = {"solvers.solve_oracle": _oracle_size}


class Tracer:
    """Collects ``(name, start, end, parent, request, extra)`` spans."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = _ANNOTATE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if annotate:
                    extra = annotate(args, kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.request, extra)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every listed function in every loaded tvcsp module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import tvcsp  # noqa: F401  (loads every layer module)
        import tvcsp.cli  # noqa: F401
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tvcsp" or n.startswith("tvcsp.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"tvcsp.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()



def write_spans(path: Path, spans: list, meta: dict) -> None:
    """Write spans as JSON: ``{"meta": ..., "spans": [...]}``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "spans": spans}),
                    encoding="utf-8")


def aggregate(spans: list, requests: int) -> dict[str, float]:
    """``<module>.<function>.{ms,calls}`` per request, plus derived ratios.

    ``ms`` is inclusive wall time.  ``solvers.solve_dispatch.self_ms`` is the
    dispatch span minus the time its direct child spans cover.
    """
    requests = max(requests, 1)
    total = {q: 0.0 for q in QUALNAMES}
    calls = {q: 0 for q in QUALNAMES}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for q in QUALNAMES:
        out[f"{q}.ms"] = 1000.0 * total[q] / requests
        out[f"{q}.calls"] = calls[q] / requests

    dispatch_self = sum(end - start - child_time[i]
                        for i, (name, start, end, *_rest) in enumerate(spans)
                        if name == "solvers.solve_dispatch")
    out["solvers.solve_dispatch.self_ms"] = 1000.0 * dispatch_self / requests
    classify = total["classify.classify_temporal"] + \
        total["classify.classify_equality"]
    dispatch = total["solvers.solve_dispatch"]
    out["classify.share_of_dispatch"] = \
        classify / dispatch if dispatch else 0.0

    probes = sum(1 for name, _, _, parent, _, _ in spans
                 if name == "cspengine.solve_crisp_complete" and parent >= 0
                 and spans[parent][0] == "cspengine.forced_equalities")
    fe_calls = calls["cspengine.forced_equalities"]
    out["cspengine.probes_per_forced_equalities"] = \
        probes / fe_calls if fe_calls else 0.0

    orders = oracle_s = 0.0
    for name, start, end, _, _, extra in spans:
        if name == "solvers.solve_oracle":
            orders += ordered_bell(extra)
            oracle_s += end - start
    out["solvers.oracle.orders_per_s"] = orders / oracle_s if oracle_s else 0.0
    return out


def ordered_bell(n: int) -> int:
    """Number of weak orders on ``n`` points (Fubini numbers)."""
    from math import comb
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def span_total(spans: list, name: str) -> float:
    """Summed seconds of the spans with the given qualified name."""
    return sum(end - start for n, start, end, *_ in spans if n == name)
