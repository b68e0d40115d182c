"""Outside-in call tracing of collapselab, and the per-layer metrics built from it.

The tracer replaces the public functions of each collapselab module, the public
methods of ``SplittingMap`` and the SciPy solver entry points that collapselab
calls with timing wrappers.  Modules import each other with ``from .x import
y``, so a function is bound in several namespaces; every ``collapselab.*``
binding of it is replaced.  No file of the package changes.

Each call becomes a span: name, start, end, parent span, pid and run id.  Spans
are kept in memory in every process, including sweep workers, and written to
``<trace dir>/spans-<pid>.jsonl`` when the process ends.  Only the main thread
runs collapselab code, so one span stack per process suffices.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

LAYER_MODULES = ("manifold", "operators", "spectral", "splitting", "flow", "estimates", "cli")
TRACED_CLASSES = {"splitting": ("SplittingMap",)}
SCIPY_ENTRY_POINTS = ("spsolve", "eigsh")


# ---------------------------------------------------------------------------
# span attributes recorded for a few calls
# ---------------------------------------------------------------------------


def _interp_points(args, kwargs, result):
    shape = np.shape(args[2] if len(args) > 2 else kwargs["pts"])
    return {"points": 1 if len(shape) == 1 else int(shape[0])}


def _dijkstra_sources(args, kwargs, result):
    M = args[0]
    sources = args[1] if len(args) > 1 else kwargs["sources"]
    digest = hashlib.sha1(repr(M.family).encode())
    digest.update(np.unique(np.asarray(sources, dtype=np.int64)).tobytes())
    return {"sources": digest.hexdigest()[:16]}


def _fiber_regular(args, kwargs, result):
    return {"irregular": not result.regular}


def _flow_steps(args, kwargs, result):
    return {"steps": len(result.times) - 1}


def _shift_invert(args, kwargs, result):
    return {"shiftInvert": kwargs.get("sigma") is not None}


ATTRIBUTE_HOOKS = {
    "operators.interp_scalar": _interp_points,
    "manifold.graph_distances": _dijkstra_sources,
    "manifold.extract_fiber": _fiber_regular,
    "flow.integrate_flow": _flow_steps,
    "scipy.eigsh": _shift_invert,
}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Span recorder for one process; ``wrap`` makes a traced copy of a function."""

    def __init__(self, trace_dir: str | Path, run_id: str):
        self.trace_dir = Path(trace_dir)
        self.run_id = run_id
        self._reset()
        atexit.register(self.flush)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.ids = itertools.count()
        self.stack: list[str] = []

    def _after_fork(self) -> None:
        # A forked worker keeps the parent's open spans as its parents, but
        # none of its recorded spans; it exits through os._exit, which skips
        # atexit, so its flush is a multiprocessing finalizer.
        stack = self.stack
        self._reset()
        self.stack = list(stack)
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def wrap(self, name: str, fn):
        hook = ATTRIBUTE_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{self.pid}-{next(self.ids)}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.stack.pop()
                self.spans.append((span_id, name, start, time.perf_counter(), parent, type(exc).__name__, None))
                raise
            end = time.perf_counter()
            self.stack.pop()
            attrs = hook(args, kwargs, result) if hook is not None else None
            self.spans.append((span_id, name, start, end, parent, None, attrs))
            return result

        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span_id, name, start, end, parent, error, attrs in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "pid": self.pid,
                    "run": self.run_id,
                }
                if error is not None:
                    record["error"] = error
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")
        self.spans = []


def _traced_targets():
    """(span name, function) for every call the tracer times."""
    targets = []
    for short in LAYER_MODULES:
        module = importlib.import_module(f"collapselab.{short}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                targets.append((f"{short}.{attr}", obj))
    for name in SCIPY_ENTRY_POINTS:
        targets.append((f"scipy.{name}", getattr(scipy.sparse.linalg, name)))
    return targets


def install(trace_dir: str | Path, run_id: str) -> Tracer:
    """Wrap every traced function in every namespace that binds it."""
    tracer = Tracer(trace_dir, run_id)
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in _traced_targets()}
    namespaces = [m for n, m in list(sys.modules.items()) if n == "collapselab" or n.startswith("collapselab.")]
    # build_cutoff imports spsolve from scipy when it runs, so the SciPy
    # namespace itself is rebound too.
    namespaces.append(scipy.sparse.linalg)
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    for short, classes in TRACED_CLASSES.items():
        module = importlib.import_module(f"collapselab.{short}")
        for cls_name in classes:
            cls = getattr(module, cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    setattr(cls, attr, tracer.wrap(f"{short}.{cls_name}.{attr}", obj))
    return tracer


def install_from_env() -> Tracer:
    return install(os.environ[TRACE_DIR_ENV], os.environ.get(RUN_ID_ENV, "run"))


# ---------------------------------------------------------------------------
# reading spans back and deriving per-layer metrics
# ---------------------------------------------------------------------------


def read_spans(trace_dir: str | Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


class SpanIndex:
    """Spans grouped by name, with inclusive and self time."""

    def __init__(self, spans: list[dict]):
        self.by_id = {s["id"]: s for s in spans}
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.child_time: dict[str, float] = defaultdict(float)
        for s in spans:
            self.by_name[s["name"]].append(s)
            # a forked worker's spans name the parent's open span, but run
            # beside it, so only same-process children reduce self time
            if s["parent"] is not None and s["parent"].startswith(f"{s['pid']}-"):
                self.child_time[s["parent"]] += s["end"] - s["start"]

    def ancestors(self, span: dict):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def inclusive_s(self, name: str) -> float:
        """Summed duration, counting a recursive call only at its outermost span."""
        return sum(
            s["end"] - s["start"]
            for s in self.by_name[name]
            if not any(a["name"] == name for a in self.ancestors(s))
        )

    def self_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] - self.child_time[s["id"]] for s in self.by_name[name])

    def errors(self, name: str) -> int:
        return sum(1 for s in self.by_name[name] if "error" in s)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in self.by_name[name])

    def under(self, name: str, ancestor_prefix: str) -> list[dict]:
        return [
            s for s in self.by_name[name] if any(a["name"].startswith(ancestor_prefix) for a in self.ancestors(s))
        ]

    def summary(self) -> dict:
        """calls, inclusive and self seconds of every span name."""
        return {
            name: {"calls": self.calls(name), "s": self.inclusive_s(name), "self_s": self.self_s(name)}
            for name in sorted(self.by_name)
        }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, by the names in BENCHMARK.json."""
    ix = SpanIndex(spans)
    out: dict[str, float] = {}

    def timed(name, *fields):
        for f in fields:
            value = {
                "calls": ix.calls,
                "s": ix.inclusive_s,
                "self_s": ix.self_s,
                "errors": ix.errors,
            }[f](name)
            out[f"{name}.{f}"] = value

    timed("manifold.build_family", "s")
    timed("manifold.graph_distances", "calls", "s")
    sources = [s["attrs"]["sources"] for s in ix.by_name["manifold.graph_distances"]]
    out["manifold.graph_distances.repeats"] = len(sources) - len(set(sources))
    timed("manifold.geodesic_ball", "errors")
    timed("manifold.extract_fiber", "calls", "errors", "self_s")
    out["manifold.extract_fiber.irregular"] = int(ix.attr_sum("manifold.extract_fiber", "irregular"))
    timed("manifold.epsilon_proxy", "s")

    timed("operators.interp_scalar", "calls", "s")
    out["operators.interp_scalar.points"] = int(ix.attr_sum("operators.interp_scalar", "points"))
    timed("operators.laplacian_matrix", "calls", "self_s")
    timed("operators.stiffness_apply", "calls", "s")
    timed("operators.hessian", "calls", "s")

    timed("spectral.eigenpairs", "calls", "s")
    eigsh = ix.by_name["scipy.eigsh"]
    out["spectral.eigsh.calls"] = len(eigsh)
    out["spectral.eigsh.s"] = ix.inclusive_s("scipy.eigsh")
    timed("spectral.cheng_yau_ratio", "s")

    timed("splitting.harmonic_coordinates", "s")
    harmonic = ix.under("scipy.spsolve", "splitting.")
    out["splitting.spsolve.calls"] = len(harmonic)
    out["splitting.spsolve.s"] = sum(s["end"] - s["start"] for s in harmonic)
    timed("splitting.SplittingMap.project_to_level", "calls", "s")
    timed("splitting.SplittingMap.evaluate", "calls")
    timed("splitting.certify", "s")

    timed("flow.integrate_flow", "s")
    out["flow.integrate_flow.steps"] = int(ix.attr_sum("flow.integrate_flow", "steps"))
    timed("flow.fiber_apriori_check", "calls", "s")
    timed("flow.tangential_projection", "s")

    timed("estimates.run_point", "s")
    timed("estimates.build_cutoff", "s")
    cutoff = ix.under("scipy.spsolve", "estimates.build_cutoff")
    out["estimates.cutoff_spsolve.calls"] = len(cutoff)
    out["estimates.cutoff_spsolve.s"] = sum(s["end"] - s["start"] for s in cutoff)
    for name in ("hessian_l2_bound", "interior_l2_report", "main_theorem_report", "w22_k_bound"):
        timed(f"estimates.{name}", "s")

    out["cli.sweep.workers"] = len({s["pid"] for s in ix.by_name["estimates.run_point"]})
    shift_invert = sum(1 for s in eigsh if s.get("attrs", {}).get("shiftInvert"))
    out["linalg.solves"] = ix.calls("scipy.spsolve") + shift_invert
    out["trace.spans"] = len(spans)
    return out
