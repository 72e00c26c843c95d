"""In-memory span recorder that wraps esdsim's functions from outside the package.

Tracing rebinds module attributes (and one method) to timing wrappers, so
no esdsim source file changes. A wrapper on ``esdsim.cli.two_qubit_states``
sees only the calls ``cli`` makes; the same function reached through
``esdsim.events`` is a separate layer boundary.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _field_size(args):
    return {"nmax": args[1].nmax, "steps": len(args[2])}


def _intervals(result):
    return {"intervals": len(result),
            "endpoints": sum((not iv.open_left) + (not iv.open_right) for iv in result)}


def _oracle_series(args):
    return {"dim": args[0].dim, "nmax": args[1].nmax, "points": len(args[2])}


def _execute(result):
    return {"oracle_dev": result.oracle_deviation}


def _sweep(args, kwargs):
    return {"jobs": kwargs.get("jobs", args[1] if len(args) > 1 else 1)}


# (module, attribute, span name, kind, attrs from (args, kwargs, result))
# LEAF calls are too many for one span each (every time point of every run):
# their count and time are summed per thread and subtracted from the
# enclosing span's self time. COUNT calls are only counted.
WRAPS = (
    ("esdsim.cli", "sweep", "cli.sweep", SPAN, lambda a, k, r: _sweep(a, k)),
    ("esdsim.cli", "execute", "cli.execute", SPAN, lambda a, k, r: _execute(r)),
    ("esdsim.cli", "build_thermal", "model.build_thermal", SPAN, lambda a, k, r: {"nmax": r.nmax}),
    ("esdsim.cli", "two_qubit_states", "dynamics.series", SPAN, lambda a, k, r: _field_size(a)),
    ("esdsim.cli", "metric_sample", "observables.sample", LEAF, None),
    ("esdsim.cli", "scan_esd", "events.scan", SPAN, lambda a, k, r: _intervals(r)),
    ("esdsim.cli", "build_hamiltonians", "oracle.build", SPAN, None),
    ("esdsim.cli", "reduced_two_qubit_series", "oracle.reduce", SPAN,
     lambda a, k, r: _oracle_series(a)),
    ("esdsim.events", "two_qubit_states", "events.grid", SPAN, lambda a, k, r: _field_size(a)),
    ("esdsim.events", "two_qubit_state", "events.refine", SPAN, None),
    ("esdsim.dynamics", "sector_frequencies", "dynamics.sector", COUNT, None),
    ("esdsim.oracle", "HamiltonianMatrix.eigensystem", "oracle.eigh", SPAN, None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    self_s: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans and per-thread call counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._counters: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self._op = -1
        self._root: int | None = None
        self._op_start = 0.0

    # -- per-thread state -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._counters.append(counts)
        return counts

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1][0] if stack else self._root
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            attrs = {}
            if attrs_of is not None:
                try:
                    attrs = attrs_of(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    attrs = {}
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(),
                                   self._op, end - start - frame[1], attrs))
            return result
        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                stack = self._stack()
                if stack:
                    stack[-1][1] += dt
                c = self._counts().setdefault((self._op, name), [0, 0.0])
                c[0] += 1
                c[1] += dt
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts().setdefault((self._op, name), [0, 0.0])[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebind every wrapped attribute; names that no longer exist are noted."""
        self.missing = []
        for module_name, attr, name, kind, attrs_of in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(name)
                continue
            if kind == SPAN:
                wrapped = self._span(name, fn, attrs_of)
            elif kind == LEAF:
                wrapped = self._leaf(name, fn)
            else:
                wrapped = self._count(name, fn)
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, wrapped)

    def uninstall(self):
        while self._restore:
            owner, leaf, fn = self._restore.pop()
            setattr(owner, leaf, fn)

    def begin_op(self, op: int):
        """Open the root span of one operation on the calling thread."""
        self._op = op
        self._root = next(self._ids)
        self._stack().append([self._root, 0.0])
        self._op_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        sid, child = self._stack().pop()
        self.spans.append(Span(sid, "op", self._op_start, end, None, threading.get_ident(),
                               self._op, end - self._op_start - child))
        self._root = None

    def counters(self) -> list[dict]:
        """Summed counters as records of op, name, calls and seconds."""
        total: dict = {}
        for counts in self._counters:
            for key, (calls, secs) in counts.items():
                acc = total.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += secs
        return [{"op": op, "name": name, "calls": c, "seconds": s}
                for (op, name), (c, s) in sorted(total.items())]


# --------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better, the wrapped names it needs, what it should move)
LAYER_METRICS = {
    "model.thermal_s": ("s/op", "lower", ["model.build_thermal"], "nothing, on any workload"),
    "model.nmax": ("count", "lower", ["model.build_thermal"], "work-size descriptor"),
    "dynamics.series_s": ("s/op", "lower", ["dynamics.series"], "ops_per_s, op_p50_s on sweep"),
    "dynamics.series_cells": ("count/op", "lower", ["dynamics.series"],
                              "ops_per_s, op_p50_s on sweep"),
    "dynamics.ns_per_cell": ("ns", "lower", ["dynamics.series"], "ops_per_s, op_p50_s on sweep"),
    "dynamics.table_mb": ("MB", "lower", ["dynamics.series"], "peak_rss_mb on sweep"),
    "dynamics.sector_evals": ("count/op", "lower", ["dynamics.sector"],
                              "ops_per_s, op_p50_s on sweep and esd"),
    "observables.sample_s": ("s/op", "lower", ["observables.sample"], "ops_per_s on sweep"),
    "observables.samples": ("count/op", "lower", ["observables.sample"], "ops_per_s on sweep"),
    "events.scan_s": ("s/op", "lower", ["events.scan"], "op_p50_s, ops_per_s on esd"),
    "events.grid_s": ("s/op", "lower", ["events.grid"], "op_p50_s, ops_per_s on esd"),
    "events.refine_s": ("s/op", "lower", ["events.refine"], "op_p50_s, ops_per_s on esd"),
    "events.lambda_evals": ("count/op", "lower", ["events.refine"], "op_p50_s, ops_per_s on esd"),
    "events.endpoints": ("count/op", "higher", ["events.scan"],
                         "op_p50_s, ops_per_s on esd; must stay equal across commits"),
    "events.evals_per_endpoint": ("ratio", "lower", ["events.refine", "events.scan"],
                                  "op_p50_s, ops_per_s on esd"),
    "events.intervals": ("count/op", "higher", ["events.scan"],
                         "op_p50_s, ops_per_s on esd; must stay equal across commits"),
    "oracle.build_s": ("s/op", "lower", ["oracle.build"], "ops_per_s, op_p50_s on oracle"),
    "oracle.eigh_s": ("s/op", "lower", ["oracle.eigh"], "ops_per_s, op_p50_s on oracle"),
    "oracle.reduce_s": ("s/op", "lower", ["oracle.reduce"], "ops_per_s, op_p50_s on oracle"),
    "oracle.dim": ("count", "lower", ["oracle.reduce"], "ops_per_s, peak_rss_mb on oracle"),
    "oracle.points": ("count/op", "lower", ["oracle.reduce"], "ops_per_s on oracle"),
    "oracle.gflop": ("GFLOP/op", "lower", ["oracle.reduce"], "ops_per_s, op_p50_s on oracle"),
    "oracle.max_dev": ("abs", "lower", ["cli.execute"], "correctness on oracle"),
    "cli.execute_self_s": ("s/op", "lower", ["cli.execute"], "ops_per_s, op_p50_s on sweep"),
    "cli.output_mb": ("MB/op", "lower", [], "ops_per_s on sweep"),
    "cli.sweep_s": ("s/op", "lower", ["cli.sweep"], "ops_per_s, op_p50_s on sweep"),
    "cli.parallel_eff": ("ratio", "higher", ["cli.sweep", "cli.execute"],
                         "ops_per_s, op_p50_s on sweep"),
    "trace.overhead_frac": ("ratio", "lower", [], "nothing: the cost of tracing itself"),
}

# counts the harness computes from call arguments rather than measures
COMPUTED = ("dynamics.series_cells", "dynamics.table_mb", "dynamics.sector_evals",
            "events.lambda_evals", "oracle.gflop")

_TABLE_BYTES = 4 * 16  # four complex128 amplitude arrays per (sector, time) cell


def layer_metrics(spans: list[dict], counters: list[dict], traced_ops: int,
                  output_bytes: int, untraced_s: float, traced_s: float,
                  op_scale: dict[int, float]):
    """Per-layer values, per traced operation where the unit says /op.

    Seconds are scaled to the reference host speed by their operation's
    factor in ``op_scale`` (bench/speed.py).

    Returns (values, absent): a metric whose boundary was never crossed
    is absent and reads 0.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    calls = {c["name"]: 0 for c in counters}
    secs = dict.fromkeys(calls, 0.0)
    for c in counters:
        calls[c["name"]] += c["calls"]
        secs[c["name"]] += c["seconds"] * op_scale.get(c["op"], 1.0)

    def seen(name):
        return bool(by_name.get(name)) or calls.get(name, 0) > 0

    def dur(name):
        return sum((s["end"] - s["start"]) * op_scale.get(s["op"], 1.0)
                   for s in by_name.get(name, []))

    def self_time(name):
        return sum(s["self_s"] * op_scale.get(s["op"], 1.0) for s in by_name.get(name, []))

    def attr(name, key):
        return [s["attrs"][key] for s in by_name.get(name, [])
                if s["attrs"].get(key) is not None]

    ops = max(traced_ops, 1)
    cells = sum((n + 2) * t for n, t in zip(attr("dynamics.series", "nmax"),
                                            attr("dynamics.series", "steps")))
    tables = [(n + 2) * t * _TABLE_BYTES / 1e6
              for layer in ("dynamics.series", "events.grid")
              for n, t in zip(attr(layer, "nmax"), attr(layer, "steps"))]
    refine_calls = len(by_name.get("events.refine", []))
    endpoints = sum(attr("events.scan", "endpoints"))
    flops = sum(8 * d * d * (n + 1) * p for d, n, p in zip(
        attr("oracle.reduce", "dim"), attr("oracle.reduce", "nmax"),
        attr("oracle.reduce", "points")))
    jobs = attr("cli.sweep", "jobs")
    sweep_s = dur("cli.sweep")
    values = {
        "model.thermal_s": dur("model.build_thermal") / ops,
        "model.nmax": max(attr("model.build_thermal", "nmax"), default=0),
        "dynamics.series_s": dur("dynamics.series") / ops,
        "dynamics.series_cells": cells / ops,
        "dynamics.ns_per_cell": dur("dynamics.series") / cells * 1e9 if cells else 0.0,
        "dynamics.table_mb": max(tables, default=0.0),
        "dynamics.sector_evals": calls.get("dynamics.sector", 0) / ops,
        "observables.sample_s": secs.get("observables.sample", 0.0) / ops,
        "observables.samples": calls.get("observables.sample", 0) / ops,
        "events.scan_s": dur("events.scan") / ops,
        "events.grid_s": dur("events.grid") / ops,
        "events.refine_s": dur("events.refine") / ops,
        "events.lambda_evals": refine_calls / ops,
        "events.endpoints": endpoints / ops,
        "events.evals_per_endpoint": refine_calls / endpoints if endpoints else 0.0,
        "events.intervals": sum(attr("events.scan", "intervals")) / ops,
        "oracle.build_s": dur("oracle.build") / ops,
        "oracle.eigh_s": dur("oracle.eigh") / ops,
        "oracle.reduce_s": self_time("oracle.reduce") / ops,
        "oracle.dim": max(attr("oracle.reduce", "dim"), default=0),
        "oracle.points": sum(attr("oracle.reduce", "points")) / ops,
        "oracle.gflop": flops / ops / 1e9,
        "oracle.max_dev": max(attr("cli.execute", "oracle_dev"), default=0.0),
        "cli.execute_self_s": self_time("cli.execute") / ops,
        "cli.output_mb": output_bytes / 1e6 / ops,
        "cli.sweep_s": sweep_s / ops,
        "cli.parallel_eff": (dur("cli.execute") / (max(jobs) * sweep_s)
                             if jobs and sweep_s else 0.0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    absent = sorted(name for name, (_, _, needs, _) in LAYER_METRICS.items()
                    if any(not seen(n) for n in needs)
                    or (name == "oracle.max_dev" and not attr("cli.execute", "oracle_dev")))
    for name in absent:
        values[name] = 0
    return values, absent

