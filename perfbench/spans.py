"""Span tracing for the benchmark, kept outside the package it measures.

:func:`instrument` wraps every public function of the swarmdoppler layers
(``model``, ``special``, ``analytic``, ``simulate``, ``svgplot``, ``cli``)
and installs the wrapper in every swarmdoppler namespace that holds the
function, because ``cli`` and the package ``__init__`` import by name.
Each call records a span: name, start, end, parent span, run id and thread,
plus work counts for the calls whose cost depends on their arguments.
Spans stay in memory until :meth:`Tracer.write` is called at the end of
the job.

Pool threads start with an empty span stack.  A span started there takes
the open ``simulate.simulate_ensemble`` span as its parent, which is the
only public function that starts a pool.

The rest of the module is the arithmetic that turns spans into per-layer
metrics: self time (a span minus the union of its children, which may
overlap when they ran on different pool threads), the wall-clock share of
each layer, the pool busy ratio and the tracing overhead.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

PACKAGE = "swarmdoppler"
LAYERS = ("model", "special", "analytic", "simulate", "svgplot", "cli")
POOL_SPAN = "simulate.simulate_ensemble"
POOL_WORK = ("simulate.sample_state", "simulate.synthesize")
ROOT_SPAN = "job"
FLOAT64_BYTES = 8

# name, unit, better, the end-to-end metric it should move and where
LAYER_METRICS = (
    ("simulate.synthesize.calls", "count", "lower",
     "wall_s, realizations_per_s on validate-mavic and swarm-simulate; flat on analytic-sweep"),
    ("simulate.synthesize.s", "s", "lower",
     "wall_s, realizations_per_s on validate-mavic and swarm-simulate; flat on analytic-sweep"),
    ("simulate.synthesize.scatterer_samples_per_s", "1/s", "higher",
     "wall_s, realizations_per_s on validate-mavic and swarm-simulate"),
    ("simulate.sample_state.s", "s", "lower", "realizations_per_s, mostly on swarm-simulate"),
    ("simulate.simulate_ensemble.s", "s", "lower", "realizations_per_s, mostly on swarm-simulate"),
    ("simulate.simulate_ensemble.realizations_per_s", "1/s", "higher",
     "realizations_per_s, mostly on swarm-simulate"),
    ("simulate.pool_busy_ratio", "ratio", "higher", "realizations_per_s, mostly on swarm-simulate"),
    ("simulate.ensemble_bytes_computed", "bytes", "lower", "peak_rss_mb on validate-mavic"),
    ("simulate.estimate_acf.single_reference.s", "s", "lower", "wall_s on validate-mavic"),
    ("simulate.estimate_acf.time_average.s", "s", "lower", "wall_s on validate-mavic"),
    ("simulate.estimate_psd.s", "s", "lower", "wall_s on validate-mavic"),
    ("simulate.save_ensemble.s", "s", "lower", "wall_s on swarm-simulate"),
    ("simulate.save_ensemble.bytes", "bytes", "lower", "wall_s on swarm-simulate"),
    ("simulate.load_ensemble.s", "s", "lower", "wall_s on swarm-simulate"),
    ("simulate.spectrogram.s", "s", "lower", "wall_s on swarm-simulate"),
    ("cli.self_s", "s", "lower", "wall_s on swarm-simulate"),
    ("special.bessel_j_many.calls", "count", "lower",
     "points_per_s on analytic-sweep; flat on validate-mavic"),
    ("special.bessel_j_many.s", "s", "lower",
     "points_per_s on analytic-sweep; flat on validate-mavic"),
    ("special.bessel_j.calls", "count", "lower",
     "points_per_s on analytic-sweep; flat on validate-mavic"),
    ("special.bessel_j.elements", "count", "lower",
     "points_per_s on analytic-sweep; flat on validate-mavic"),
    ("special.bessel_j.s", "s", "lower",
     "points_per_s on analytic-sweep; flat on validate-mavic"),
    ("analytic.acf_eval.s", "s", "lower", "points_per_s, peak_rss_mb on analytic-sweep"),
    ("analytic.acf_eval.term_points", "count", "lower",
     "points_per_s, peak_rss_mb on analytic-sweep"),
    ("analytic.psd_eval.s", "s", "lower", "points_per_s, peak_rss_mb on analytic-sweep"),
    ("analytic.psd_eval.term_points", "count", "lower",
     "points_per_s, peak_rss_mb on analytic-sweep"),
    ("analytic.acf_deterministic_eval.s", "s", "lower", "points_per_s on analytic-sweep"),
    ("analytic.coefficient_power_fraction.s", "s", "lower", "points_per_s on analytic-sweep"),
    ("analytic.temp_bytes_computed", "bytes", "lower", "peak_rss_mb on analytic-sweep"),
    ("model.load_config.s", "s", "lower", "setup_s on all workloads"),
    ("analytic.build_acf.s", "s", "lower", "setup_s on all workloads"),
    ("analytic.build_psd.s", "s", "lower", "setup_s on all workloads"),
    ("svgplot.s", "s", "lower", "wall_s on validate-mavic"),
    ("layer.model.s", "s", "lower", "wall_s; share of the traced job spent in this layer"),
    ("layer.special.s", "s", "lower", "wall_s; share of the traced job spent in this layer"),
    ("layer.analytic.s", "s", "lower", "wall_s; share of the traced job spent in this layer"),
    ("layer.simulate.s", "s", "lower", "wall_s; share of the traced job spent in this layer"),
    ("layer.svgplot.s", "s", "lower", "wall_s; share of the traced job spent in this layer"),
    ("layer.cli.s", "s", "lower", "wall_s; share of the traced job spent in this layer"),
    ("trace.untraced_s", "s", "lower", "wall_s; job time outside every traced call"),
    ("trace.job_wall_s", "s", "lower", "wall_s; the traced job, the layer shares sum to it"),
    ("trace.overhead_s", "s", "lower", "none; traced wall_s minus untraced wall_s"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(values) -> int:
    return int(np.size(values))


def _synthesize(a):
    p = a["params"]
    return {"scatterer_samples": p.n_drones * p.n_rotors * p.n_blades * a["grid"].n_samples}


def _simulate_ensemble(a):
    n = a["n_realizations"]
    return {"realizations": n, "workers": max(1, a["n_workers"]),
            "bytes": n * a["grid"].n_samples * np.dtype(a["dtype"]).itemsize}


def _term_points(terms: int, points: int) -> dict:
    return {"term_points": terms * points, "temp_bytes": terms * points * FLOAT64_BYTES}


# work counts read from a call's bound arguments once it has returned
COUNTERS = {
    "simulate.synthesize": _synthesize,
    "simulate.simulate_ensemble": _simulate_ensemble,
    "simulate.estimate_acf": lambda a: {"time_average": bool(a["time_average"])},
    "simulate.save_ensemble": lambda a: {"bytes": os.path.getsize(a["path"])},
    "special.bessel_j": lambda a: {"elements": _size(a["x"])},
    "analytic.acf_eval": lambda a: _term_points(a["acf"].n_terms, _size(a["tau"])),
    "analytic.psd_eval": lambda a: _term_points(a["psd"].centers.size, _size(a["freq"])),
}


class Tracer:
    """In-memory span recorder shared by the main thread and pool threads."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        outer_pool = self._pool_parent
        if name == POOL_SPAN:
            self._pool_parent = sid
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == POOL_SPAN:
                self._pool_parent = outer_pool
            counter = COUNTERS.get(name)
            if not returned:
                attrs = {"error": True}
            else:
                attrs = counter(_bound(fn, args, kwargs)) if counter else {}
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run_id,
                                       threading.get_ident(), attrs))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def root(self, body):
        """Run ``body()`` inside the root span of one job and return its result."""
        return self.call(ROOT_SPAN, body, (), {})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def instrument(tracer: Tracer) -> list:
    """Wrap the public functions of every layer; return what :func:`restore` undoes."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == module.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    patched = []
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(namespace, attr, wrapper)
                patched.append((namespace, attr, obj))
    return patched


def restore(patched: list) -> None:
    for namespace, attr, original in patched:
        setattr(namespace, attr, original)


# ---- arithmetic over spans -------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def descendants(root: Span, kids: dict) -> list:
    """``root`` and every span below it, across threads."""
    found, todo = [], [root]
    while todo:
        span = todo.pop()
        found.append(span)
        todo.extend(kids.get(span.id, ()))
    return found


def self_time(span: Span, children) -> float:
    """The span's duration minus the union of its children, clipped to it."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])


def leaf_shares(spans) -> dict:
    """Wall time of each span while it ran with no running child.

    When several such leaf spans run at once (pool threads), the instant is
    split evenly between them, so the shares of all spans sum to the time
    during which any span ran.
    """
    by_id = {s.id: s for s in spans}

    def depth(s):
        d = 0
        while s.parent in by_id:
            s = by_id[s.parent]
            d += 1
        return d

    events = []
    for s in spans:
        d = depth(s)
        events.append((s.start, 1, d, s))
        events.append((s.end, 0, -d, s))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    shares = {s.id: 0.0 for s in spans}
    running_children: dict = {}
    active: set = set()
    leaves: set = set()
    last = None
    for t, is_start, _, s in events:
        if leaves and last is not None and t > last:
            portion = (t - last) / len(leaves)
            for sid in leaves:
                shares[sid] += portion
        last = t
        parent_active = s.parent in active
        if is_start:
            active.add(s.id)
            leaves.add(s.id)
            if parent_active:
                running_children[s.parent] = running_children.get(s.parent, 0) + 1
                leaves.discard(s.parent)
        else:
            active.discard(s.id)
            leaves.discard(s.id)
            if parent_active:
                running_children[s.parent] -= 1
                if running_children[s.parent] == 0:
                    leaves.add(s.parent)
    return shares


def pool_busy_ratio(spans) -> float:
    """Worker time in sample_state + synthesize over workers x ensemble span."""
    kids = children_of(spans)
    busy = capacity = 0.0
    for s in spans:
        if s.name == POOL_SPAN:
            busy += sum(c.duration for c in kids.get(s.id, ()) if c.name in POOL_WORK)
            capacity += s.attrs.get("workers", 1) * s.duration
    return busy / capacity if capacity > 0 else 0.0


def _sum(spans, name, key=None) -> float:
    return sum((s.attrs.get(key, 0) if key else s.duration) for s in spans if s.name == name)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced process; one span must be the job root.

    Call counts and times cover every span, set-up included; the layer
    shares and ``trace.untraced_s`` cover the job root and what ran below it.

    ``trace.overhead_s`` needs an untraced run and is added by the caller.
    """
    kids = children_of(spans)
    root = next(s for s in spans if s.name == ROOT_SPAN)
    job = descendants(root, kids)
    shares = leaf_shares(job)
    m = {}
    for name in ("simulate.synthesize", "special.bessel_j_many", "special.bessel_j"):
        m[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    for name in ("simulate.synthesize", "simulate.sample_state",
                 "simulate.simulate_ensemble", "simulate.estimate_psd",
                 "simulate.save_ensemble", "simulate.load_ensemble",
                 "simulate.spectrogram", "special.bessel_j_many", "special.bessel_j",
                 "analytic.acf_eval", "analytic.psd_eval",
                 "analytic.acf_deterministic_eval", "analytic.coefficient_power_fraction",
                 "model.load_config", "analytic.build_acf", "analytic.build_psd"):
        m[f"{name}.s"] = _sum(spans, name)
    m["simulate.synthesize.scatterer_samples_per_s"] = _rate(
        _sum(spans, "simulate.synthesize", "scatterer_samples"), m["simulate.synthesize.s"])
    m["simulate.simulate_ensemble.realizations_per_s"] = _rate(
        _sum(spans, POOL_SPAN, "realizations"), m["simulate.simulate_ensemble.s"])
    m["simulate.pool_busy_ratio"] = pool_busy_ratio(spans)
    m["simulate.ensemble_bytes_computed"] = _sum(spans, POOL_SPAN, "bytes")
    for estimator, flag in (("single_reference", False), ("time_average", True)):
        m[f"simulate.estimate_acf.{estimator}.s"] = sum(
            s.duration for s in spans
            if s.name == "simulate.estimate_acf" and s.attrs.get("time_average") is flag)
    m["simulate.save_ensemble.bytes"] = _sum(spans, "simulate.save_ensemble", "bytes")
    m["special.bessel_j.elements"] = _sum(spans, "special.bessel_j", "elements")
    m["cli.self_s"] = sum(self_time(s, kids.get(s.id, ())) for s in spans
                          if s.name.startswith("cli.cmd_"))
    m["analytic.acf_eval.term_points"] = _sum(spans, "analytic.acf_eval", "term_points")
    m["analytic.psd_eval.term_points"] = _sum(spans, "analytic.psd_eval", "term_points")
    m["analytic.temp_bytes_computed"] = max(
        [s.attrs.get("temp_bytes", 0) for s in spans
         if s.name in ("analytic.acf_eval", "analytic.psd_eval")], default=0)
    m["svgplot.s"] = sum(s.duration for s in spans if s.name.startswith("svgplot."))
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = sum(shares[s.id] for s in job
                                   if s.name.split(".")[0] == layer)
    m["trace.untraced_s"] = shares[root.id]
    m["trace.job_wall_s"] = root.duration
    return m
