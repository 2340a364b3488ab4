"""Outside-in tracing for the benchmark: wrappers on the names that one
``dirlaw`` module imports from another, with no change to the program.

A *span* is recorded for every call of a wrapped layer entry point (a
CLI step, a CDF evaluation, a deviation report, a cache load).  Calls
that are too hot for one span each (``factorize``, quadrature ``nodes``,
MC tuple draws) are *aggregated*: a call count plus the total time spent
in them, measured on the calling thread's CPU clock so that time a pool
thread spends waiting for the GIL inside such a call is not charged to
it.

A layer's self time is its spans' durations minus the time of the spans
and aggregated calls nested directly inside them.  Each thread keeps its
own span stack.  Aggregated calls made on a worker thread (the
``--threads`` pool calls ``factorize``) have no span of their own on
that thread, so their time is charged against the innermost open span of
the thread that runs the steps, which is the integer engine call that
started the pool.  All shared state is updated under one lock.

Spans stay in memory and are written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = None            # span stack of the stepping thread
        self._patches = []           # (owner, attribute, original)
        self._ids = itertools.count()
        self.request = 0             # request id: the current step index
        self.spans = []              # dicts, written at the end
        self.self_ns = defaultdict(int)      # layer -> exclusive ns
        self.total_ns = defaultdict(int)     # "layer.name" -> inclusive ns
        self.calls = defaultdict(int)        # "layer.name" -> call count
        self.counters = defaultdict(int)
        self.cdf_keys = set()
        self.max_level = 0

    # ---------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_home(self):
        """Mark the calling thread as the one that runs the steps."""
        self._home = self._stack()

    @contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack()
        frame = {"layer": layer, "child_ns": 0, "id": next(self._ids)}
        parent = stack[-1]["id"] if stack else None
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            with self._lock:
                self.self_ns[layer] += dur - frame["child_ns"]
                key = f"{layer}.{name}"
                self.total_ns[key] += dur
                self.calls[key] += 1
                if stack:
                    stack[-1]["child_ns"] += dur
                self.spans.append({
                    "id": frame["id"], "request": self.request,
                    "layer": layer, "name": name, "parent": parent,
                    "start_ns": start, "end_ns": end,
                    "thread": threading.get_ident()})

    def _charge_hot(self, key: str, cpu_ns: int):
        stack = self._stack() or self._home
        with self._lock:
            self.calls[key] += 1
            self.total_ns[key] += cpu_ns
            if stack:
                stack[-1]["child_ns"] += cpu_ns

    # ----------------------------------------------------------- patching

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)`` until restore()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap_span(self, owner, attr: str, layer: str, name: str,
                  on_call=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                with self.span(layer, name):
                    return fn(*args, **kwargs)
            return wrapper
        self.patch(owner, attr, make)

    def wrap_hot(self, owner, attr: str, key: str, on_call=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                start = time.thread_time_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._charge_hot(key, time.thread_time_ns() - start)
            return wrapper
        self.patch(owner, attr, make)

    def wrap_count(self, owner, attr: str, key: str):
        """Count calls only; their time stays in the caller's self time."""
        def make(fn):
            def wrapper(*args, **kwargs):
                with self._lock:
                    self.calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        self.patch(owner, attr, make)

    def count(self, name: str, amount: int = 1):
        with self._lock:
            self.counters[name] += amount

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def seconds(self, key: str) -> float:
        return self.total_ns[key] / 1e9

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def instrument(tracer: Tracer, dirlaw) -> None:
    """Install every benchmark wrapper on the imported ``dirlaw`` package."""
    cli, caches, integers = dirlaw.cli, dirlaw.caches, dirlaw.integers
    perms, polyfield, series = dirlaw.perms, dirlaw.polyfield, dirlaw.series
    dirichlet, quadrature, arith = (dirlaw.dirichlet, dirlaw.quadrature,
                                    dirlaw.arith)
    t = tracer

    # caches: lookups from the CLI, and what a lookup does underneath
    t.wrap_span(cli, "get_spf_sieve", "caches", "get")
    t.wrap_span(cli, "get_irreducibles", "caches", "get")
    t.wrap_span(caches, "load_spf", "caches", "load",
                on_call=lambda *a, **k: t.count("caches.hits"))
    t.wrap_span(caches, "load_irreducibles", "caches", "load",
                on_call=lambda *a, **k: t.count("caches.hits"))
    t.wrap_span(caches, "save_spf", "caches", "save")
    t.wrap_span(caches, "save_irreducibles", "caches", "save")
    t.wrap_span(caches, "build_spf_sieve", "arith", "sieve",
                on_call=lambda *a, **k: t.count("caches.misses"))
    t.wrap_span(caches, "build_irreducibles", "polyfield", "table",
                on_call=lambda *a, **k: t.count("caches.misses"))

    # integers: the engine entry points the CLI imports
    t.wrap_span(cli, "sup_deviation", "integers", "sup_deviation",
                on_call=lambda x, *a, **k: t.count("integers.n_visited", x))
    t.wrap_span(cli, "convergence_study", "integers", "convergence_study",
                on_call=lambda xs, *a, **k: t.count("integers.n_visited",
                                                    sum(xs)))
    t.wrap_span(cli, "mc_lhs", "integers", "mc_lhs")
    t.wrap_span(cli, "weighted_sum_S", "integers", "weighted_sum_S")

    # arith: hot calls, aggregated
    t.wrap_hot(integers, "factorize", "arith.factorize")
    t.wrap_hot(series, "factorize", "arith.factorize")
    t.wrap_hot(arith, "sample_factorization_rng", "arith.sample")

    # dirichlet: every CDF call from the engines and the CLI
    def cdf_key(params, rect, tol=1e-9):
        alpha = getattr(params, "alpha", params)
        u = getattr(rect, "u", rect)
        key = (tuple(float(a) for a in alpha), tuple(float(c) for c in u),
               float(tol))
        with t._lock:
            t.cdf_keys.add(key)

    for owner in (integers, perms, polyfield, cli):
        t.wrap_span(owner, "cdf", "dirichlet", "cdf", on_call=cdf_key)

    # quadrature: node tables (hot) and the 1-D integrator
    def level(lv, *a, **k):
        with t._lock:
            t.max_level = max(t.max_level, int(lv))

    t.wrap_hot(dirichlet, "nodes", "quadrature.nodes", on_call=level)
    t.wrap_hot(quadrature, "nodes", "quadrature.nodes", on_call=level)
    t.wrap_span(quadrature, "integrate", "quadrature", "integrate")

    # perms, polyfield, series
    t.wrap_span(cli, "deviation_perm", "perms", "deviation")
    t.wrap_count(perms, "lhs_perm_exact", "perms.exact")
    t.wrap_span(cli, "deviation_poly", "polyfield", "deviation",
                on_call=lambda q, n, *a, **k: t.count(
                    "polyfield.codes_enumerated", q ** n))
    t.wrap_span(cli, "d_direct", "series", "direct")

    # report: grids, CSV formatting and the payload writer
    for owner in (integers, perms, polyfield):
        t.wrap_span(owner, "rect_grid", "report", "grid")
    t.wrap_span(cli, "report_csv", "report", "emit")
    t.wrap_span(cli, "convergence_csv", "report", "emit")
    t.wrap_span(cli, "_emit", "report", "emit",
                on_call=lambda payload, *a, **k: t.count(
                    "report.payload_bytes", len(payload.encode())))


def layer_metrics(tracer: Tracer, steps: int, cpu_s: float) -> dict:
    """The per-layer numbers of one traced repetition, by metric name."""
    t = tracer
    return {
        "integers.self_s": t.self_ns["integers"] / 1e9,
        "integers.n_visited": t.counters["integers.n_visited"],
        "integers.boxsum_s": t.seconds("integers.weighted_sum_S"),
        "arith.factorize_calls": t.calls["arith.factorize"],
        "arith.factorize_s": t.seconds("arith.factorize"),
        "arith.sample_calls": t.calls["arith.sample"],
        "arith.sieve_s": t.seconds("arith.sieve"),
        "caches.fill_s": t.seconds("caches.fill"),
        "caches.load_s": t.seconds("caches.load"),
        "caches.hits": t.counters["caches.hits"],
        "caches.misses": t.counters["caches.misses"],
        "dirichlet.cdf_calls": t.calls["dirichlet.cdf"],
        "dirichlet.cdf_unique": len(t.cdf_keys),
        "dirichlet.cdf_s": t.seconds("dirichlet.cdf"),
        "quadrature.nodes_calls": t.calls["quadrature.nodes"],
        "quadrature.max_level": t.max_level,
        "perms.exact_calls": t.calls["perms.exact"],
        "perms.self_s": t.self_ns["perms"] / 1e9,
        "polyfield.table_s": t.seconds("polyfield.table"),
        "polyfield.self_s": t.self_ns["polyfield"] / 1e9,
        "polyfield.codes_enumerated": t.counters["polyfield.codes_enumerated"],
        "series.direct_s": t.seconds("series.direct"),
        "report.emit_s": t.seconds("report.emit"),
        "report.payload_bytes": t.counters["report.payload_bytes"],
        "cli.steps": steps,
        "proc.cpu_s": cpu_s,
    }
