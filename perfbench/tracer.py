"""Spans around the public functions of each layer, from the outside.

The traced run replaces each function named in :data:`LAYERS` (in its
defining module, in every ``repro`` module that imported it by name, or
on its class) with a wrapper that records a span: name, start, end and
the span that caused it.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the part of it that its child
spans cover; the per-layer ``.ms`` metrics are sums of self times.

Nothing here runs in the untraced runs, which give the end-to-end
numbers; the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span name -> ``module:qualname`` of each function it wraps.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.allocate": ("repro.core.allocator:URSAAllocator.run",),
    "core.measure": ("repro.core.measure:measure_all",),
    "core.kill": ("repro.core.kill:select_kill",),
    "pm.trial": ("repro.pm.incremental:IncrementalMeasurer.trial",),
    "pipeline.build_dag": ("repro.pipeline:build_dag",),
    "scheduling.list": ("repro.scheduling.list_scheduler:ListScheduler.run",),
    "core.assign": ("repro.core.assignment:assign",),
    "verify.schedule": ("repro.verify.schedule_rules:verify_schedule",),
    "core.codegen": ("repro.core.codegen:lower_schedule",),
    "program.traces": (
        "repro.program_compiler:entry_safe_traces",
        "repro.program_compiler:prepare_trace",
    ),
    "methods.schedule_pass": ("repro.pipeline:_pass_schedule",),
    "methods.portfolio": ("repro.methods.portfolio:run_portfolio_pass",),
    "methods.bnb": ("repro.methods.bnb:run_bnb_pass",),
    "machine.simulate": ("repro.machine.simulator:VLIWSimulator.run",),
    "ir.interp": (
        "repro.ir.interp:Interpreter.run_program",
        "repro.ir.interp:Interpreter.run_trace",
    ),
    "serve.handle": (
        "repro.serve.server:_Handler.do_POST",
        "repro.serve.server:_Handler.do_GET",
    ),
    "analyze.admit": ("repro.serve.protocol:_admit",),
    "analyze.report": ("repro.analyze:analyze_source",),
    "ir.parse": ("repro.ir.parser:parse_program",),
    "serve.trace_key": ("repro.serve.cache:trace_key",),
    "serve.cache.get": ("repro.serve.cache:CompileCache.get",),
    "serve.cache.put": ("repro.serve.cache:CompileCache.put",),
    "serve.compile": ("repro.serve.shard:_compile_one",),
    "serve.pool.map_shards": ("repro.serve.pool:WorkerPool.map_shards",),
}

#: counter name -> function whose calls it counts (no span, no timing).
CALL_COUNTERS: Dict[str, str] = {
    "graph.topo_order.calls": "repro.graph.dag:DependenceDAG.topological_order",
    "graph.topo_order.rebuilds":
        "repro.graph.dag:DependenceDAG._topological_order_uncached",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Records spans and call counts while :attr:`recording` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.recording = True
        #: cause of spans opened on a thread with no open span (the
        #: client's request span, for the server's handler threads).
        self.cause: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, root: bool = False) -> Optional[Span]:
        """Open a span; outside a root span (an operation or a request)
        nothing is recorded, so the benchmark's own checks stay out."""
        if not self.recording:
            return None
        stack = self._stack()
        parent = stack[-1].id if stack else self.cause
        if parent is None and not root:
            return None
        span = Span(next(self._ids), name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[Optional[Span]]:
        """A root span around one operation."""
        span = self.open(name, root=True)
        try:
            yield span
        finally:
            self.close(span)

    # -- installing the wrappers ------------------------------------------
    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` and :data:`CALL_COUNTERS`."""
        for name, targets in LAYERS.items():
            for target in targets:
                self._patch(target, lambda fn, name=name: self._timed(fn, name))
        for name, target in CALL_COUNTERS.items():
            self._patch(target, lambda fn, name=name: self._counted(fn, name))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _timed(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            owner_name, attr = qualname.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._restore.append(lambda: setattr(owner, attr, original))
            return
        original = getattr(module, qualname)
        wrapped = make(original)
        # The defining module and every module that imported the
        # function by name hold their own reference to it.
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    self._restore.append(
                        lambda holder=holder, attr=attr:
                        setattr(holder, attr, original)
                    )

    # -- summaries -----------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """span name -> (total self seconds, number of spans)."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            covered = _covered(span, children.get(span.id, ()))
            entry = totals[span.name]
            entry[0] += (span.end - span.start) - covered
            entry[1] += 1
        return {name: (value[0], int(value[1])) for name, value in totals.items()}


def _covered(span: Span, children) -> float:
    """Seconds of ``span`` covered by the union of its children."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def per_layer(tracer: Tracer, counters: Dict[str, float], rounds: int,
              root: str) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, per round; 0 where a layer is not reached.

    ``root`` names the span around each operation; its self time is the
    time no wrapped layer accounts for.
    """
    selfs = tracer.self_times()
    metrics: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def ms(span: str) -> float:
        return selfs.get(span, (0.0, 0))[0] * 1000.0 / rounds

    def calls(span: str) -> float:
        return selfs.get(span, (0.0, 0))[1] / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for span in LAYERS:
        put(f"{span}.ms", ms(span), "ms")
    for span in ("core.measure", "core.kill", "pm.trial"):
        put(f"{span}.calls", calls(span), "count")
    for name in CALL_COUNTERS:
        put(name, tracer.calls.get(name, 0) / rounds, "count")
    hits = counters.get("pm.trial.hits", 0)
    warm = counters.get("pm.trial.warm", 0)
    cold = counters.get("pm.trial.cold", 0)
    put("pm.trial.hits", hits / rounds, "count")
    put("pm.trial.warm", warm / rounds, "count")
    put("pm.trial.cold", cold / rounds, "count")
    put("pm.trial.cold_ratio", ratio(cold, hits + warm + cold), "ratio")
    put("pm.analysis.hit_ratio", ratio(
        counters.get("pm.cache_hit", 0),
        counters.get("pm.cache_hit", 0) + counters.get("pm.cache_miss", 0),
    ), "ratio")
    put("graph.matching.augmenting_paths",
        counters.get("matching.augmenting_paths", 0) / rounds, "count")
    # The client's request span covers the server's handling of it; the
    # rest is transport (connection, HTTP framing, JSON, the client).
    put("serve.transport.ms", ms("serve.request"), "ms")
    put("serve.cache.hit_ratio", ratio(
        counters.get("serve.cache_hit", 0),
        counters.get("serve.cache_hit", 0) + counters.get("serve.cache_miss", 0),
    ), "ratio")
    put("serve.pool.dispatched",
        counters.get("serve.pool.dispatched", 0) / rounds, "count")
    put("serve.shed", counters.get("serve.shed", 0) / rounds, "count")
    total = sum(s.end - s.start for s in tracer.spans if s.name == root)
    unattributed = selfs.get(root, (0.0, 0))[0]
    put("trace.op.ms", total * 1000.0 / rounds, "ms")
    put("trace.unattributed.ms", unattributed * 1000.0 / rounds, "ms")
    put("trace.coverage", ratio(total - unattributed, total), "ratio")
    return metrics
