"""In-memory span tracer wrapped around the program's public layer calls.

:func:`Tracer.install` replaces each layer entry point listed in
:func:`_patch_table` with a wrapper that records one span -- name, start,
end, parent span and cell id -- and the counts measured at that boundary,
and :func:`Tracer.uninstall` puts the originals back.  Nothing in the
program's source changes; untraced cells run the original functions.

Detector kernels are timed on the real batch walk: while installed,
``make_detector`` hands out detectors whose cores time every
``begin_batch``/``step_batch``/``finish_batch`` call and record one
aggregated ``kernel.<key>`` span per core, whose ``busy`` is the summed
call time.

The sharded path forks its workers while a cell is being traced, so the
workers inherit the wrappers; a worker appends its spans to
``<worker_dir>/<pid>.jsonl`` and the parent collects them after the cell.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.common.events import Trace
from repro.engine import session as session_mod
from repro.engine import shard, tape
from repro.harness import detectors, experiment
from repro.harness.tracecache import TapeCache, TraceCache
from repro.threads import runtime
from repro.workloads import injection, registry

_perf = time.perf_counter

_BATCH_METHODS = ("begin_batch", "step_batch", "finish_batch")


@dataclass(slots=True)
class Span:
    """One timed call; ``busy`` is its duration, or the summed call time of
    an aggregated kernel span."""

    id: str
    parent: str | None
    cell: int | None
    pid: int
    name: str
    start: float
    end: float = 0.0
    busy: float | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of the traced cells of one run, held in memory."""

    def __init__(self, worker_dir: Path):
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._next = 0
        self._saved: list[tuple] = []
        self.cell = None

    # ------------------------------------------------------------ recording

    def _new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}:{self._next}"

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._new_id(), parent, self.cell, os.getpid(), name, _perf())
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = _perf()
        if span.busy is None:
            span.busy = span.end - span.start
        self._stack.pop()
        self._keep(span)

    def record(self, name: str, start: float, end: float, busy: float, **counts) -> None:
        """A span measured by its caller (the aggregated kernel spans)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(self._new_id(), parent, self.cell, os.getpid(), name, start, end, busy, counts)
        self._keep(span)

    def _keep(self, span: Span) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:  # a forked shard worker: hand the span to the parent via a file
            path = self.worker_dir / f"{os.getpid()}.jsonl"
            with path.open("a") as fh:
                fh.write(json.dumps(asdict(span)) + "\n")

    def collect_workers(self) -> None:
        """Move the spans forked workers wrote into memory."""
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            with path.open() as fh:
                for line in fh:
                    self.spans.append(Span(**json.loads(line)))
            path.unlink()

    # ------------------------------------------------------------- patching

    def _timed(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(args, result))
                return result
            finally:
                tracer.end(span)

        return wrapper

    def _make_detector(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(config="hard-default", **overrides):
            key = detectors.DetectorConfig.coerce(config, **overrides).key
            return _TimedDetector(fn(config, **overrides), key, tracer)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per uninstall)."""
        for owner, attr, name, count in _patch_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if name is None:
                wrapped = self._make_detector(original)
            else:
                wrapped = self._timed(name, original, count)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _tape_load_count(args, result):
    cache, cols, machine_config = args[:3]
    if result is None:
        return {"hit": 0, "bytes": 0}
    return {"hit": 1, "bytes": cache.path_for(cols, machine_config).stat().st_size}


def _patch_table():
    """(owner, attribute, span name, counts) of every timed entry point.

    A ``None`` span name marks ``make_detector``, whose cores are wrapped
    instead (see :class:`_TimedCore`).
    """
    return [
        (registry, "build_workload", "workloads.build", None),
        (injection, "inject_bug", "workloads.inject", None),
        (runtime, "interleave", "threads.interleave",
         lambda args, r: {"events": len(r.trace)}),
        (Trace, "columns", "coltrace.pack", None),
        (TraceCache, "load", "tracecache.load",
         lambda args, r: {"hit": int(r is not None)}),
        (TraceCache, "store", "tracecache.store", None),
        (TapeCache, "load", "tapecache.load", _tape_load_count),
        (TapeCache, "store", "tapecache.store",
         lambda args, r: {"bytes": r.stat().st_size if r is not None else 0}),
        (tape.MachineTape, "__init__", "tape.record",
         lambda args, r: {"accesses": args[0].machine_stats.get("access.total", 0)}),
        (session_mod.EngineSession, "run", "session.run", None),
        (shard, "run_sharded", "shard.run", None),
        (shard, "build_partition", "shard.partition", None),
        (experiment, "score_detection", "experiment.score", None),
        (detectors, "make_detector", None, None),
    ]


class _TimedDetector:
    """A detector whose ``core()`` is a :class:`_TimedCore`."""

    def __init__(self, detector, key: str, tracer: Tracer):
        self._detector = detector
        self._key = key
        self._tracer = tracer

    def core(self):
        return _TimedCore(self._detector.core(), self._key, self._tracer)

    def __getattr__(self, name):
        return getattr(self._detector, name)


class _TimedCore:
    """Delegates to a detector core, timing its batch-protocol calls."""

    def __init__(self, core, key: str, tracer: Tracer):
        self._core = core
        self._key = key
        self._tracer = tracer
        self._busy = 0.0
        self._calls = 0
        self._start = None

    def __getattr__(self, name):
        attr = getattr(self._core, name)
        if name not in _BATCH_METHODS:
            return attr

        @functools.wraps(attr)
        def timed(*args):
            t0 = _perf()
            if self._start is None:
                self._start = t0
            try:
                return attr(*args)
            finally:
                t1 = _perf()
                self._busy += t1 - t0
                self._calls += 1
                if name == "finish_batch":
                    self._tracer.record(
                        f"kernel.{self._key}", self._start, t1, self._busy,
                        calls=self._calls,
                    )

        # Cache on the instance so later lookups skip __getattr__.
        setattr(self, name, timed)
        return timed


# ------------------------------------------------------------------ analysis


def cell_layers(spans: list[Span], root: Span) -> dict:
    """Per-layer busy and self seconds plus counts of one traced cell.

    Self time is a span's busy time minus the busy time of its children
    in the same process (worker spans run in parallel with their parent
    and are not subtracted).
    """
    child_busy: dict = defaultdict(float)
    for span in spans:
        if span.parent is not None and span.pid == root.pid:
            child_busy[span.parent] += span.busy
    busy: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for span in spans:
        busy[span.name] += span.busy
        if span.pid == root.pid:
            self_s[span.name] += span.busy - child_busy.get(span.id, 0.0)
        counts[f"{span.name}.spans"] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
    return {"busy": dict(busy), "self": dict(self_s), "counts": dict(counts)}
