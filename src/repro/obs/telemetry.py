"""The engine flight recorder: cheap, sampled telemetry of one engine pass.

A :class:`FlightRecorder` answers "where does engine time actually go"
without paying per-event instrumentation cost.  It is grounded in the
sampling literature the ROADMAP points at ("Dynamic Race Detection with
O(1) Samples", HardRace's selective monitoring): the hot loop pays one
integer countdown per stepped event, and only every
:attr:`~FlightRecorder.sample_period`-th event is individually timed.
Everything else is derived:

* **per-core step time** — the sampled mean step latency scaled by the
  stepped-event count (exact when the engine is already tracing);
* **events/sec per core** — stepped events over that estimated wall time;
* **sync-point density** — locks/unlocks/barriers per 1k trace events,
  from a strided census of the trace (stride
  :attr:`~FlightRecorder.census_stride`, so the census touches ~1.5% of
  events);
* **per-phase wall time** — hierarchical :meth:`frame` regions that also
  power the collapsed-stack (flamegraph-compatible) dump.

The recorder rides the :class:`~repro.obs.Observability` bundle as its
``telemetry`` attribute; :class:`~repro.engine.EngineSession` switches to
its sampled walk variants when one is present.  Recorders merge
associatively (:meth:`merge`), so parallel grid workers can each carry one
and fan their telemetry back in, exactly like
:class:`~repro.obs.metrics.MetricsRegistry` shards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.common.events import OpKind
from repro.common.fsio import atomic_write_text
from repro.obs.metrics import MetricsRegistry

#: Bumped on any backwards-incompatible change to :meth:`FlightRecorder.snapshot`.
TELEMETRY_SCHEMA_VERSION = 1

#: One stepped event in this many is individually timed.
DEFAULT_SAMPLE_PERIOD = 512

#: The op-kind census reads one trace event in this many.
DEFAULT_CENSUS_STRIDE = 64

#: Op kinds that are synchronization points (the HARD hot-path events).
SYNC_KINDS = (OpKind.LOCK, OpKind.UNLOCK, OpKind.BARRIER)


class FlightRecorder:
    """Sampled counters, per-core walk estimates, and hierarchical frames.

    Args:
        sample_period: time one stepped event in this many (>= 1; 1 times
            every step, which is exact but no longer cheap).
        census_stride: read one trace event in this many for the op-kind
            census (>= 1).
        registry: the metrics registry counters land in; a fresh private
            registry by default.
    """

    def __init__(
        self,
        sample_period: int = DEFAULT_SAMPLE_PERIOD,
        census_stride: int = DEFAULT_CENSUS_STRIDE,
        registry: MetricsRegistry | None = None,
    ):
        if sample_period < 1:
            raise ValueError(f"sample_period must be >= 1: {sample_period}")
        if census_stride < 1:
            raise ValueError(f"census_stride must be >= 1: {census_stride}")
        self.sample_period = sample_period
        self.census_stride = census_stride
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Per-core walk aggregates, keyed by core name.
        self.cores: dict[str, dict] = {}
        #: Cumulative wall seconds per frame path (flamegraph stacks).
        self.frames: dict[tuple[str, ...], float] = {}
        self._frame_stack: list[str] = []

    # ------------------------------------------------------------ frames

    @contextmanager
    def frame(self, name: str):
        """Time the body as one frame nested under the current frame path."""
        self._frame_stack.append(name)
        path = tuple(self._frame_stack)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._frame_stack.pop()
            self.record_frame(path, time.perf_counter() - t0)

    def record_frame(self, path: tuple[str, ...], seconds: float) -> None:
        """Accumulate ``seconds`` of wall time on one frame path."""
        if seconds < 0:
            raise ValueError(f"frame durations must be non-negative: {seconds}")
        self.frames[path] = self.frames.get(path, 0.0) + seconds

    def collapsed(self) -> str:
        """The frames as flamegraph collapsed-stack lines.

        One line per frame path — ``a;b;c <microseconds>`` — carrying the
        frame's *self* time (its total minus its direct children's totals),
        which is the semantics ``flamegraph.pl`` / speedscope expect.
        """
        children: dict[tuple[str, ...], float] = {}
        for path, seconds in self.frames.items():
            if len(path) > 1:
                parent = path[:-1]
                children[parent] = children.get(parent, 0.0) + seconds
        lines = []
        for path in sorted(self.frames):
            self_s = max(0.0, self.frames[path] - children.get(path, 0.0))
            lines.append(f"{';'.join(path)} {round(self_s * 1e6)}")
        return "\n".join(lines)

    def write_flame(self, path) -> None:
        """Write the collapsed stacks to ``path`` (atomic replace)."""
        atomic_write_text(path, self.collapsed() + "\n")

    # ------------------------------------------------------------- walks

    def observe_trace(self, trace) -> dict:
        """Strided op-kind census of one trace (sync density, access mix).

        Reads one event in :attr:`census_stride` and scales the counts, so
        the census cost is a fixed small fraction of one trace walk.  The
        estimates land in ``telemetry.trace.*`` counters — ``snapshot``
        derives the per-1k sync density from them — and come back as a
        dict (op-kind value → estimated count, plus ``"events"``) for the
        caller's own arithmetic.

        ``trace`` may be a :class:`~repro.common.events.Trace` or a
        :class:`~repro.common.coltrace.ColumnarTrace`; a trace carrying a
        memoized columnar encoding is censused straight off the packed
        ``kind`` column (same stride, same counts, no event objects).
        """
        from repro.common.coltrace import ColumnarTrace, kind_of_code

        events = len(trace)
        estimates: dict[str, int] = {"events": events}
        if not events:
            return estimates
        cols = (
            trace
            if isinstance(trace, ColumnarTrace)
            else getattr(trace, "_columnar", None)
        )
        counts: dict[OpKind, int] = {}
        if cols is not None:
            sampled = cols.kind[:: self.census_stride]
            for code in sampled:
                kind = kind_of_code(code)
                counts[kind] = counts.get(kind, 0) + 1
        else:
            sampled = trace.events[:: self.census_stride]
            for event in sampled:
                kind = event.op.kind
                counts[kind] = counts.get(kind, 0) + 1
        scale = events / len(sampled)
        registry = self.registry
        registry.add("telemetry.trace.events", events)
        registry.add("telemetry.trace.census_samples", len(sampled))
        sync = 0
        for kind, count in counts.items():
            estimate = round(count * scale)
            estimates[kind.value] = estimate
            registry.add(f"telemetry.trace.kind.{kind.value}", estimate)
            if kind in SYNC_KINDS:
                sync += estimate
        registry.add("telemetry.trace.sync_points", sync)
        return estimates

    def record_core_walk(
        self, name: str, stepped: int, sampled_s: float, samples: int
    ) -> None:
        """Fold one core's (possibly sampled) walk into the aggregates.

        ``stepped`` is how many events the core's ``step`` consumed,
        ``samples`` how many of them were individually timed, ``sampled_s``
        their summed wall time.  ``samples == stepped`` means the timing
        was exact (the engine's traced walk).
        """
        entry = self.cores.setdefault(
            name,
            {"stepped": 0, "samples": 0, "sampled_s": 0.0, "est_s": 0.0, "walks": 0},
        )
        entry["stepped"] += stepped
        entry["samples"] += samples
        entry["sampled_s"] += sampled_s
        entry["walks"] += 1
        est = sampled_s / samples * stepped if samples else 0.0
        entry["est_s"] += est
        if samples:
            self.registry.observe(
                "telemetry.step_us", sampled_s / samples * 1e6
            )
        self.record_frame(("engine", "walk", f"core.{name}"), est)

    def record_walk(self, wall_s: float) -> None:
        """Record one whole engine walk (all cores, one trace pass)."""
        self.registry.add("telemetry.engine.walks")
        self.registry.timer("telemetry.engine.walk").observe(wall_s)
        self.record_frame(("engine", "walk"), wall_s)

    # ------------------------------------------------------------- merge

    def merge(self, other: "FlightRecorder") -> None:
        """Fold another recorder in (associative and commutative)."""
        self.registry.merge_registry(other.registry)
        for name, entry in other.cores.items():
            mine = self.cores.setdefault(
                name,
                {"stepped": 0, "samples": 0, "sampled_s": 0.0, "est_s": 0.0, "walks": 0},
            )
            for key, value in entry.items():
                mine[key] += value
        for path, seconds in other.frames.items():
            # Not record_frame: merged frames were already accounted once.
            self.frames[path] = self.frames.get(path, 0.0) + seconds

    # ---------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """The recorder's state as one JSON-serialisable dict.

        Raw counters plus the derived quantities the tentpole questions
        need: per-core events/sec and estimated step time, sync-point
        density per 1k events, and the frame table.
        """
        counters = self.registry.snapshot()
        events = counters.get("telemetry.trace.events", 0)
        sync = counters.get("telemetry.trace.sync_points", 0)
        cores = {}
        for name, entry in sorted(self.cores.items()):
            est_s = entry["est_s"]
            cores[name] = {
                "stepped": entry["stepped"],
                "samples": entry["samples"],
                "walks": entry["walks"],
                "est_wall_s": round(est_s, 6),
                "est_step_us": round(est_s / entry["stepped"] * 1e6, 3)
                if entry["stepped"]
                else 0.0,
                "events_per_s": round(entry["stepped"] / est_s, 1) if est_s else 0.0,
            }
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "sample_period": self.sample_period,
            "census_stride": self.census_stride,
            "counters": counters,
            "cores": cores,
            "derived": {
                "sync_density_per_1k": round(1000.0 * sync / events, 3)
                if events
                else 0.0,
            },
            "frames": {
                ";".join(path): round(seconds, 6)
                for path, seconds in sorted(self.frames.items())
            },
            "histograms": {
                hist.name: hist.to_dict() for hist in self.registry.histograms()
            },
            "timers": {
                timer.name: timer.to_dict() for timer in self.registry.timers()
            },
        }

    def format(self) -> str:
        """A human-readable rendering of the snapshot."""
        snap = self.snapshot()
        lines = ["flight recorder"]
        derived = snap["derived"]
        lines.append(
            f"  sync density: {derived['sync_density_per_1k']}/1k events"
        )
        for name, core in snap["cores"].items():
            lines.append(
                f"  core {name}: {core['events_per_s']:,.0f} events/s "
                f"({core['est_step_us']}us/step, "
                f"{core['stepped']:,} stepped, {core['samples']:,} sampled)"
            )
        for path, seconds in snap["frames"].items():
            lines.append(f"  frame {path}: {seconds:.4f}s")
        return "\n".join(lines)
