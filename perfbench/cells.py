"""Workload definitions and the detection cell the benchmark times.

A *cell* is one (app, run) trace scored by a set of detector
configurations in one :class:`repro.engine.EngineSession` -- the unit of
work :meth:`repro.harness.experiment.ExperimentRunner.run_detectors`
performs per grid coordinate.  The functions here call the program only
through module attributes (``registry.build_workload``, not a bound
import), so the tracer in :mod:`spans` can wrap every layer's public entry
points without touching the program's source.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ReproError
from repro.engine import EngineSession
from repro.engine import shard
from repro.engine import tape as tape_mod
from repro.harness import detectors, experiment
from repro.harness.tracecache import TapeCache, TraceCache
from repro.threads import runtime
from repro.threads.scheduler import RandomScheduler
from repro.workloads import injection, registry

#: The seven batch-capable detector keys of the engine benchmark.
KEYS = (
    "hard-default",
    "hb-default",
    "software",
    "hb-ideal",
    "fasttrack",
    "acculock",
    "multilock-hb",
)

#: Section 5.2 sensitivity knobs of ``hard-default`` that keep its machine
#: configuration, so a warm cell replays them from the cached tape.
KNOB_VARIANTS = (
    {"vector_bits": 32},
    {"granularity": 8},
    {"barrier_reset": False},
    {"use_counter_register": False},
    {"broadcast_updates": False},
)

#: Application name -> (module, parameter dataclass) of its size knobs.
_PARAMS = {
    "barnes": ("repro.workloads.barnes", "BarnesParams"),
    "webserver": ("repro.workloads.server", "WebServerParams"),
}


class CellError(ReproError):
    """A cell ran but its cache state is not the one its workload needs."""


def worker_budget() -> int:
    """Processes the sharded path may use: the CPUs this process may run
    on, capped at 4 to keep the workers' memory small."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    app: str
    #: Every ``*per_thread*`` size knob of the app is divided by this.
    divisor: int
    #: ``"cold"`` (empty trace and tape caches, stored into),
    #: ``"warm"`` (both filled during set-up) or ``"none"`` (no caches).
    cache: str
    path: str
    cores: int = 4
    fabric: str = "snoopy"
    threads: int | None = None
    knob_variants: bool = False
    #: Distinct (app, run) inputs one run cycles through.
    inputs: int = 3

    @property
    def jobs(self) -> int:
        return worker_budget() if self.path == "sharded" else 1

    @property
    def shards(self) -> int | None:
        return max(2, self.jobs) if self.path == "sharded" else None

    def params(self):
        """The app's size-knob dataclass, scaled by :attr:`divisor`."""
        module, name = _PARAMS[self.app]
        cls = getattr(importlib.import_module(module), name)
        values = {
            spec.name: max(1, spec.default // self.divisor)
            for spec in dataclasses.fields(cls)
            if "per_thread" in spec.name
        }
        if self.threads is not None:
            values["num_threads"] = self.threads
        return cls(**values)

    def configs(self) -> list:
        """Detector configurations scored in every cell."""
        machine = {}
        if self.cores != 4:
            machine["num_cores"] = self.cores
        if self.fabric != "snoopy":
            machine["coherence"] = self.fabric
        configs = [detectors.DetectorConfig(key=key, **machine) for key in KEYS]
        if self.knob_variants:
            configs += [
                detectors.DetectorConfig(key="hard-default", **machine, **knobs)
                for knobs in KNOB_VARIANTS
            ]
        return configs


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="table2-cold",
            why=(
                "Section 4 cell as first run: build, inject, interleave, pack, "
                "tape record on the 4-core snoopy CMP, 7 batch kernels; empty "
                "caches filled by the cell, so the simulator dominates"
            ),
            app="barnes",
            divisor=8,
            cache="cold",
            path="batch",
        ),
        Workload(
            name="sweep-warm",
            why=(
                "Section 5.2 sweep revisit: trace and tape loaded from caches "
                "filled in set-up, 7 keys plus 5 HARD knob variants; the "
                "simulator is bypassed and the kernels dominate"
            ),
            app="barnes",
            divisor=8,
            cache="warm",
            path="batch",
            knob_variants=True,
        ),
        Workload(
            name="manycore-sharded",
            why=(
                "webserver at 64 threads on a 64-core directory CMP, 7 keys on "
                "the address-sharded path with one worker per CPU: the only "
                "load on DirectoryFabric and engine.shard"
            ),
            app="webserver",
            divisor=8,
            cache="none",
            path="sharded",
            cores=64,
            fabric="directory",
            threads=64,
            # hard-default misses about 2% of these injected races, so more
            # inputs per run keep detect_frac from swinging by a third.
            inputs=6,
        ),
    )
}


@dataclass(frozen=True)
class Input:
    """One (app, run) execution: workload seed plus injected-bug run index."""

    app: str
    seed: int
    run: int

    def cache_key(self, wl: Workload) -> tuple:
        """Everything beyond (app, run) that determines the trace."""
        return (
            self.seed,
            wl.divisor,
            wl.threads,
            experiment.SCHEDULE_MIN_BURST,
            experiment.SCHEDULE_MAX_BURST,
        )

    def scheduler(self) -> RandomScheduler:
        return RandomScheduler(
            seed=experiment.schedule_seed_for(self.app, self.seed, self.run),
            min_burst=experiment.SCHEDULE_MIN_BURST,
            max_burst=experiment.SCHEDULE_MAX_BURST,
        )


def inputs_for(wl: Workload, seed: int) -> list[Input]:
    """The distinct inputs of one run: the seed is the workload seed, and
    each input injects a different race (run index)."""
    return [Input(wl.app, seed, run) for run in range(wl.inputs)]


def build_trace(wl: Workload, inp: Input):
    """Build, inject and interleave one input; returns (trace, bug)."""
    program = registry.build_workload(inp.app, seed=inp.seed, params=wl.params())
    program = injection.inject_bug(program, seed=(inp.seed, inp.run))
    trace = runtime.interleave(program, inp.scheduler()).trace
    return trace, program.injected_bug


def fill_caches(wl: Workload, inp: Input, cache_dir: Path):
    """Store one input's trace and machine tapes; returns its bug record."""
    trace, bug = build_trace(wl, inp)
    cols = trace.columns()
    TraceCache(cache_dir / "traces").store(trace, inp.app, inp.run, *inp.cache_key(wl))
    tapes = TapeCache(cache_dir / "tapes")
    machines = {
        getattr(detectors.make_detector(cfg).core(), "machine_config", None)
        for cfg in wl.configs()
    }
    for machine in machines - {None}:
        tape_mod.MachineTape.for_columns(cols, machine, cache=tapes)
    return bug


@dataclass
class CellRun:
    """What one cell produced, kept open until the checks have read it."""

    results: list
    detected: list
    trace: object
    trace_cache: TraceCache | None
    tape_cache: TapeCache | None

    def close(self) -> None:
        for cache in (self.trace_cache, self.tape_cache):
            if cache is not None:
                cache.close()

    def check_cache_state(self, wl: Workload) -> None:
        """Raise :class:`CellError` unless the caches saw what ``wl`` needs."""
        traces, tapes = self.trace_cache, self.tape_cache
        if wl.cache == "none":
            return
        if wl.cache == "cold":
            ok = traces.hits == 0 and tapes.hits == 0 and tapes.stores > 0
        else:
            ok = traces.hits == 1 and tapes.hits > 0 and tapes.misses == 0
        if not ok:
            raise CellError(
                f"{wl.name}: expected {wl.cache} caches, saw trace "
                f"hits={traces.hits} misses={traces.misses}, tape "
                f"hits={tapes.hits} misses={tapes.misses} stores={tapes.stores}"
            )


def run_cell(wl: Workload, inp: Input, cache_dir: Path | None, bug=None) -> CellRun:
    """One detection cell, as ``ExperimentRunner.run_detectors`` performs it.

    Cold cells build the trace and store it into empty caches under
    ``cache_dir``; warm cells load trace and tapes from ``cache_dir`` and
    score against ``bug`` (the record kept from set-up); ``cache="none"``
    cells use no cache at all.
    """
    traces = tapes = None
    if wl.cache != "none":
        traces = TraceCache(cache_dir / "traces")
        tapes = TapeCache(cache_dir / "tapes")
    run = CellRun([], [], None, traces, tapes)
    try:
        key = inp.cache_key(wl)
        if wl.cache == "warm":
            trace = traces.load(inp.app, inp.run, *key)
            if trace is None:
                raise CellError(f"{wl.name}: trace cache miss on a warm cell")
        else:
            if traces is not None:
                traces.load(inp.app, inp.run, *key)
            trace, bug = build_trace(wl, inp)
            trace.columns()
            if traces is not None:
                traces.store(trace, inp.app, inp.run, *key)
        session = EngineSession(
            trace, path=wl.path, jobs=wl.jobs, shards=wl.shards, tape_cache=tapes
        )
        for config in wl.configs():
            session.add_config(config)
        run.results = session.run()
        run.detected = [experiment.score_detection(r, bug) for r in run.results]
        run.trace = trace
    except BaseException:
        run.close()
        raise
    return run


def reference(wl: Workload, inp: Input):
    """The scalar-oracle results of one input: (results, detected)."""
    trace, bug = build_trace(wl, inp)
    session = EngineSession(trace, path="scalar")
    for config in wl.configs():
        session.add_config(config)
    results = session.run()
    return results, [experiment.score_detection(r, bug) for r in results]


def fingerprint(results, detected) -> str:
    """Digest of everything a cell reports, per configuration."""
    payload = []
    for result, hit in zip(results, detected):
        payload.append(
            [
                result.detector,
                [
                    [r.seq, r.thread_id, r.addr, r.size, str(r.site), r.is_write, r.detail]
                    for r in result.reports
                ],
                result.reports.alarm_count,
                sorted(str(site) for site in result.alarm_sites()),
                result.cycles,
                result.detector_extra_cycles,
                sorted(result.stats.snapshot().items()),
                bool(hit),
            ]
        )
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def simulated_summary(results, detected) -> dict:
    """The exact simulated numbers of one cell, from ``hard-default``."""
    result = results[KEYS.index("hard-default")]
    stats = result.stats.snapshot()
    total = stats.get("access.total", 0)
    return {
        "detected": int(detected[KEYS.index("hard-default")]),
        "accesses": total,
        "l1_hits": stats.get("access.l1_r", 0) + stats.get("access.l1_w", 0),
        "bus_transactions": sum(
            v for k, v in stats.items() if k.startswith("bus.transactions.")
        ),
        "dir_messages": sum(
            v for k, v in stats.items() if k.startswith("dir.messages.")
        ),
        "cycles": result.cycles,
        "extra_cycles": result.detector_extra_cycles,
    }


def shard_imbalance(wl: Workload, cols) -> float:
    """Max over mean memory events per shard of the cell's partition."""
    cores = [detectors.make_detector(cfg).core() for cfg in wl.configs()]
    unit_shift = shard.unit_shift_for(cores)
    overrides = shard.build_partition(cols, unit_shift, wl.shards)
    counts = []
    for shard_id in range(wl.shards):
        sub, _ = shard.build_shard(cols, unit_shift, overrides, wl.shards, shard_id)
        counts.append(sum(1 for kind in sub.kind if kind <= 1))
    return max(counts) * len(counts) / sum(counts)
