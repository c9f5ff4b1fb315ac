#!/usr/bin/env python3
"""Benchmark: single-pass engine vs legacy per-detector replay.

Builds one interleaved trace, verifies the engine's results are bit-for-bit
identical to running each detector core alone on the per-event scalar
reference walk, then times both strategies over several interleaved A/B
rounds and reports the wall-clock speedup as ``min(legacy) / min(engine)``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py \
        [--app NAME] [--detectors a,b,c] [--rounds N] [--engine-path P] \
        [--min-speedup X] [--json] [--markdown PATH] [--bench-out PATH]

The default cell is the Table 2 shape the harness actually evaluates per
(app, run) chunk: four detector configurations over one water-nsquared
execution.  The legacy side walks the trace once per configuration (one
machine replay each); the engine side is one ``EngineSession``, which by
default takes the vectorized batch path — every core consumes the packed
columnar encoding in sync-run batches, with the machine-backed cores
replaying one prerecorded machine tape (``--engine-path scalar`` times the
per-core scalar walk instead).  Interleaving the A/B rounds and taking
the *minimum* per side keeps the ratio robust to background load;
``--min-speedup`` exits non-zero when it falls short.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import EngineSession  # noqa: E402  (path bootstrap above)
from repro.harness.detectors import DetectorConfig, make_detector  # noqa: E402
from repro.threads.runtime import interleave  # noqa: E402
from repro.threads.scheduler import RandomScheduler  # noqa: E402
from repro.workloads.registry import build_workload  # noqa: E402
from repro.reporting import run_core

DEFAULT_DETECTORS = "hard-default,hb-default,software,hb-ideal"


def build_trace(app: str, workload_seed: int, schedule_seed: int):
    program = build_workload(app, seed=workload_seed)
    scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
    return interleave(program, scheduler).trace


def run_legacy(trace, configs) -> list:
    """One trace walk (and machine replay) per detector."""
    return [run_core(make_detector(config).core(), trace) for config in configs]


def run_engine(trace, configs, path: str = "auto") -> list:
    """One shared engine pass (vectorized batch walk when available)."""
    session = EngineSession(trace, path=path)
    for config in configs:
        session.add_config(config)
    return session.run()


def result_key(result) -> tuple:
    """Everything that must match for results to count as identical."""
    return (
        result.detector,
        tuple(
            (r.seq, r.thread_id, r.addr, r.size, r.site, r.is_write, r.detail)
            for r in result.reports
        ),
        result.cycles,
        result.detector_extra_cycles,
        tuple(sorted(result.stats.snapshot().items())),
    )


def render_markdown(summary: dict) -> str:
    rows = "\n".join(
        f"| {i + 1} | {lw:.2f} | {ew:.2f} | {lw / ew:.2f}x |"
        for i, (lw, ew) in enumerate(
            zip(summary["legacy_wall_s"], summary["engine_wall_s"])
        )
    )
    return f"""# Single-pass engine benchmark

One `{summary["app"]}` trace ({summary["trace_events"]:,} events) scored by
{len(summary["detectors"])} detector configurations
({", ".join(summary["detectors"])}):

- **legacy**: each detector core alone on the per-event scalar reference
  walk — one trace walk and one machine replay per configuration.
- **engine**: one `EngineSession` on the `{summary["engine_path"]}` path —
  by default the vectorized batch kernels over the packed columnar
  encoding, with the machine-backed configurations replaying one
  prerecorded machine tape.

Results verified bit-for-bit identical before timing.  Rounds are
interleaved A/B; the speedup is `min(legacy) / min(engine)`, which is
robust to background load on a shared runner.

| round | legacy (s) | engine (s) | ratio |
|------:|-----------:|-----------:|------:|
{rows}

| metric | legacy | engine |
|---|---:|---:|
| min wall | {summary["legacy_min_s"]:.2f}s | {summary["engine_min_s"]:.2f}s |
| median wall | {summary["legacy_median_s"]:.2f}s | {summary["engine_median_s"]:.2f}s |

**Speedup (min/min): {summary["speedup"]:.2f}x** (median/median:
{summary["median_speedup"]:.2f}x); CI gate: >= {summary["gate"]}x.

Reproduce with:

```sh
PYTHONPATH=src python benchmarks/bench_engine.py --rounds {summary["rounds"]}
```
"""


def write_bench_artifact(path: str, summary: dict, trace, configs) -> None:
    """Emit the structured observatory artifact (repro.obs.perf schema).

    The counter snapshot comes from one extra flight-recorded engine pass
    run *after* the A/B timing rounds, so telemetry never skews the
    legacy-vs-engine ratio.
    """
    from repro.obs import FlightRecorder, Observability
    from repro.obs.perf import BenchResult, write_bench

    recorder = FlightRecorder()
    session = EngineSession(trace, obs=Observability(telemetry=recorder))
    for config in configs:
        session.add_config(config)
    session.run()
    telemetry = recorder.snapshot()

    result = BenchResult(name="engine_vs_legacy", rounds=summary["rounds"])
    result.add_phase("legacy", summary["legacy_wall_s"])
    result.add_phase("engine", summary["engine_wall_s"])
    result.counters = telemetry["counters"]
    result.extras = {
        "app": summary["app"],
        "detectors": summary["detectors"],
        "trace_events": summary["trace_events"],
        "engine_path": summary["engine_path"],
        "speedup": round(summary["speedup"], 3),
        "median_speedup": round(summary["median_speedup"], 3),
        "telemetry": {
            "derived": telemetry["derived"],
            "cores": telemetry["cores"],
        },
    }
    write_bench(result, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", default="water-nsquared", help="workload name")
    parser.add_argument(
        "--detectors",
        default=DEFAULT_DETECTORS,
        help="comma-separated detector keys scored over the one trace",
    )
    parser.add_argument(
        "--rounds", type=int, default=4, help="interleaved A/B timing rounds"
    )
    parser.add_argument("--workload-seed", type=int, default=0)
    parser.add_argument("--schedule-seed", type=int, default=0)
    parser.add_argument(
        "--engine-path",
        choices=("auto", "batch", "scalar"),
        default="auto",
        help="the engine side's walk (batch = vectorized kernels over the "
        "columnar encoding; scalar = the per-event walk, one machine per core)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero when min(legacy)/min(engine) is below this",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable summary"
    )
    parser.add_argument(
        "--markdown", default=None, help="write a markdown report to this path"
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        metavar="PATH",
        help="write a structured BENCH_engine_vs_legacy.json artifact "
        "(repro.obs.perf schema) to PATH",
    )
    args = parser.parse_args()

    configs = [
        DetectorConfig.coerce(key.strip())
        for key in args.detectors.split(",")
        if key.strip()
    ]
    print(f"building {args.app} trace...", flush=True)
    trace = build_trace(args.app, args.workload_seed, args.schedule_seed)
    print(f"trace: {len(trace):,} events, {len(configs)} configs", flush=True)

    # Correctness first: a fast wrong engine is worthless.
    legacy_results = run_legacy(trace, configs)
    engine_results = run_engine(trace, configs, path=args.engine_path)
    for legacy, engine in zip(legacy_results, engine_results):
        if result_key(legacy) != result_key(engine):
            print(
                f"FAIL: engine result differs from legacy for {legacy.detector}",
                file=sys.stderr,
            )
            return 1
    print("results: bit-for-bit identical", flush=True)

    legacy_walls: list[float] = []
    engine_walls: list[float] = []
    for round_index in range(args.rounds):
        t0 = time.perf_counter()
        run_legacy(trace, configs)
        legacy_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_engine(trace, configs, path=args.engine_path)
        engine_walls.append(time.perf_counter() - t0)
        print(
            f"round {round_index + 1}: legacy {legacy_walls[-1]:6.2f}s  "
            f"engine {engine_walls[-1]:6.2f}s  "
            f"ratio {legacy_walls[-1] / engine_walls[-1]:.2f}x",
            flush=True,
        )

    speedup = min(legacy_walls) / min(engine_walls)
    median_speedup = statistics.median(legacy_walls) / statistics.median(
        engine_walls
    )
    print(f"speedup (min/min): {speedup:.2f}x  (median/median: {median_speedup:.2f}x)")

    summary = {
        "app": args.app,
        "trace_events": len(trace),
        "detectors": [config.key for config in configs],
        "engine_path": args.engine_path,
        "rounds": args.rounds,
        "legacy_wall_s": [round(w, 3) for w in legacy_walls],
        "engine_wall_s": [round(w, 3) for w in engine_walls],
        "legacy_min_s": min(legacy_walls),
        "engine_min_s": min(engine_walls),
        "legacy_median_s": statistics.median(legacy_walls),
        "engine_median_s": statistics.median(engine_walls),
        "speedup": speedup,
        "median_speedup": median_speedup,
        "identical_results": True,
        "gate": args.min_speedup if args.min_speedup is not None else 1.5,
    }
    if args.markdown:
        Path(args.markdown).write_text(render_markdown(summary))
        print(f"wrote {args.markdown}")
    if args.bench_out:
        write_bench_artifact(args.bench_out, summary, trace, configs)
        print(f"wrote {args.bench_out}")
    if args.json:
        print(json.dumps(summary))

    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
