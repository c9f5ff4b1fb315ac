"""Measure one workload: set-up, closed-loop timed cells, output checks.

One process runs cells back to back; the next cell starts when the
previous one returns.  An untraced run (``traced=False``) gives the
end-to-end metrics.  A traced run alternates untraced and traced cells on
the same input, so per-layer numbers and the tracing overhead come from
one run.  After the timed loop every cell's fingerprint is compared with
the scalar-oracle fingerprint of its input, computed outside the timed
region; a mismatch, an exception or a wrong cache state fails the cell.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import cells
import spans

_perf = time.perf_counter

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

MODEL_NOTE = (
    "simulated values come from a functional CMP model with cycle accounting "
    "whose caches start empty in every cell; the model is not validated "
    "against hardware, so no error figure is given"
)

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("cell_s_p50", "s"),
    ("cell_s_tail", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
    ("detect_frac", "ratio"),
    ("hard_overhead_pct", "%"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``.
PER_LAYER = (
    ("workloads.build_s", "s"),
    ("threads.interleave_s", "s"),
    ("threads.events", "count"),
    ("coltrace.pack_s", "s"),
    ("coltrace.sync_runs", "count"),
    ("tracecache.load_s", "s"),
    ("tracecache.store_s", "s"),
    ("tracecache.hit_ratio", "ratio"),
    ("tapecache.load_s", "s"),
    ("tapecache.store_s", "s"),
    ("tapecache.hit_ratio", "ratio"),
    ("tapecache.bytes", "B"),
    ("tape.record_s", "s"),
    ("tape.record_us_per_access", "us/access"),
    ("sim.accesses", "count"),
    ("sim.l1_hit_ratio", "ratio"),
    ("sim.bus_transactions", "count"),
    ("sim.dir_messages", "count"),
    ("sim.cycles", "cycles"),
    *((f"kernel.{key}_s", "s") for key in cells.KEYS),
    ("kernel.total_s", "s"),
    ("session.run_s", "s"),
    ("session.self_s", "s"),
    ("shard.partition_s", "s"),
    ("shard.run_s", "s"),
    ("shard.self_s", "s"),
    ("shard.imbalance", "ratio"),
    ("experiment.score_s", "s"),
    ("trace.cell_s_p50", "s"),
    ("trace.untraced_cell_s_p50", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


@dataclass
class Sample:
    """One timed cell and what the checks found."""

    index: int
    input: int
    traced: bool
    seconds: float = 0.0
    events: int = 0
    sync_runs: int = 0
    imbalance: float = 0.0
    fingerprint: str | None = None
    sim: dict = field(default_factory=dict)
    error: str | None = None


def import_seconds(root: Path) -> float:
    """Import time of the program modules the cells use, in a fresh
    interpreter."""
    code = (
        "import time; t = time.perf_counter(); import cells, spans; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root, env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(wl, inputs, root: Path, work: Path, repeats: int):
    """Run the workload's set-up ``repeats`` times; returns (seconds per
    repeat, warm cache directory or None, bug record per input)."""
    times = []
    warm = None
    bugs = [None] * len(inputs)
    for repeat in range(repeats):
        seconds = import_seconds(root)
        t0 = _perf()
        if wl.cache == "warm":
            if warm is not None:
                shutil.rmtree(warm)
            warm = work / f"warm{repeat}"
            bugs = [cells.fill_caches(wl, inp, warm) for inp in inputs]
        times.append(seconds + _perf() - t0)
    return times, warm, bugs


def _wipe_files(directory: Path) -> None:
    for path in directory.rglob("*"):
        if path.is_file():
            path.unlink()


def reference_fingerprints(wl, inputs) -> list[tuple[str, dict]]:
    """(fingerprint, simulated summary) of each input on the scalar oracle."""
    out = []
    for inp in inputs:
        results, detected = cells.reference(wl, inp)
        out.append(
            (cells.fingerprint(results, detected), cells.simulated_summary(results, detected))
        )
    return out


def run_timed(wl, inputs, seconds: float, traced: bool, tracer, warm, bugs, work: Path):
    """Closed-loop cells until ``seconds`` elapse (and every input ran)."""
    tmp = work / "tmp"
    cold_dir = tmp / "cell"
    samples: list[Sample] = []
    per_input = 2 if traced else 1
    min_cells = per_input * len(inputs)
    deadline = _perf() + seconds
    index = 0
    while index < min_cells or _perf() < deadline:
        which = (index // per_input) % len(inputs)
        sample = Sample(index, which, traced and index % 2 == 1)
        samples.append(sample)
        _wipe_files(tmp)
        gc.collect()  # start every cell from a heap without the last one's garbage
        cache_dir = {"cold": cold_dir, "warm": warm, "none": None}[wl.cache]
        run = None
        if sample.traced:
            tracer.cell = index
            tracer.install()
            root_span = tracer.begin("cell")
        t0 = _perf()
        try:
            run = cells.run_cell(wl, inputs[which], cache_dir, bugs[which])
            sample.seconds = _perf() - t0
        except Exception:
            sample.error = traceback.format_exc()
        finally:
            if sample.traced:
                tracer.end(root_span)
                tracer.uninstall()
                tracer.collect_workers()
        index += 1
        if run is None:
            print(sample.error, file=sys.stderr)
            continue
        try:
            run.check_cache_state(wl)
            sample.fingerprint = cells.fingerprint(run.results, run.detected)
            sample.sim = cells.simulated_summary(run.results, run.detected)
            cols = run.trace.columns()
            sample.events = cols.n
            sample.sync_runs = len(cols.sync_runs())
            if sample.traced and wl.path == "sharded":
                sample.imbalance = cells.shard_imbalance(wl, cols)
        except Exception:
            sample.error = traceback.format_exc()
            print(sample.error, file=sys.stderr)
        finally:
            run.close()
    return samples


def peak_rss_mb(wl) -> float:
    """Peak RSS of this process, plus the largest worker's on the sharded
    path (``ru_maxrss`` is in KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.path == "sharded":
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 for a layer the workload bypasses."""
    return num / den if den else 0.0


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least ten samples beyond it; the maximum below 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def _first_per_input(samples, traced: bool) -> dict:
    out = {}
    for sample in samples:
        if sample.traced == traced and sample.error is None:
            out.setdefault(sample.input, sample.sim)
    return out


def end_to_end_metrics(wl, samples, setup_times, rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics and the context printed beside them."""
    timed = [s for s in samples if not s.traced and s.error is None]
    times = [s.seconds for s in timed]
    configs = len(wl.configs())
    tail_value, tail_pct, beyond = tail(times)
    sims = list(_first_per_input(samples, traced=False).values())
    extra = sum(sim["extra_cycles"] for sim in sims)
    base = sum(sim["cycles"] - sim["extra_cycles"] for sim in sims)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cell_s_p50": statistics.median(times),
        "cell_s_tail": tail_value,
        "events_per_s": sum(s.events for s in timed) * configs / sum(times),
        "peak_rss_mb": rss_mb,
        "detect_frac": sum(sim["detected"] for sim in sims) / len(sims),
        "hard_overhead_pct": 100.0 * extra / base,
    }
    context = {
        "cells_timed": len(times),
        "cell_s_tail_percentile": round(tail_pct, 2),
        "cell_s_tail_samples_beyond": beyond,
        "events_per_cell": statistics.median(s.events for s in timed),
        "setup_repeats": len(setup_times),
    }
    return metrics, context


def per_layer_metrics(samples, tracer) -> dict:
    """Medians over traced cells of each layer's busy/self time and counts."""
    by_cell: dict = {}
    for span in tracer.spans:
        by_cell.setdefault(span.cell, []).append(span)
    rows = []
    pooled = dict.fromkeys(
        ("trace_loads", "trace_hits", "tape_loads", "tape_hits", "record_s", "accesses"), 0
    )
    for sample in samples:
        if not sample.traced or sample.error is not None:
            continue
        cell_spans = by_cell.get(sample.index, [])
        root = next(s for s in cell_spans if s.name == "cell" and s.parent is None)
        layers = spans.cell_layers(cell_spans, root)
        busy, self_s, counts = layers["busy"], layers["self"], layers["counts"]

        def b(name):
            return busy.get(name, 0.0)

        kernels = {key: b(f"kernel.{key}") for key in cells.KEYS}
        rows.append(
            {
                "workloads.build_s": b("workloads.build") + b("workloads.inject"),
                "threads.interleave_s": b("threads.interleave"),
                "threads.events": counts.get("threads.interleave.events", 0),
                "coltrace.pack_s": b("coltrace.pack"),
                "coltrace.sync_runs": sample.sync_runs,
                "tracecache.load_s": b("tracecache.load"),
                "tracecache.store_s": b("tracecache.store"),
                "tapecache.load_s": b("tapecache.load"),
                "tapecache.store_s": b("tapecache.store"),
                "tapecache.bytes": counts.get("tapecache.load.bytes", 0)
                + counts.get("tapecache.store.bytes", 0),
                "tape.record_s": b("tape.record"),
                **{f"kernel.{key}_s": value for key, value in kernels.items()},
                "kernel.total_s": sum(kernels.values()),
                "session.run_s": b("session.run"),
                "session.self_s": self_s.get("session.run", 0.0),
                "shard.partition_s": b("shard.partition"),
                "shard.run_s": b("shard.run"),
                "shard.self_s": self_s.get("shard.run", 0.0),
                "shard.imbalance": sample.imbalance,
                "experiment.score_s": b("experiment.score"),
                "trace.unattributed_s": self_s["cell"],
            }
        )
        pooled["trace_loads"] += counts.get("tracecache.load.spans", 0)
        pooled["trace_hits"] += counts.get("tracecache.load.hit", 0)
        pooled["tape_loads"] += counts.get("tapecache.load.spans", 0)
        pooled["tape_hits"] += counts.get("tapecache.load.hit", 0)
        pooled["record_s"] += b("tape.record")
        pooled["accesses"] += counts.get("tape.record.accesses", 0)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["tracecache.hit_ratio"] = ratio(pooled["trace_hits"], pooled["trace_loads"])
    metrics["tapecache.hit_ratio"] = ratio(pooled["tape_hits"], pooled["tape_loads"])
    metrics["tape.record_us_per_access"] = 1e6 * ratio(pooled["record_s"], pooled["accesses"])
    sims = list(_first_per_input(samples, traced=True).values())
    accesses = sum(sim["accesses"] for sim in sims)
    metrics["sim.accesses"] = accesses
    metrics["sim.l1_hit_ratio"] = ratio(sum(sim["l1_hits"] for sim in sims), accesses)
    metrics["sim.bus_transactions"] = sum(sim["bus_transactions"] for sim in sims)
    metrics["sim.dir_messages"] = sum(sim["dir_messages"] for sim in sims)
    metrics["sim.cycles"] = sum(sim["cycles"] for sim in sims)
    traced = [s.seconds for s in samples if s.traced and s.error is None]
    plain = [s.seconds for s in samples if not s.traced and s.error is None]
    metrics["trace.cell_s_p50"] = statistics.median(traced)
    metrics["trace.untraced_cell_s_p50"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.cell_s_p50"] - metrics["trace.untraced_cell_s_p50"]
    return metrics


def check_against_reference(samples, refs) -> None:
    """Fail every cell whose output differs from its input's oracle."""
    for sample in samples:
        if sample.error is not None:
            continue
        ref_fp, ref_sim = refs[sample.input]
        if sample.fingerprint != ref_fp:
            sample.error = (
                f"cell {sample.index}: fingerprint {sample.fingerprint} differs "
                f"from the scalar oracle's {ref_fp}"
            )
        elif sample.sim != ref_sim:
            sample.error = f"cell {sample.index}: simulated statistics differ"
        if sample.error is not None:
            print(sample.error, file=sys.stderr)


def workload_record(wl, inputs, seed, samples) -> dict:
    """What ran: the facts a reader needs to compare two runs."""
    events = [s.events for s in samples if s.events]
    return {
        "workload": wl.name,
        "why": wl.why,
        "app": wl.app,
        "per_thread_divisor": wl.divisor,
        "threads": wl.threads,
        "seed": seed,
        "inputs": [dataclasses.asdict(inp) for inp in inputs],
        "trace_events": max(events) if events else None,
        "detector_configs": [cells.detectors.config_signature(c) for c in wl.configs()],
        "cores": wl.cores,
        "fabric": wl.fabric,
        "engine_path": wl.path,
        "jobs": wl.jobs,
        "cache_state": wl.cache,
        "load": "closed loop, one client, next cell starts when the previous returns",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "model": MODEL_NOTE,
    }


def measure(name: str, seed: int, seconds: float, traced: bool, root: Path, short: bool = False) -> dict:
    """Run one workload and return the printable result."""
    wl = cells.WORKLOADS[name]
    if short:
        wl = dataclasses.replace(wl, inputs=1)
    inputs = cells.inputs_for(wl, seed)
    out_dir = root / ".perfbench"
    work = out_dir / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    (work / "workers").mkdir(exist_ok=True)
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(work / "tmp")
    tracer = spans.Tracer(work / "workers") if traced else None
    try:
        setup_times, warm, bugs = set_up(wl, inputs, root, work, 1 if short else SETUP_REPEATS)
        samples = run_timed(wl, inputs, seconds, traced, tracer, warm, bugs, work)
        rss_mb = peak_rss_mb(wl)
        check_against_reference(samples, reference_fingerprints(wl, inputs))
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(s.error is not None for s in samples)
    record = workload_record(wl, inputs, seed, samples)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed}
    failed_frac = {"failed_frac": failed / len(samples)}
    if failed:
        result["metrics"] = {}
        return {"result": result, "record": record, "context": failed_frac}
    e2e, context = end_to_end_metrics(wl, samples, setup_times, rss_mb)
    context.update(failed_frac)
    if traced:
        values = per_layer_metrics(samples, tracer)
        units = PER_LAYER
        with (out_dir / f"spans-{name}-{seed}.jsonl").open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    else:
        values = e2e
        units = END_TO_END
    result["metrics"] = {n: {"value": values[n], "unit": unit} for n, unit in units}
    return {"result": result, "record": record, "context": context}
