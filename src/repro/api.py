"""``repro.api`` — the stable public surface of the reproduction toolkit.

Import from here (or from :mod:`repro`, which re-exports everything below);
the harness internals behind these functions are free to move between
releases, the facade is not.

Four entry points cover the toolkit:

* :func:`run_pipeline` — one workload through one detector with full
  observability; returns a :class:`PipelineRun` whose ``report`` is the
  machine-readable :class:`~repro.obs.runreport.RunReport`.
* :func:`run_table` — regenerate one paper exhibit (``table2`` …
  ``table6``, ``figure8``); returns a :class:`TableResult` with both the
  raw data dict and the rendered text.
* :func:`sweep` — an arbitrary sensitivity study over one
  :class:`DetectorConfig` knob; returns a
  :class:`~repro.harness.sweeps.SweepResult`.
* :func:`detect` — run one detector over a trace you already have;
  returns a :class:`~repro.reporting.DetectionResult`.
* :func:`detect_many` — run several detector configurations over one
  trace in a single engine pass (one recorded machine tape per machine
  configuration, bit-for-bit identical results).
* :func:`run_fuzz` — differential fuzzing: generated programs through the
  whole detector suite, every divergence classified against the paper's
  approximation taxonomy; returns a
  :class:`~repro.fuzz.harness.FuzzReport`.
* :func:`run_benchmark` — one named performance benchmark (``engine``,
  ``pipeline``) as a structured :class:`~repro.obs.perf.BenchResult`;
  :func:`compare_bench` / :func:`load_bench` / :func:`write_bench` round
  out the continuous performance observatory.

Every grid entry point takes ``jobs``: ``1`` (the default) evaluates the
grid serially, ``N > 1`` fans it out over worker processes via
:mod:`repro.harness.parallel` with bit-for-bit identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.common.coltrace import ColumnarTrace, SyncRun
from repro.common.errors import HarnessError
from repro.common.events import Trace
from repro.engine import EngineSession, detect_with_engine
from repro.harness import tables as _tables
from repro.harness.detectors import (
    DETECTOR_KEYS,
    DetectorConfig,
    PAPER_DETECTORS,
    config_signature,
    make_detector,
)
from repro.fuzz import (
    DEFAULT_SPEC,
    FuzzCaseResult,
    FuzzReport,
    FuzzSpec,
    OracleConfig,
)
from repro.fuzz import run_fuzz as _run_fuzz
from repro.fuzz.oracle import DEFAULT_ORACLE
from repro.harness.experiment import ExperimentRunner, RunOutcome
from repro.harness.parallel import GridCell, GridReport, default_jobs, run_grid
from repro.harness.bench import BENCHMARKS, run_benchmark
from repro.harness.pipeline import PipelineRun, run_pipeline
from repro.harness.sweeps import SweepCell, SweepResult
from repro.harness.sweeps import sweep as _sweep
from repro.obs import FlightRecorder, Observability, RunReport
from repro.obs.perf import (
    DEFAULT_REGRESSION_THRESHOLD,
    BenchComparison,
    BenchResult,
    BenchSchemaError,
    bench_path,
    compare_bench,
    load_bench,
    validate_bench,
    write_bench,
)
from repro.hybrids import (
    ConformanceReport,
    ConformanceSuiteResult,
    check_conformance,
    run_conformance_suite,
)
from repro.reporting import DetectionResult, hybrid_comparison
from repro.workloads.registry import WORKLOAD_NAMES

#: Exhibit names :func:`run_table` accepts.
EXHIBITS = (
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure8",
    "hybrids",
    "scaling",
)


@dataclass
class TableResult:
    """One regenerated paper exhibit.

    Attributes:
        name: the exhibit name (``table2`` … ``figure8``).
        data: the raw exhibit data, keyed by application.
        text: the rendered, paper-shaped table.
        jobs: how many worker processes evaluated the grid.
        metrics: the runner's merged harness metrics (trace builds, cache
            hits, per-phase timers) as a JSON-serialisable dict.
    """

    name: str
    data: dict
    text: str
    jobs: int = 1
    metrics: dict | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "jobs": self.jobs,
            "data": self.data,
            "text": self.text,
            "metrics": self.metrics,
        }


def detect(
    trace: Trace | ColumnarTrace,
    config: DetectorConfig | str = "hard-default",
    *,
    obs: Observability | None = None,
    engine_path: str = "auto",
    jobs: int = 1,
    **overrides,
) -> DetectionResult:
    """Run one detector configuration over an existing trace.

    ``trace`` may be a :class:`~repro.common.events.Trace` or its packed
    :class:`~repro.common.coltrace.ColumnarTrace` encoding (e.g. straight
    from an mmap-loaded cache file).  ``engine_path`` selects the walk:
    ``"auto"`` uses the vectorized batch kernels when available,
    ``"scalar"`` forces the per-event reference walk, ``"batch"`` asserts
    the vectorized path is taken, and ``"sharded"`` partitions the trace
    by address across ``jobs`` worker processes (``jobs > 1`` also lets
    ``"auto"`` pick the sharded path on large traces).
    """
    session = EngineSession(trace, obs=obs, path=engine_path, jobs=jobs)
    session.add_config(DetectorConfig.coerce(config, **overrides))
    return session.run()[0]


def detect_many(
    trace: Trace | ColumnarTrace,
    configs: Sequence[DetectorConfig | str],
    *,
    obs: Observability | None = None,
    engine_path: str = "auto",
    jobs: int = 1,
) -> list[DetectionResult]:
    """Run many detector configurations over one trace in a single pass.

    The trace — either representation, as in :func:`detect` — is walked
    once by an :class:`~repro.engine.EngineSession` feeding every
    configuration's incremental core; with ``engine_path="auto"`` cores
    that support it consume the columnar encoding through the vectorized
    batch kernels (sharing one prerecorded machine tape), and the rest
    run the scalar reference walk, each on its own machine.  Each
    returned :class:`DetectionResult` is bit-for-bit identical to the
    corresponding standalone :func:`detect` call — the detectors still
    observe the *identical execution*, exactly as the paper's methodology
    requires.  ``engine_path="sharded"`` (or ``"auto"`` with ``jobs > 1``
    on a large trace) additionally partitions the trace by address and
    fans the shards out over worker processes.

    Returns one result per entry of ``configs``, in order.
    """
    session = EngineSession(trace, obs=obs, path=engine_path, jobs=jobs)
    for config in configs:
        session.add_config(DetectorConfig.coerce(config))
    return session.run()


def make_runner(
    *,
    workload_seed: object = 0,
    runs: int = 10,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> ExperimentRunner:
    """An :class:`ExperimentRunner` for custom protocols beyond the facade."""
    return ExperimentRunner(
        workload_seed=workload_seed, runs=runs, cache_dir=cache_dir, jobs=jobs
    )


def run_table(
    name: str,
    *,
    apps: tuple[str, ...] = WORKLOAD_NAMES,
    runs: int = 10,
    workload_seed: object = 0,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> TableResult:
    """Regenerate one paper exhibit (Tables 2–6 or Figure 8).

    ``jobs > 1`` evaluates the exhibit's grid across worker processes; the
    returned data and text are bit-for-bit identical to a serial run.
    """
    if name not in EXHIBITS:
        raise HarnessError(f"unknown exhibit {name!r}; expected one of {EXHIBITS}")
    runner = make_runner(
        workload_seed=workload_seed, runs=runs, cache_dir=cache_dir, jobs=jobs
    )
    if name == "table2":
        data = _tables.table2(runner, apps=apps)
        text = _tables.render_table2(data, runs=runs)
    elif name == "table3":
        data = _tables.table3(runner, apps=apps)
        text = _tables.render_table3(data)
    elif name in ("table4", "table5"):
        data = _tables.table4_and_5(runner, apps=apps)
        render = _tables.render_table4 if name == "table4" else _tables.render_table5
        text = render(data)
    elif name == "table6":
        data = _tables.table6(runner, apps=apps)
        text = _tables.render_table6(data)
    elif name == "hybrids":
        data = _tables.hybrids(runner, apps=apps)
        text = _tables.render_hybrids(data, runs=runs)
    elif name == "scaling":
        # The scaling study has its own default universe (server-shaped
        # workloads); an explicit --apps selection still narrows it.
        scaling_apps = _tables.SCALING_APPS if apps == WORKLOAD_NAMES else apps
        data = _tables.scaling(runner, apps=scaling_apps)
        text = _tables.render_scaling(data)
    else:  # figure8
        data = _tables.figure8(runner, apps=apps)
        text = _tables.render_figure8(data)
    return TableResult(
        name=name,
        data=data,
        text=text,
        jobs=runner.jobs,
        metrics=runner.metrics.snapshot_all(),
    )


def sweep(
    detector: str = "hard-default",
    parameter: str = "granularity",
    values: list[object] | None = None,
    *,
    apps: tuple[str, ...] = WORKLOAD_NAMES,
    runs: int = 10,
    include_detection: bool = True,
    workload_seed: object = 0,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
    obs: Observability | None = None,
) -> SweepResult:
    """Measure a detector across an arbitrary parameter grid.

    ``parameter`` is any knob of :class:`DetectorConfig`; ``values`` are
    the settings to sweep (defaults to the paper's Table 3 granularities).
    An ``obs`` bundle gets one span per assembled cell and — when its
    registry is shared with the runner, as here — the harness counters;
    the result's ``metrics`` carries the same snapshot either way.
    """
    if values is None:
        values = list(_tables.PAPER_TABLE3_GRANULARITIES)
    runner = ExperimentRunner(
        workload_seed=workload_seed,
        runs=runs,
        cache_dir=cache_dir,
        jobs=jobs,
        metrics=obs.metrics if obs is not None else None,
    )
    return _sweep(
        runner,
        detector=detector,
        parameter=parameter,
        values=values,
        apps=apps,
        include_detection=include_detection,
        obs=obs,
    )


def run_fuzz(
    seeds: int = 100,
    *,
    jobs: int = 1,
    workload_seed: object = 0,
    spec: FuzzSpec = DEFAULT_SPEC,
    config: OracleConfig = DEFAULT_ORACLE,
    corpus_dir: str | Path | None = None,
    log=None,
    obs: Observability | None = None,
) -> FuzzReport:
    """Differential-fuzz ``seeds`` generated programs (see :mod:`repro.fuzz`).

    Every seed produces a clean case and (when an injectable section
    exists) an injected-bug case; each case runs the full detector suite
    and classifies every divergence.  ``jobs > 1`` fans seeds out over
    worker processes with bit-for-bit identical reports; with
    ``corpus_dir`` set, unexplained cases are shrunk to reproducers there.
    An ``obs`` bundle gets one ``fuzz.case`` event per case plus ``fuzz.*``
    counters (emitted after the fan-in; the report is unaffected).
    """
    return _run_fuzz(
        seeds,
        jobs=jobs,
        workload_seed=workload_seed,
        spec=spec,
        config=config,
        corpus_dir=corpus_dir,
        log=log,
        obs=obs,
    )


__all__ = [
    # entry points
    "run_pipeline",
    "run_table",
    "sweep",
    "detect",
    "detect_many",
    "run_fuzz",
    "check_conformance",
    "run_conformance_suite",
    "hybrid_comparison",
    "run_benchmark",
    "make_runner",
    "run_grid",
    "default_jobs",
    # performance observatory
    "BENCHMARKS",
    "BenchResult",
    "BenchComparison",
    "BenchSchemaError",
    "bench_path",
    "compare_bench",
    "load_bench",
    "validate_bench",
    "write_bench",
    "DEFAULT_REGRESSION_THRESHOLD",
    "FlightRecorder",
    # typed results
    "PipelineRun",
    "RunReport",
    "TableResult",
    "SweepResult",
    "SweepCell",
    "DetectionResult",
    "RunOutcome",
    "GridReport",
    "FuzzReport",
    "FuzzCaseResult",
    "ConformanceReport",
    "ConformanceSuiteResult",
    # trace representations
    "Trace",
    "ColumnarTrace",
    "SyncRun",
    # configuration surface
    "FuzzSpec",
    "OracleConfig",
    "DetectorConfig",
    "EngineSession",
    "detect_with_engine",
    "GridCell",
    "ExperimentRunner",
    "config_signature",
    "make_detector",
    # vocabularies
    "EXHIBITS",
    "DETECTOR_KEYS",
    "PAPER_DETECTORS",
    "WORKLOAD_NAMES",
    # errors
    "HarnessError",
]
