"""Shared fixtures for the paper-exhibit benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation.
Detector verdicts are cached on disk (keyed by workload content + detector
configuration), so a warm cache makes re-runs fast.  Benchmark runs write
their cache entries under a session-scoped temporary directory by default —
the local, git-ignored ``results/cache`` must not grow as a side effect of
running the suite (``repro cache gc`` manages its size).  Point
``REPRO_BENCH_CACHE_DIR`` at a persistent directory (e.g.
``results/cache``) to keep a warm cache across runs.  Each benchmark
writes its exhibit to ``results/`` and prints it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.experiment import ExperimentRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner(tmp_path_factory) -> ExperimentRunner:
    """One experiment runner (and verdict cache) for the whole session."""
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if not cache_dir:
        cache_dir = tmp_path_factory.mktemp("bench-cache")
    with ExperimentRunner(cache_dir=cache_dir) as session_runner:
        yield session_runner


@pytest.fixture
def checked(benchmark):
    """Run a check body exactly once under the benchmark fixture.

    ``pytest benchmarks/ --benchmark-only`` deselects tests that do not use
    the ``benchmark`` fixture; routing every exhibit check through this
    helper keeps the whole suite runnable (and timed) in that mode without
    re-executing expensive experiment code multiple rounds.
    """

    def _run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run


@pytest.fixture(scope="session")
def save_exhibit():
    """Write an exhibit's text to results/<name>.txt and echo it."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _save
