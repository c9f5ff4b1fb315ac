"""Scale-out study: snoopy broadcast vs directory control traffic.

Section 3.4 observes that HARD's Figure 6 candidate-set broadcast "can be
replaced by point-to-point messages to the directory" on larger machines.
This exhibit replays the race-free runs on the parameterized machine
(4/8/16/64 cores, both coherence fabrics) and records where broadcast
control traffic crosses directory traffic as the core count grows.

The narrative writeup lives in ``results/scaling.md``; detect-phase wall
times are tracked separately by ``repro bench scaling``
(``benchmarks/baselines/BENCH_scaling.json``).
"""

import pytest

from repro.common.config import SCALING_CORE_COUNTS
from repro.harness import tables


@pytest.fixture(scope="module")
def scaling_data(runner):
    return tables.scaling(runner)


def test_exhibit_regenerates(scaling_data, save_exhibit, checked):
    def _check():
        save_exhibit("scaling", tables.render_scaling(scaling_data))

    checked(_check)


def test_directory_wins_traffic_at_scale(scaling_data, checked):
    def _check():
        # At 16 cores and beyond, every workload's broadcast control
        # traffic exceeds the directory's point-to-point traffic.
        for app, row in scaling_data.items():
            for cores in (16, 64):
                cell = row[str(cores)]
                assert (
                    cell["directory"]["control_bytes"]
                    < cell["snoopy"]["control_bytes"]
                ), (app, cores)

    checked(_check)


def test_broadcast_penalty_grows_with_cores(scaling_data, checked):
    def _check():
        # The snoopy/directory traffic ratio grows monotonically in the
        # core count: broadcast scales with cores - 1, directory with the
        # (bounded) sharing degree.
        for app, row in scaling_data.items():
            ratios = []
            for cores in SCALING_CORE_COUNTS:
                cell = row[str(cores)]
                ratios.append(
                    cell["snoopy"]["control_bytes"]
                    / cell["directory"]["control_bytes"]
                )
            assert ratios == sorted(ratios), (app, ratios)
            assert ratios[-1] > ratios[0], (app, ratios)

    checked(_check)


def test_verdicts_agree_across_fabrics(scaling_data, checked):
    def _check():
        # Coherence is an accounting substrate, not a detector input: on
        # the race-free run both fabrics must report the same alarm count
        # at every machine size.
        for app, row in scaling_data.items():
            for cores in SCALING_CORE_COUNTS:
                cell = row[str(cores)]
                assert (
                    cell["snoopy"]["alarms"] == cell["directory"]["alarms"]
                ), (app, cores)

    checked(_check)


def test_bench_one_scaling_cell(runner, benchmark):
    from repro.engine import EngineSession
    from repro.harness.experiment import CLEAN_RUN

    trace = runner.trace_for("webserver", CLEAN_RUN)

    def _detect():
        session = EngineSession(
            trace,
            path=runner.engine_path,
            jobs=runner.engine_jobs,
            tape_cache=runner.tape_cache,
        )
        session.add_config(tables._scaling_config("hard-default", 64, "directory"))
        return session.run()[0]

    result = benchmark.pedantic(_detect, rounds=1, iterations=1)
    assert result.reports.alarm_count >= 0
