"""Unit tests for the engine: session mechanics, machine configs, consumers."""

import pytest

from repro.api import detect_many
from repro.engine import EngineError, EngineSession
from repro.harness.detectors import DetectorConfig, make_detector
from repro.harness.experiment import CLEAN_RUN, ExperimentRunner
from repro.harness.pipeline import run_pipeline
from repro.harness.tracestats import TraceStatsCore, characterize
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


class TestSessionLifecycle:
    def test_run_requires_cores(self, trace):
        with pytest.raises(EngineError):
            EngineSession(trace).run()

    def test_session_is_single_use(self, trace):
        session = EngineSession(trace)
        session.add_config(DetectorConfig("hb-ideal"))
        session.run()
        with pytest.raises(EngineError):
            session.run()

    def test_add_after_run_rejected(self, trace):
        session = EngineSession(trace)
        session.add_config(DetectorConfig("hb-ideal"))
        session.run()
        with pytest.raises(EngineError):
            session.add_config(DetectorConfig("hard-ideal"))

    def test_results_follow_add_order(self, trace):
        keys = ("hb-ideal", "hard-ideal", "software", "hard-default")
        session = EngineSession(trace)
        for key in keys:
            session.add_config(DetectorConfig(key))
        results = session.run()
        assert [r.detector for r in results] == list(keys)

    def test_auxiliary_core_rides_along(self, trace):
        # A trace-only auxiliary core (finish() is not a DetectionResult)
        # shares the walk with detector cores: same position, same answer
        # as its standalone shim.
        session = EngineSession(trace)
        session.add_core(TraceStatsCore())
        session.add_config(DetectorConfig("hb-ideal"))
        stats, result = session.run()
        assert stats.to_dict() == characterize(trace).to_dict()
        assert result.detector == "hb-ideal"


class TestMachineSharing:
    def test_default_machine_configs_are_compatible(self):
        # Bus-based detectors at default settings describe the same
        # machine, so one MachineTape recording feeds all of them.
        configs = {
            make_detector(DetectorConfig(key)).core().machine_config
            for key in ("hard-default", "hb-default", "software")
        }
        assert len(configs) == 1

    def test_ideal_detectors_are_trace_only(self):
        for key in ("hard-ideal", "hb-ideal", "hybrid"):
            core = make_detector(DetectorConfig(key)).core()
            assert core.machine_config is None

    def test_directory_shares_the_default_replay(self):
        # The directory variant models its protocol costs (home-node
        # messages, sharer-list updates) at the detector layer over the
        # same cache replay, so it shares the default machine config too.
        bus = make_detector(DetectorConfig("hard-default")).core()
        directory = make_detector(DetectorConfig("hard-directory")).core()
        assert bus.machine_config == directory.machine_config


class TestDetectMany:
    def test_results_in_request_order(self, trace):
        results = detect_many(trace, ["hb-ideal", "hard-ideal"])
        assert [r.detector for r in results] == ["hb-ideal", "hard-ideal"]

    def test_accepts_config_objects(self, trace):
        config = DetectorConfig("hard-ideal", granularity=8)
        [result] = detect_many(trace, [config])
        assert result.detector == "hard-ideal"


class TestTraceMemoLRU:
    def test_memo_is_bounded(self):
        runner = ExperimentRunner(trace_memo_limit=2)
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", 0)
        runner.trace_for("raytrace", 1)
        assert len(runner._traces) == 2
        assert ("raytrace", CLEAN_RUN) not in runner._traces
        assert runner.metrics.snapshot()["harness.trace_memo_evictions"] == 1

    def test_hit_refreshes_recency(self):
        runner = ExperimentRunner(trace_memo_limit=2)
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", 0)
        runner.trace_for("raytrace", CLEAN_RUN)  # hit: most recent again
        runner.trace_for("raytrace", 1)  # evicts run 0, not CLEAN_RUN
        assert ("raytrace", CLEAN_RUN) in runner._traces
        assert ("raytrace", 0) not in runner._traces

    def test_unbounded_when_disabled(self):
        runner = ExperimentRunner(trace_memo_limit=None)
        for run in (CLEAN_RUN, 0, 1):
            runner.trace_for("raytrace", run)
        assert len(runner._traces) == 3


class TestRunDetectors:
    def test_one_call_scores_many_configs(self):
        runner = ExperimentRunner()
        outcomes = runner.run_detectors(
            "raytrace", 0, ["hard-ideal", "hb-ideal"]
        )
        assert len(outcomes) == 2
        for outcome, key in zip(outcomes, ("hard-ideal", "hb-ideal")):
            assert outcome == runner.run_detector("raytrace", 0, key)

    def test_duplicate_configs_resolve(self):
        runner = ExperimentRunner()
        outcomes = runner.run_detectors(
            "raytrace", 0, ["hard-ideal", "hard-ideal"]
        )
        assert outcomes[0] == outcomes[1]


class TestPipelineMultiDetector:
    def test_results_and_verdict_per_detector(self):
        run = run_pipeline(
            "raytrace", "hard-ideal,hb-ideal", bug_seed=3
        )
        assert [r.detector for r in run.results] == ["hard-ideal", "hb-ideal"]
        assert run.result is run.results[0]
        assert run.report.detector == "hard-ideal,hb-ideal"
        per_detector = run.report.verdict["detectors"]
        assert set(per_detector) == {"hard-ideal", "hb-ideal"}
        for entry in per_detector.values():
            assert set(entry) == {"detected", "dynamic_reports", "alarms"}

    def test_single_detector_has_no_breakdown(self):
        run = run_pipeline("raytrace", "hard-ideal", bug_seed=3)
        assert run.results == [run.result]
        assert "detectors" not in run.report.verdict

    def test_empty_detector_key_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline("raytrace", " , ")


class TestCliMultiDetector:
    def test_run_prints_per_detector_reports(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "raytrace",
                "--detector",
                "hard-ideal,hb-ideal",
                "--bug-seed",
                "3",
                "--show-alarms",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hard-ideal:" in out
        assert "hb-ideal:" in out
        assert "alarm [" in out
