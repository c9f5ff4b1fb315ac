"""Unit and integration tests for the engine flight recorder."""

import pytest

from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig
from repro.obs import FlightRecorder, Observability
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload


def small_trace(app="fuzz:3", seed=0):
    program = build_workload(app, seed=seed)
    return interleave(program, RandomScheduler(seed=seed, max_burst=8)).trace


class TestFrames:
    def test_nested_frames_accumulate_by_path(self):
        recorder = FlightRecorder()
        with recorder.frame("outer"):
            with recorder.frame("inner"):
                pass
        assert ("outer",) in recorder.frames
        assert ("outer", "inner") in recorder.frames
        # The parent's total includes the child's time.
        assert recorder.frames[("outer",)] >= recorder.frames[("outer", "inner")]

    def test_collapsed_reports_self_time(self):
        recorder = FlightRecorder()
        recorder.record_frame(("a",), 1.0)
        recorder.record_frame(("a", "b"), 0.25)
        lines = dict(
            line.rsplit(" ", 1) for line in recorder.collapsed().splitlines()
        )
        # a's self time is total minus its direct child.
        assert int(lines["a"]) == 750_000
        assert int(lines["a;b"]) == 250_000

    def test_collapsed_self_time_never_negative(self):
        recorder = FlightRecorder()
        recorder.record_frame(("a",), 0.1)
        recorder.record_frame(("a", "b"), 0.5)  # child exceeds parent (merged)
        lines = dict(
            line.rsplit(" ", 1) for line in recorder.collapsed().splitlines()
        )
        assert int(lines["a"]) == 0

    def test_write_flame(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record_frame(("engine", "walk"), 0.5)
        path = tmp_path / "flame.txt"
        recorder.write_flame(path)
        assert path.read_text() == "engine;walk 500000\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder().record_frame(("x",), -0.1)


class TestCensus:
    def test_observe_trace_estimates_sync_density(self):
        trace = small_trace()
        recorder = FlightRecorder(census_stride=1)  # exact census
        estimates = recorder.observe_trace(trace)
        counters = recorder.registry.snapshot()
        assert estimates["events"] == len(trace)
        assert counters["telemetry.trace.events"] == len(trace)
        # stride=1 census is exact: sync points match a full count.
        expected_sync = sum(
            1
            for event in trace
            if event.op.kind.value in ("lock", "unlock", "barrier")
        )
        assert counters["telemetry.trace.sync_points"] == expected_sync

    def test_strided_census_touches_a_fraction(self):
        trace = small_trace()
        recorder = FlightRecorder(census_stride=64)
        recorder.observe_trace(trace)
        counters = recorder.registry.snapshot()
        assert counters["telemetry.trace.census_samples"] <= len(trace) // 64 + 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(sample_period=0)
        with pytest.raises(ValueError):
            FlightRecorder(census_stride=0)


class TestWalkAggregates:
    def test_record_core_walk_scales_samples_to_estimate(self):
        recorder = FlightRecorder()
        # 10 samples totalling 1ms over 1000 stepped events -> 100ms est.
        recorder.record_core_walk("hard", 1000, 0.001, 10)
        core = recorder.snapshot()["cores"]["hard"]
        assert core["stepped"] == 1000
        assert core["est_wall_s"] == pytest.approx(0.1)
        assert core["events_per_s"] == pytest.approx(10_000, rel=0.01)

    def test_snapshot_shape(self):
        recorder = FlightRecorder()
        recorder.record_walk(0.5)
        snap = recorder.snapshot()
        assert snap["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert snap["counters"]["telemetry.engine.walks"] == 1
        assert "engine;walk" in snap["frames"]
        assert "telemetry.engine.walk" in snap["timers"]


class TestMerge:
    def test_merge_is_associative_across_worker_shards(self):
        # Simulate two parallel workers each carrying a recorder shard.
        shards = []
        for worker in range(2):
            shard = FlightRecorder()
            shard.record_core_walk("hard", 500, 0.0005, 5)
            shard.record_walk(0.25)
            shard.record_frame(("engine", "walk"), 0.25)
            shards.append(shard)
        merged = FlightRecorder()
        for shard in shards:
            merged.merge(shard)
        snap = merged.snapshot()
        assert snap["cores"]["hard"]["stepped"] == 1000
        assert snap["cores"]["hard"]["walks"] == 2
        assert snap["counters"]["telemetry.engine.walks"] == 2
        # Frames merged without re-entering the stack accounting.
        assert merged.frames[("engine", "walk")] == pytest.approx(1.0)

    def test_merge_preserves_step_histogram(self):
        a, b = FlightRecorder(), FlightRecorder()
        a.record_core_walk("x", 100, 0.001, 1)
        b.record_core_walk("x", 100, 0.002, 1)
        a.merge(b)
        assert a.registry.histogram("telemetry.step_us").count == 2


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def trace(self):
        return small_trace()

    def test_telemetry_run_is_bit_for_bit_identical(self, trace):
        configs = ["hard-default", "hb-default", "software", "hb-ideal"]

        def run(obs):
            session = EngineSession(trace, obs=obs)
            for key in configs:
                session.add_config(DetectorConfig.coerce(key))
            return session.run()

        plain = run(None)
        recorded = run(Observability(telemetry=FlightRecorder()))
        for p, r in zip(plain, recorded):
            assert p.detector == r.detector
            assert p.cycles == r.cycles
            assert p.detector_extra_cycles == r.detector_extra_cycles
            assert p.stats.snapshot() == r.stats.snapshot()
            assert [
                (rep.seq, rep.thread_id, rep.addr) for rep in p.reports
            ] == [(rep.seq, rep.thread_id, rep.addr) for rep in r.reports]

    def test_cores_on_one_machine_config_step_every_event(self, trace):
        recorder = FlightRecorder(sample_period=7)  # force mid-period end
        session = EngineSession(trace, obs=Observability(telemetry=recorder))
        # hard-default and hb-default share one MachineConfig; each still
        # replays its own machine, so each steps every event (COMPUTE too).
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.add_config(DetectorConfig.coerce("hb-default"))
        session.run()
        assert recorder.registry.snapshot()["telemetry.engine.walks"] == 2
        for core in recorder.cores.values():
            assert core["stepped"] == len(trace)

    def test_solo_walk_steps_every_event(self, trace):
        recorder = FlightRecorder(sample_period=7)
        session = EngineSession(trace, obs=Observability(telemetry=recorder))
        session.add_config(DetectorConfig.coerce("hb-ideal"))  # trace-only
        session.run()
        assert recorder.cores["hb-ideal"]["stepped"] == len(trace)

    def test_traced_walk_feeds_recorder_exactly(self, trace):
        from repro.obs import RecordingEmitter

        recorder = FlightRecorder()
        obs = Observability(
            emitter=RecordingEmitter(), telemetry=recorder
        )
        session = EngineSession(trace, obs=obs)
        session.add_config(DetectorConfig.coerce("hb-ideal"))
        session.run()
        core = recorder.cores["hb-ideal"]
        # Tracing times every step: samples == stepped (exact, not sampled).
        assert core["samples"] == core["stepped"] == len(trace)
