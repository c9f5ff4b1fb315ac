"""The vectorized batch path: bit-for-bit equal to the scalar reference.

The engine's ``path`` knob selects the walk — ``"scalar"`` is the
per-event reference oracle, ``"batch"`` the vectorized kernels over the
columnar encoding, ``"auto"`` picks batch whenever every core supports it.
These tests pin the API contract (selection, error cases, mixed sessions)
and the core guarantee: identical verdicts, cycles, and stats either way,
on a Table 2 cell and on every checked-in fuzz-corpus exemplar.
"""

from pathlib import Path

import pytest

from repro.api import detect, detect_many
from repro.common.coltrace import ColumnarTrace
from repro.engine import EngineError, EngineSession
from repro.fuzz import load_case
from repro.fuzz.corpus import corpus_paths
from repro.harness.detectors import DetectorConfig, make_detector
from repro.obs import FlightRecorder, Observability, RecordingEmitter
from repro.reporting import run_core
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: The Table 2 cell shape the smoke test replays (a seconds-scale app).
TABLE2_DETECTORS = ("hard-default", "hb-default", "software", "hb-ideal")

#: Every batch-capable detector key.
BATCH_KEYS = (
    "hard-default",
    "hard-ideal",
    "hb-default",
    "hb-ideal",
    "software",
    "fasttrack",
    "acculock",
    "multilock-hb",
)


def result_key(result) -> tuple:
    """Everything that must match for two results to count as identical."""
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


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=3)
    return interleave(program, RandomScheduler(seed=5, max_burst=8)).trace


class TestTable2CellSmoke:
    def test_batch_and_scalar_verdicts_identical(self, trace):
        scalar = detect_many(trace, TABLE2_DETECTORS, engine_path="scalar")
        batch = detect_many(trace, TABLE2_DETECTORS, engine_path="batch")
        assert [result_key(r) for r in scalar] == [result_key(r) for r in batch]

    def test_auto_matches_scalar(self, trace):
        auto = detect_many(trace, TABLE2_DETECTORS)
        scalar = detect_many(trace, TABLE2_DETECTORS, engine_path="scalar")
        assert [result_key(r) for r in auto] == [result_key(r) for r in scalar]

    def test_single_detector_facade(self, trace):
        a = detect(trace, "hard-default", engine_path="batch")
        b = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(a) == result_key(b)


class TestColumnarInput:
    def test_session_accepts_columns(self, trace):
        cols = trace.columns()
        from_cols = detect_many(cols, TABLE2_DETECTORS, engine_path="batch")
        from_trace = detect_many(trace, TABLE2_DETECTORS, engine_path="scalar")
        assert [result_key(r) for r in from_cols] == [
            result_key(r) for r in from_trace
        ]

    def test_serialized_columns_round_trip_through_engine(self, trace):
        cols = ColumnarTrace.from_bytes(trace.columns().to_bytes())
        a = detect(cols, "hb-ideal", engine_path="batch")
        b = detect(trace, "hb-ideal", engine_path="scalar")
        assert result_key(a) == result_key(b)


class TestPathSelection:
    def test_every_key_matches_scalar(self, trace):
        for key in BATCH_KEYS:
            a = detect(trace, key, engine_path="batch")
            b = detect(trace, key, engine_path="scalar")
            assert result_key(a) == result_key(b), key

    def test_unknown_path_rejected(self, trace):
        with pytest.raises(EngineError):
            EngineSession(trace, path="vectorized")

    def test_batch_demands_capable_cores(self, trace):
        # hybrid has no batch kernels: path="batch" must refuse loudly...
        session = EngineSession(trace, path="batch")
        session.add_config(DetectorConfig.coerce("hybrid"))
        with pytest.raises(EngineError):
            session.run()

    def test_auto_falls_back_for_incapable_cores(self, trace):
        # ...while "auto" silently walks them on the scalar path.
        a = detect(trace, "hybrid")
        b = detect(trace, "hybrid", engine_path="scalar")
        assert result_key(a) == result_key(b)

    def test_mixed_session_matches_scalar(self, trace):
        keys = ("hard-default", "hybrid", "hb-ideal")
        mixed = detect_many(trace, keys)
        scalar = detect_many(trace, keys, engine_path="scalar")
        assert [result_key(r) for r in mixed] == [result_key(r) for r in scalar]

    def test_batch_rejects_active_observability(self, trace):
        obs = Observability(emitter=RecordingEmitter())
        session = EngineSession(trace, obs=obs, path="batch")
        session.add_config(DetectorConfig.coerce("hard-default"))
        with pytest.raises(EngineError):
            session.run()

    def test_auto_with_recorder_still_matches(self, trace):
        # A flight recorder forces the scalar walk under "auto"; results
        # must still be the reference results.
        obs = Observability(telemetry=FlightRecorder())
        observed = detect_many(trace, ("hard-default",), obs=obs)
        plain = detect_many(trace, ("hard-default",), engine_path="scalar")
        assert result_key(observed[0]) == result_key(plain[0])


class TestCorpusExemplars:
    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_exemplar_batch_equals_scalar(self, path):
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        for key in BATCH_KEYS:
            a = detect(trace, key, engine_path="batch")
            b = detect(trace, key, engine_path="scalar")
            assert result_key(a) == result_key(b), (path.stem, key)


#: Scalar walks the auto path must reproduce bit-for-bit: run_core per key
#: (auto takes the batch kernels wherever a key has them), and a
#: flight-recorded scalar session with three cores on one MachineConfig.
SCALAR_WALKS = {
    "hard-ideal": (("hard-ideal",), False),
    "hb-default": (("hb-default",), False),
    "hb-ideal": (("hb-ideal",), False),
    "software": (("software",), False),
    "hybrid": (("hybrid",), False),
    "recorded-shared-machine": (
        ("hard-default", "hb-default", "software"),
        True,
    ),
}


class TestScalarOracle:
    def test_run_core_matches_scalar_session(self, trace):
        oracle = run_core(make_detector("hard-default").core(), trace)
        session = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(oracle) == result_key(session)

    @pytest.mark.parametrize("walk", SCALAR_WALKS)
    def test_scalar_walk_matches_auto(self, walk, trace):
        keys, recorded = SCALAR_WALKS[walk]
        if recorded:
            obs = Observability(telemetry=FlightRecorder())
            session = EngineSession(trace, obs=obs, path="scalar")
            for key in keys:
                session.add_config(DetectorConfig.coerce(key))
            scalar = session.run()
        else:
            scalar = [run_core(make_detector(key).core(), trace) for key in keys]
        auto = detect_many(trace, keys)
        assert [result_key(r) for r in scalar] == [result_key(r) for r in auto]
