"""The address-sharded parallel path: bit-for-bit equal to the reference.

``path="sharded"`` partitions the columnar trace and the machine tape by
address unit, runs the unchanged batch kernels over each shard (serially
in-process or across worker processes), and merges the per-shard results.
These tests pin the whole contract: identical verdicts, cycles, and stats
against both the scalar reference and the single-process batch walk — on a
Table 2 cell, on every checked-in fuzz exemplar, and on hand-built
boundary shapes (one address, empty shards, unit-spanning accesses) —
plus the API surface (auto selection, gating errors, cache lifecycle) and
the persistent tape cache's simulate-once guarantee.
"""

from pathlib import Path

import pytest

from repro.api import detect, detect_many
from repro.common.errors import ProgramError
from repro.common.events import Site, Trace, barrier, compute, lock, read, unlock, write
from repro.engine import EngineError, EngineSession, run_sharded
from repro.engine.shard import build_partition, unit_shift_for
from repro.engine.tape import MachineTape
from repro.fuzz import load_case
from repro.fuzz.corpus import corpus_paths
from repro.harness.detectors import DetectorConfig, make_detector
from repro.harness.tracecache import TapeCache
from repro.obs import Observability, RecordingEmitter
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

from tests.engine.test_batch_path import BATCH_KEYS, result_key

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

S = [Site("shard.c", i, f"s{i}") for i in range(8)]


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=3)
    return interleave(program, RandomScheduler(seed=5, max_burst=8)).trace


@pytest.fixture(scope="module")
def scalar_results(trace):
    return [
        result_key(r)
        for r in detect_many(trace, BATCH_KEYS, engine_path="scalar")
    ]


def sharded_keys(trace, *, jobs=1, shards=None, keys=BATCH_KEYS):
    configs = [DetectorConfig.coerce(key) for key in keys]
    results = run_sharded(
        trace.columns(), configs, jobs=jobs, shards=shards
    )
    return [result_key(r) for r in results]


class TestParity:
    @pytest.mark.parametrize("shards", (1, 2, 3, 5))
    def test_serial_sharded_matches_scalar(self, trace, scalar_results, shards):
        assert sharded_keys(trace, shards=shards) == scalar_results

    def test_sharded_matches_batch(self, trace):
        batch = detect_many(trace, BATCH_KEYS, engine_path="batch")
        assert sharded_keys(trace, shards=3) == [
            result_key(r) for r in batch
        ]

    def test_worker_processes_match_scalar(self, trace, scalar_results):
        assert sharded_keys(trace, jobs=2, shards=2) == scalar_results

    def test_session_path_sharded(self, trace, scalar_results):
        session = EngineSession(trace, path="sharded", jobs=1)
        for key in BATCH_KEYS:
            session.add_config(DetectorConfig.coerce(key))
        assert [result_key(r) for r in session.run()] == scalar_results

    def test_facade_engine_path(self, trace):
        a = detect(trace, "hard-default", engine_path="sharded")
        b = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(a) == result_key(b)


class TestCorpusExemplars:
    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_exemplar_sharded_equals_scalar(self, path):
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        scalar = [
            result_key(r)
            for r in detect_many(trace, BATCH_KEYS, engine_path="scalar")
        ]
        assert sharded_keys(trace, shards=3) == scalar, path.stem


def trace_of(events, num_threads=4) -> Trace:
    trace = Trace(num_threads=num_threads)
    for thread_id, op in events:
        trace.append(thread_id, op)
    return trace


def assert_shard_parity(trace, shards=4, keys=BATCH_KEYS):
    scalar = [
        result_key(r) for r in detect_many(trace, keys, engine_path="scalar")
    ]
    assert sharded_keys(trace, shards=shards, keys=keys) == scalar


class TestBoundaryShapes:
    def test_single_address_trace(self):
        # Every memory event lands in one shard; the others are empty
        # (sync events only) and must merge away without residue.
        events = []
        for round_index in range(4):
            for tid in range(2):
                events.append((tid, write(0x40000, S[tid])))
            events.append((0, barrier(1, 2)))
            events.append((1, barrier(1, 2)))
        assert_shard_parity(trace_of(events, num_threads=2), shards=4)

    def test_all_events_one_line(self):
        # Distinct addresses inside one cache line: one ownership unit.
        events = [
            (0, lock(0x1000, S[0])),
            (0, write(0x20000, S[1])),
            (0, write(0x20010, S[2])),
            (0, unlock(0x1000, S[0])),
            (1, read(0x20004, S[3])),
            (1, write(0x20018, S[4])),
        ]
        assert_shard_parity(trace_of(events, num_threads=2), shards=3)

    def test_unit_spanning_access(self):
        # A 64-byte write crosses the 32-byte line unit: both units must
        # resolve to one shard so every chunk of the event stays together.
        events = [
            (0, write(0x20010, S[0], size=64)),
            (1, read(0x20030, S[1])),
            (1, write(0x20050, S[2], size=64)),
            (0, read(0x20090, S[3])),
            (0, compute(100)),
        ]
        assert_shard_parity(trace_of(events, num_threads=2), shards=4)

    def test_spanning_partition_is_consistent(self):
        events = [(0, write(0x20010, S[0], size=64))]
        cols = trace_of(events, num_threads=1).columns()
        cores = [
            make_detector(DetectorConfig.coerce(key)).core()
            for key in ("hard-default", "hb-ideal")
        ]
        unit_shift = unit_shift_for(cores)
        overrides = build_partition(cols, unit_shift, num_shards=64)
        first = 0x20010 >> unit_shift
        last = (0x20010 + 64 - 1) >> unit_shift
        owners = {overrides[unit] for unit in range(first, last + 1)}
        assert len(owners) == 1

    def test_more_shards_than_addresses(self, trace):
        keys = ("hard-default", "software")
        scalar = [
            result_key(r)
            for r in detect_many(trace, keys, engine_path="scalar")
        ]
        assert sharded_keys(trace, shards=13, keys=keys) == scalar


class TestSelectionAndGating:
    def test_auto_picks_sharded_above_threshold(self, trace, monkeypatch):
        calls = []
        import repro.engine.shard as shard_module

        real = shard_module.run_sharded

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_module, "run_sharded", spy)
        session = EngineSession(trace, path="auto", jobs=2, shard_threshold=1)
        session.add_config(DetectorConfig.coerce("hard-default"))
        results = session.run()
        assert calls, "auto did not select the sharded path"
        assert result_key(results[0]) == result_key(
            detect(trace, "hard-default", engine_path="scalar")
        )

    def test_auto_stays_single_process_below_threshold(self, trace, monkeypatch):
        import repro.engine.shard as shard_module

        def boom(*args, **kwargs):
            raise AssertionError("sharded path taken below threshold")

        monkeypatch.setattr(shard_module, "run_sharded", boom)
        session = EngineSession(
            trace, path="auto", jobs=2, shard_threshold=len(trace) + 1
        )
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.run()

    def test_sharded_rejects_active_observability(self, trace):
        obs = Observability(emitter=RecordingEmitter())
        session = EngineSession(trace, obs=obs, path="sharded")
        session.add_config(DetectorConfig.coerce("hard-default"))
        with pytest.raises(EngineError):
            session.run()

    def test_sharded_demands_config_registration(self, trace):
        session = EngineSession(trace, path="sharded")
        session.add(make_detector(DetectorConfig.coerce("hard-default")))
        with pytest.raises(EngineError, match="add_config"):
            session.run()

    def test_sharded_demands_batch_capable_cores(self, trace):
        session = EngineSession(trace, path="sharded")
        session.add_config(DetectorConfig.coerce("hybrid"))
        with pytest.raises(EngineError, match="step_batch"):
            session.run()

    def test_unknown_path_still_rejected(self, trace):
        with pytest.raises(EngineError):
            EngineSession(trace, path="shards")


@pytest.fixture
def fresh_trace(trace):
    """The module trace with no memoised columns before or after the test.

    Closing a :class:`TapeCache` invalidates tapes it loaded, so tests
    that close caches must not leak mmap-backed tapes into the memo that
    other tests share.
    """
    trace._columnar = None
    yield trace
    trace._columnar = None


class TestTapeCache:
    def test_warm_cache_skips_simulation(self, fresh_trace, tmp_path, monkeypatch):
        trace = fresh_trace
        cols = trace.columns()
        core = make_detector(DetectorConfig.coerce("hard-default")).core()
        machine_config = core.machine_config
        cache = TapeCache(tmp_path)

        cold = MachineTape.for_columns(cols, machine_config, cache=cache)
        assert cache.stores == 1 and cache.hits == 0

        def no_simulation(self, *args, **kwargs):
            raise AssertionError("machine re-simulated despite a warm cache")

        monkeypatch.setattr(MachineTape, "__init__", no_simulation)
        warm_cols = trace.columns()
        warm_cols._tapes = {}  # defeat the in-memory memo, keep the digest
        warm = MachineTape.for_columns(warm_cols, machine_config, cache=cache)
        assert cache.hits == 1
        assert warm.machine_cycles == cold.machine_cycles
        assert bytes(warm.hook_code) == bytes(
            cold.hook_code.tobytes()
            if hasattr(cold.hook_code, "tobytes")
            else cold.hook_code
        )
        cache.close()

    def test_cache_hit_results_identical(self, fresh_trace, tmp_path):
        trace = fresh_trace
        keys = ("hard-default", "hb-default")
        cache = TapeCache(tmp_path)
        configs = [DetectorConfig.coerce(key) for key in keys]

        def run_with_cache():
            session = EngineSession(trace.columns(), path="batch", tape_cache=cache)
            for config in configs:
                session.add_config(config)
            return [result_key(r) for r in session.run()]

        cold = run_with_cache()
        trace._columnar = None  # force fresh columns: only the disk cache persists
        warm = run_with_cache()
        assert cold == warm
        assert cache.hits >= 1
        cache.close()

    def test_sharded_run_uses_cache(self, fresh_trace, tmp_path):
        trace = fresh_trace
        cache = TapeCache(tmp_path)
        configs = [DetectorConfig.coerce("hard-default")]
        cols = trace.columns()
        first = run_sharded(cols, configs, jobs=1, shards=2, tape_cache=cache)
        assert cache.stores == 1
        cols._tapes = {}
        second = run_sharded(cols, configs, jobs=1, shards=2, tape_cache=cache)
        assert cache.hits >= 1
        assert [result_key(r) for r in first] == [result_key(r) for r in second]
        cache.close()

    @pytest.mark.parametrize("cut", (3, 8, "half"))
    def test_truncated_tape_is_a_miss_and_rebuilds(self, tmp_path, cut):
        # A truncated entry must never load as a hit: from_bytes rejects
        # it, the cache drops it, and the rebuilt tape gives the reference
        # verdict.
        program = build_workload("fuzz:3", seed=0)
        trace = interleave(program, RandomScheduler(seed=0, max_burst=8)).trace
        config = DetectorConfig.coerce("hard-default")
        machine_config = make_detector(config).core().machine_config
        cache = TapeCache(tmp_path)
        cols = trace.columns()
        MachineTape.for_columns(cols, machine_config, cache=cache)
        path = cache.path_for(cols, machine_config)
        raw = path.read_bytes()
        short = raw[: len(raw) // 2] if cut == "half" else raw[:-cut]
        with pytest.raises(ProgramError):
            MachineTape.from_bytes(short)
        path.write_bytes(short)
        cols._tapes = {}
        misses = cache.misses
        assert cache.load(cols, machine_config) is None
        assert cache.misses == misses + 1 and not path.exists()
        session = EngineSession(cols, path="batch", tape_cache=cache)
        session.add_config(config)
        [rebuilt] = session.run()
        assert path.read_bytes() == raw
        reference = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(rebuilt) == result_key(reference)
        cache.close()

    def test_disabled_cache_is_inert(self, fresh_trace):
        cache = TapeCache(None)
        cols = fresh_trace.columns()
        machine_config = make_detector(
            DetectorConfig.coerce("hard-default")
        ).core().machine_config
        assert not cache.enabled
        assert cache.load(cols, machine_config) is None
        tape = MachineTape.for_columns(cols, machine_config, cache=cache)
        assert cache.store(cols, tape) is None
        assert cache.clear() == 0


class TestCloseLifecycle:
    def test_session_close_releases_tapes(self, fresh_trace):
        cols = fresh_trace.columns()
        session = EngineSession(cols, path="batch")
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.run()
        assert cols._tapes
        session.close()
        assert not cols._tapes

    def test_tape_cache_close_releases_mmaps(self, fresh_trace, tmp_path):
        cache = TapeCache(tmp_path)
        cols = fresh_trace.columns()
        machine_config = make_detector(
            DetectorConfig.coerce("hard-default")
        ).core().machine_config
        MachineTape.for_columns(cols, machine_config, cache=cache)
        cols._tapes = {}
        loaded = cache.load(cols, machine_config)
        assert loaded is not None and loaded._buffer is not None
        cache.close()  # must not raise BufferError over exported views
        assert loaded._buffer is None
        loaded.close()  # idempotent
