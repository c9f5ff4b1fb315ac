"""Smoke and correctness tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute; the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import cells  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOAD_NAMES = list(cells.WORKLOADS)


def _invoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke():
    """One short run of every workload in both modes, shared by the tests."""
    out = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _invoke(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOAD_NAMES
    for entry in SPEC["workloads"]:
        assert entry["why"] == cells.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    declared = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert declared == list(bench.END_TO_END)
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == list(bench.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(smoke, workload, trace):
    result = smoke[workload, trace]
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(smoke):
    for workload in WORKLOAD_NAMES:
        for name, metric in smoke[workload, 0]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_layers_each_workload_exercises(smoke):
    cold = smoke["table2-cold", 1]["metrics"]
    warm = smoke["sweep-warm", 1]["metrics"]
    many = smoke["manycore-sharded", 1]["metrics"]
    assert cold["tapecache.hit_ratio"]["value"] == 0
    assert warm["tapecache.hit_ratio"]["value"] == 1
    assert warm["tape.record_s"]["value"] == 0
    assert cold["tape.record_s"]["value"] > 0 and many["tape.record_s"]["value"] > 0
    assert many["shard.run_s"]["value"] > 0 and cold["shard.run_s"]["value"] == 0
    assert many["sim.dir_messages"]["value"] > 0
    assert cold["sim.dir_messages"]["value"] == 0


def test_simulated_metrics_repeat_exactly(smoke):
    again = json.loads(_invoke("table2-cold", 0).stdout.strip().splitlines()[-1])
    for name in ("detect_frac", "hard_overhead_pct"):
        assert again["metrics"][name] == smoke["table2-cold", 0]["metrics"][name]
    # The cold and warm workloads score the same inputs on the same machine.
    for name in ("sim.accesses", "sim.l1_hit_ratio", "sim.bus_transactions", "sim.cycles"):
        assert (
            smoke["table2-cold", 1]["metrics"][name]
            == smoke["sweep-warm", 1]["metrics"][name]
        )


def test_corrupted_reference_fingerprint_is_caught(monkeypatch, capsys):
    real = bench.reference_fingerprints

    def corrupted(wl, inputs):
        return [("0" * 64, sim) for _, sim in real(wl, inputs)]

    monkeypatch.setattr(bench, "reference_fingerprints", corrupted)
    code = run.main(
        ["--workload", "table2-cold", "--seed", "3", "--seconds", "0", "--trace", "0", "--short"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_cold_cell_refuses_filled_caches(tmp_path):
    wl = cells.WORKLOADS["table2-cold"]
    [inp] = cells.inputs_for(wl, 3)[:1]
    first = cells.run_cell(wl, inp, tmp_path)
    first.check_cache_state(wl)
    first.close()
    second = cells.run_cell(wl, inp, tmp_path)
    try:
        with pytest.raises(cells.CellError):
            second.check_cache_state(wl)
    finally:
        second.close()


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("table2-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
