"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(NAMES) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        for name, value in result["metrics"].items():
            assert value["value"] > 0.0, name
    assert any(line.split()[:1] == ["error_rate"] for line in lines)


def test_corrupted_reference_shows_in_error_rate(monkeypatch):
    true_y = reference.rental_y
    monkeypatch.setattr(reference, "rental_y", lambda p, k: true_y(p, k) * (1.0 + 1e-6))
    result = run.measure("analyze", seed=3, seconds=0.5, trace=False)
    assert result["failed"] > 0
    assert result["error_rate"] == result["failed"] / result["attempted"] > 0.0
    assert "Mismatch" in result["failures"]
    assert "y(" in result["failures"]["Mismatch"]["example"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_input_hash_follows_the_seed(workload, tmp_path):
    def digest(seed: int) -> str:
        wl = workloads.make(workload, ROOT, seed, tmp_path / f"s{seed}")
        return wl.digest(wl.generate())

    first = digest(1)
    assert digest(1) == first
    assert digest(2) != first


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
