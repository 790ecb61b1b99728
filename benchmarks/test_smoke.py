"""Smoke tests of the benchmark itself, at tiny sizes (``--smoke``).

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *argv, "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The run record and the result line of one smoke run."""
    proc = _run(workload, seed, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    _, result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_not_the_metric_set(workload):
    record1, result1 = run(workload, 1, 0)
    traced1, _ = run(workload, 1, 1)
    record2, result2 = run(workload, 2, 0)
    assert record1["inputs_sha256"] == traced1["inputs_sha256"]
    assert record1["inputs_sha256"] != record2["inputs_sha256"]
    assert result1["metrics"].keys() == result2["metrics"].keys()


def test_run_record_names_the_host_and_versions():
    record, _ = run("test-file", 1, 0)
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "src_sha256"):
        assert record[key]
    assert record["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert set(record["calibration_ms"]) == {"before", "during", "after"}
    assert set(record["raw"]) == {"setup_s", "replicates_per_s", "call_ms_p50", "call_ms_p90"}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("test-file", 1, 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
