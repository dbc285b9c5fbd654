"""Smoke test of the benchmark itself, on miniature sizes.

Run from the repository root:  python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from peplift import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    line, details = run.run(workload, seed=1, seconds=0.2, trace=False, scale="mini", setup_repeats=1)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert details["fail_frac"] == 0.0
    assert set(details["environment"]) >= {"python", "numpy", "nproc", "blas_env"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(workload):
    line, details = run.run(workload, seed=1, seconds=0.2, trace=True, scale="mini", setup_repeats=1)
    assert line["correct"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _units("per_layer")
    self_s = details["self_s"]
    assert self_s and all(value >= 0.0 for value in self_s.values())
    assert sum(self_s.values()) <= details["traced_wall_s"]
    assert details["unwrapped"] == []
    assert not hasattr(cli.main, "__wrapped__")  # tracer restored the originals


def test_layer_counts_on_lift():
    line, _ = run.run("lift-large", seed=0, seconds=0.2, trace=True, scale="mini", setup_repeats=1)
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert metrics["lift.nonsmooth_inequalities"] > 0
    assert metrics["methods.runner_ms"] == 0.0  # lift cells never run a method
    n_values = (8, 8, 7, 7)  # ogm/ogmg n=8, silver/gsw k=3
    assert metrics["ledger.quad_bytes"] == sum(4 * 8 * (2 * n + 3) ** 2 for n in n_values)
    assert metrics["lift.tol_ratio"] < 1.0 and metrics["certificates.tol_ratio"] < 1.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
