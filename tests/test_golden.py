"""Byte-for-byte regression of the CLI's JSON and CSV reports.

The files under tests/golden/ pin the 17-significant-digit output of
`certify`, `lift` and `sweep`.  Only `runtime_ms` is masked, since it is a
wall-clock reading.  To rewrite them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

from peplift.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FAMILY_SIZES = [(algo, metric, flag, size) for algo, metric, flag, sizes in (
    ("silver", "func", "--k", (2, 4)), ("gsw", "grad", "--k", (2, 4)),
    ("ogm", "func", "--n", (1, 5)), ("ogmg", "grad", "--n", (1, 5)),
) for size in sizes]

# golden file name -> CLI arguments (the report path is appended)
REPORTS = {
    **{f"{cmd}_{algo}_{size}.json": [cmd, "--algo", algo, "--metric", metric, flag, str(size)]
       for cmd in ("certify", "lift") for algo, metric, flag, size in FAMILY_SIZES},
    "lift_ogm_6_pseudo.json": ["lift", "--algo", "ogm", "--metric", "func", "--n", "6", "--xi", "pseudo"],
}

SWEEP_CELLS = [
    {"algo": "silver", "metric": "func", "k": 3, "instances": 2},
    {"algo": "gsw", "k": 2, "instances": 2},
    {"algo": "ogm", "metric": "func", "n": 4, "xi": "pseudo", "instances": 2},
    {"algo": "ogmg", "metric": "grad", "n": 3, "xi": 0.25},
]
SWEEP_FILES = ("silver_func_3.json", "gsw_grad_2.json", "ogm_func_4.json", "ogmg_grad_3.json", "rollup.csv")


def mask_runtime(name: str, text: str) -> str:
    if name.endswith(".json"):
        return re.sub(r'("runtime_ms": )[^,\n]+', r"\1*", text)
    lines = text.split("\r\n")
    column = lines[0].split(",").index("runtime_ms")
    for i in range(1, len(lines)):
        if lines[i]:
            fields = lines[i].split(",")
            fields[column] = "*"
            lines[i] = ",".join(fields)
    return "\r\n".join(lines)


def _read(path: Path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def produce_report(name: str, out_dir: Path) -> str:
    path = out_dir / name
    assert main([*REPORTS[name], "--json", str(path)]) == 0
    return _read(path)


def produce_sweep(out_dir: Path) -> dict[str, str]:
    config = out_dir / "sweep.json"
    config.write_text(json.dumps({"cells": SWEEP_CELLS}))
    assert main(["sweep", "--config", str(config), "--out", str(out_dir / "sweep")]) == 0
    assert sorted(p.name for p in (out_dir / "sweep").iterdir()) == sorted(SWEEP_FILES)
    return {name: mask_runtime(name, _read(out_dir / "sweep" / name)) for name in SWEEP_FILES}


@pytest.fixture(autouse=True)
def default_tolerance(monkeypatch):
    monkeypatch.delenv("PEPLIFT_TOL", raising=False)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name, tmp_path):
    assert produce_report(name, tmp_path) == _read(GOLDEN / name)


def test_sweep_bytes(tmp_path):
    for name, text in produce_sweep(tmp_path).items():
        assert text == _read(GOLDEN / "sweep" / name), name


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("PEPLIFT_TOL", None)
    (GOLDEN / "sweep").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in REPORTS:
            (GOLDEN / name).write_text(produce_report(name, Path(tmp)), newline="")
        for name, text in produce_sweep(Path(tmp)).items():
            (GOLDEN / "sweep" / name).write_text(text, newline="")
    sys.exit(0)
