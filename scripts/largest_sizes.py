#!/usr/bin/env python3
"""Run `peplift lift` at the largest claimed sizes, one child process per
cell, and print each cell's PSD route, wall time and peak resident memory.

gsw k=11 and ogm/ogmg n=2048 must exit 0 with a peak RSS of at most
PEAK_RSS_MB each (the bound README's "Largest sizes" states). Silver k=11 is
a known float64 FAIL and must exit exactly 1: neither pass nor crash. A cell
whose report passes must have passed on the O(n^2) Gershgorin route, not on
eigvalsh's fallback; the route is read from the `--json` report each child
writes to a temporary directory. The peak RSS of a cell is the child's own
ru_maxrss, read with os.wait4. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set, as in
bench/run.py, since every BLAS thread adds its own buffers to the peak.

Usage: python scripts/largest_sizes.py   (with peplift importable)
Exits 0 when every cell meets its exit code, bound and route, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

PEAK_RSS_MB = 500.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (lift arguments, required exit code); the bound applies to passing cells
CELLS = [
    (["--algo", "gsw", "--metric", "grad", "--k", "11"], 0),
    (["--algo", "ogm", "--metric", "func", "--n", "2048"], 0),
    (["--algo", "ogmg", "--metric", "grad", "--n", "2048"], 0),
    (["--algo", "silver", "--metric", "func", "--k", "11"], 1),
]


def run_cell(args: list[str], report: str) -> tuple[int, float, float, dict]:
    """(exit code, wall seconds, peak RSS in MB, JSON report or {}) of one
    `peplift lift` child."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "peplift", "lift", *args, "--json", report], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    doc = {}
    if os.path.exists(report):
        with open(report) as fh:
            doc = json.load(fh)
    return code, wall, usage.ru_maxrss / 1024.0, doc  # ru_maxrss is in KiB on Linux


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (args, expected) in enumerate(CELLS):
            code, wall, rss, doc = run_cell(args, os.path.join(tmp, f"cell{i}.json"))
            cell = " ".join(args)
            route = doc.get("psd_route", "(no report)")
            print(f"{cell}: exit {code} (want {expected}), route {route}, {wall:.2f} s, peak RSS {rss:.0f} MB",
                  flush=True)
            if code != expected:
                failures.append(f"{cell} exited {code}, not {expected}")
            if expected == 0 and rss > PEAK_RSS_MB:
                failures.append(f"{cell} peaked at {rss:.0f} MB, above {PEAK_RSS_MB:.0f} MB")
            if doc.get("pass") and route != "gershgorin":
                failures.append(f"{cell} passed on the {route} route, not gershgorin")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
