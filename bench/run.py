#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of peplift.

Usage (from the root of a checkout):

    python3 bench/run.py --workload lift-large --seed 0 --seconds 28 --trace 0

Workloads (see workloads.py and README.md):
  lift-large     four `peplift lift` cells at the largest sizes that finish
                 in seconds (ogm/ogmg n=512, silver/gsw k=9)
  certify-large  four `peplift certify` cells (ogm/ogmg n=1024, silver/gsw k=10)
  sweep-grid     the 74-cell grid of scripts/full_sweep.py through `peplift sweep`
  envelopes      acceptance criterion 5: 7400 empirical bound checks

A run sets up seven times (a fresh interpreter importing peplift, plus the
workload's input generation) and reports the median as `setup_s`.  It then
repeats the workload's units round-robin for `--seconds`, finishing at least
one full pass.  `--trace 0` reports the end-to-end metrics: `wall_s` is the sum
over units of each unit's median time, `cell_max_s` the largest per-cell
median, `peak_rss_mb` the process's peak resident set.  `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics (medians over
traced passes) plus `bench.trace_overhead_s`; the spans of the last traced
pass go to .bench_run/trace-<workload>-seed<seed>.json.

Set-up and unit times in `setup_s`, `wall_s`, `cell_max_s` and the trace
overhead are scaled to the machine's reference speed (see Meter): on a
shared 2-core sandbox the speed of one core drifts by +-30% over tens of
seconds, which spread the raw medians of 28-second runs by 15-25% between
runs; scaling by calibration loops timed between units cuts that about
threefold.  The details line keeps the unscaled `raw_wall_s` and the median
slowdown the scaling divided by.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Any failed correctness check makes the exit code 1; a checkout
without peplift's sources gives exit code 2 and no result.

BLAS thread counts default to 1 (set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS to override); Python runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.25
# medians of Meter's two calibration loops on the 2-core sandbox (Python 3.11,
# numpy 2.4, one BLAS thread) where these workloads were first measured
REFERENCE_LOOPS_S = (0.009, 0.005)
NAMES = ("lift-large", "certify-large", "sweep-grid", "envelopes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0, help="envelopes draws its instances from it")
    parser.add_argument("--seconds", type=float, default=28.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def setup_once(workload) -> float:
    """One set-up: a fresh interpreter importing peplift, then input generation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import peplift.cli"], env=env, cwd=ROOT, check=True)
    workload.prepare()
    return time.perf_counter() - start


def run_unit(workload, unit):
    """(elapsed, outcome) of one unit; a unit that raises counts as failed."""
    start = time.perf_counter()
    try:
        return workload.run(unit)
    except Exception:
        traceback.print_exc()
        from workloads import Outcome

        return time.perf_counter() - start, Outcome(attempted=1, failed=1)


class Meter:
    """Runs units and scales their times to the machine's reference speed.

    Between units, at least every CALIBRATE_EVERY_S of unit time, it times two
    fixed loops: strided row and column updates of a large matrix, as in
    ledger assembly, and small matrix-vector calls, as in the runners.  Their
    times over REFERENCE_LOOPS_S, averaged, give the machine's slowdown; a
    unit's scaled time is its measured time over the mean slowdown of the
    calibrations just before and after it.
    """

    def __init__(self):
        import numpy

        self._matrix = numpy.zeros((512, 512))
        self._row = numpy.arange(512.0)
        self._small = numpy.random.default_rng(0).standard_normal((10, 10))
        self._clip = numpy.clip
        self.slowdowns = [self._calibrate()]
        self._pending = []

    def _calibrate(self) -> float:
        matrix, row, small, clip = self._matrix, self._row, self._small, self._clip
        start = time.perf_counter()
        for p in range(512):
            matrix[p, :] += row
            matrix[:, p] += row
        total = 0.0
        for i in range(60000):
            total += i * i
        middle = time.perf_counter()
        x = row[:10]
        for _ in range(1000):
            x = clip(small @ x, -1.0, 1.0)
            total += float(x @ x)
        end = time.perf_counter()
        big_s, small_s = REFERENCE_LOOPS_S
        return 0.5 * ((middle - start) / big_s + (end - middle) / small_s)

    def run(self, workload, unit) -> tuple[float, list]:
        """Run one unit: its raw seconds, and the units whose scale is now
        known, as (unit, raw seconds, scale, outcome)."""
        elapsed, outcome = run_unit(workload, unit)
        self._pending.append((unit, elapsed, outcome))
        if sum(e for _, e, _ in self._pending) >= CALIBRATE_EVERY_S:
            return elapsed, self.flush()
        return elapsed, []

    def recalibrate(self) -> float:
        """Calibrate now; returns the scale for work done since the last calibration."""
        self.slowdowns.append(self._calibrate())
        return 2.0 / (self.slowdowns[-2] + self.slowdowns[-1])

    def flush(self) -> list:
        if not self._pending:
            return []
        scale = self.recalibrate()
        done = [(unit, elapsed, scale, outcome) for unit, elapsed, outcome in self._pending]
        self._pending = []
        return done


def measure_plain(workload, seconds: float, meter: Meter) -> dict:
    """Round-robin over units until the window is spent (at least one pass)."""
    units = workload.units()
    last_raw: dict = {}
    unit_times: dict = defaultdict(list)
    raw_times: dict = defaultdict(list)
    cell_times: dict = defaultdict(list)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    finished = []
    while True:
        unit = units[i % len(units)]
        if i >= len(units) and time.perf_counter() + last_raw[unit] > deadline:
            break
        last_raw[unit], done = meter.run(workload, unit)
        finished += done
        i += 1
    for unit, elapsed, scale, outcome in finished + meter.flush():
        unit_times[unit].append(elapsed * scale)
        raw_times[unit].append(elapsed)
        for cell, cell_s in (outcome.cell_seconds or {unit: elapsed}).items():
            cell_times[cell].append(cell_s * scale)
        attempted += outcome.attempted
        failed += outcome.failed
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": min(len(v) for v in unit_times.values()),
        "wall_s": sum(statistics.median(v) for v in unit_times.values()),
        "raw_wall_s": sum(statistics.median(v) for v in raw_times.values()),
        "cell_max_s": max(statistics.median(v) for v in cell_times.values()),
        "slowdown": statistics.median(meter.slowdowns),
    }


def run_pass(workload, meter) -> dict:
    """One full pass: raw and scaled unit time, checks, bytes written."""
    finished = []
    for unit in workload.units():
        finished += meter.run(workload, unit)[1]
    finished += meter.flush()
    return {
        "raw_s": sum(elapsed for _, elapsed, _, _ in finished),
        "scaled_s": sum(elapsed * scale for _, elapsed, scale, _ in finished),
        "attempted": sum(o.attempted for *_, o in finished),
        "failed": sum(o.failed for *_, o in finished),
        "written": sum(o.bytes_written for *_, o in finished),
    }


def measure_traced(workload, seconds: float, meter: Meter, tracer) -> dict:
    """Alternate untraced and traced passes; at least one of each."""
    from tracing import median_metrics

    passes = {False: [], True: []}
    samples = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = k % 2 == 1
        if k >= 2 and time.perf_counter() + passes[traced][-1]["raw_s"] > deadline:
            break
        if traced:
            tracer.reset()
            tracer.install()
        try:
            done = run_pass(workload, meter)
        finally:
            tracer.uninstall()
        if traced:
            samples.append(tracer.layer_metrics(workload.cells_per_pass, done["written"]))
        passes[traced].append(done)
        k += 1
    metrics = median_metrics(samples)
    metrics["bench.trace_overhead_s"] = (statistics.median(p["scaled_s"] for p in passes[True])
                                         - statistics.median(p["scaled_s"] for p in passes[False]))
    everything = passes[False] + passes[True]
    return {
        "attempted": sum(p["attempted"] for p in everything),
        "failed": sum(p["failed"] for p in everything),
        "samples": len(samples),
        "traced_wall_s": passes[True][-1]["raw_s"],
        "layers": metrics,
    }


def write_trace(path: Path, env: dict, result: dict, tracer) -> None:
    doc = {
        "environment": env,
        "per_layer": result["layers"],
        "last_pass": {
            "wall_s": result["traced_wall_s"],
            "self_s": tracer.self_seconds(),
            "oracle_calls": tracer.oracle_calls,
            "unwrapped": tracer.missing,
            "spans": [span.to_dict() for span in tracer.spans],
        },
    }
    path.write_text(json.dumps(doc))


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details)."""
    from tracing import LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_run"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[name](scale, seed, workdir)
    meter = Meter()
    setup_s = statistics.median(setup_once(workload) * meter.recalibrate() for _ in range(setup_repeats))

    details = {"workload": name, "seed": seed, "environment": environment()}
    if trace:
        tracer = Tracer()
        result = measure_traced(workload, seconds, meter, tracer)
        trace_path = workdir / f"trace-{name}-seed{seed}.json"
        write_trace(trace_path, details["environment"], result, tracer)
        details.update(trace_file=str(trace_path), self_s=tracer.self_seconds(), unwrapped=tracer.missing,
                       traced_wall_s=result["traced_wall_s"])
        metrics = {key: {"value": value, "unit": LAYER_UNITS[key]} for key, value in result["layers"].items()}
    else:
        result = measure_plain(workload, seconds, meter)
        details.update(raw_wall_s=result["raw_wall_s"], slowdown=result["slowdown"])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "cell_max_s": {"value": result["cell_max_s"], "unit": "s"},
        }
    attempted, failed = result["attempted"], result["failed"]
    details.update(samples=result["samples"], summary=workload.summary(),
                   fail_frac=failed / attempted if attempted else 1.0)
    line = {"correct": attempted > 0 and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "peplift" / "__init__.py").is_file():
        print(f"error: no peplift sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))

    line, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
