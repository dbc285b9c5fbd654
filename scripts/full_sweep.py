#!/usr/bin/env python3
"""Run the full verification grid (doubling orders <= 5, step counts <= 32)
through the CLI sweep and print the roll-up.

Usage: python scripts/full_sweep.py [outdir]
"""

import json
import sys
import tempfile
import time

from peplift.cli import main as cli_main


def build_config() -> dict:
    cells = []
    for k in range(1, 6):
        cells.append({"algo": "silver", "metric": "func", "k": k, "instances": 3})
        cells.append({"algo": "gsw", "metric": "grad", "k": k, "instances": 3})
    for n in range(1, 33):
        cells.append({"algo": "ogm", "metric": "func", "n": n})
        cells.append({"algo": "ogmg", "metric": "grad", "n": n})
    return {"cells": cells}


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="peplift_sweep_")
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(build_config(), fh)
        config_path = fh.name
    start = time.perf_counter()
    code = cli_main(["sweep", "--config", config_path, "--out", outdir])
    elapsed = time.perf_counter() - start
    print(f"\nsweep of {len(build_config()['cells'])} cells finished in {elapsed:.1f}s -> {outdir}/rollup.csv")
    return code


if __name__ == "__main__":
    sys.exit(main())
