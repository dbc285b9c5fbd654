#!/usr/bin/env python3
"""Print the summary of certified composite rates for the four families,
next to their closed forms and asymptotic orders.  Exits 1 if any cell fails
verification.

Usage: python scripts/rate_table.py
"""

import sys

from peplift.catalog import FAMILIES

SIZES = {"k": range(1, 7), "n": (1, 2, 4, 8, 16, 32, 64)}


def cells():
    for family in sorted(FAMILIES.values(), key=lambda f: f.metric):  # objective-gap families first
        for size in SIZES[family.size_flag]:
            yield family, size, family.cell(size, family.xi(size))


def main() -> int:
    header = f"{'algorithm':<8} {'metric':<6} {'size':>4} {'n':>3} {'certified':>14} {'closed form':>14}  asymptotic"
    print(header)
    print("-" * len(header))
    failed = 0
    for family, size, cell in cells():
        print(f"{family.name:<8} {family.metric:<6} {size:>4} {cell.n:>3} {cell.rate:>14.8e} "
              f"{family.rate(size):>14.8e}  {family.asymptotic}")
        failed += not cell.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
