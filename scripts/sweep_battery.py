#!/usr/bin/env python3
"""Sweep every admissible small action datum (gamma <= 5, r <= 4,
2n <= 12, lexicographically first epimorphism per quotient shape), run
the full realization on each, and print one line per case.  ``realize``
raises on any failed check, so every printed case reads REALIZED.

Usage: python3 scripts/sweep_battery.py [--max-order 12]
"""

import argparse
import time
from itertools import combinations_with_replacement

from necsurf import (
    NECSignature,
    first_smooth_epimorphism,
    realize,
    reduced_area,
)

MAX_GAMMA = 5
MAX_R = 4


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-order", type=int, default=12)
    args = parser.parse_args()

    started = time.time()
    total = 0
    print(f"{'gamma':>5} {'periods':<14} {'2n':>3} {'g':>3} {'|D|':>4} verdict")
    for n in range(2, args.max_order // 2 + 1, 2):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for gamma in range(1, MAX_GAMMA + 1):
            for r in range(MAX_R + 1):
                for periods in combinations_with_replacement(divisors, r):
                    if reduced_area(NECSignature(False, gamma, periods)) <= 0:
                        continue
                    datum = first_smooth_epimorphism(gamma, periods, 2 * n)
                    if datum is None:
                        continue
                    cert = realize(datum)
                    total += 1
                    print(
                        f"{gamma:>5} {str(list(periods)):<14} {2 * n:>3}"
                        f" {cert.genus:>3}"
                        f" {cert.extension.image_order:>4} REALIZED"
                    )
    print(f"\n{total} actions realized in {time.time() - started:.1f}s")


if __name__ == "__main__":
    main()
