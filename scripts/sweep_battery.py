#!/usr/bin/env python3
"""Sweep every admissible small action datum (gamma <= 5, r <= 4,
2n <= 12, lexicographically first epimorphism per quotient shape), run
the full realization on each, and print one line per case.  ``realize``
raises on any failed check, so every printed case reads REALIZED.

Usage: python3 scripts/sweep_battery.py [--max-order 12]
"""

import argparse
import time

from necsurf import admissible_shapes, first_smooth_epimorphism, realize

MAX_GAMMA = 5
MAX_R = 4


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-order", type=int, default=12)
    args = parser.parse_args()

    started = time.time()
    total = 0
    print(f"{'gamma':>5} {'periods':<14} {'2n':>3} {'g':>3} {'|D|':>4} verdict")
    for gamma, periods, order in admissible_shapes(MAX_GAMMA, MAX_R, args.max_order):
        datum = first_smooth_epimorphism(gamma, periods, order)
        if datum is None:
            continue
        cert = realize(datum)
        total += 1
        print(
            f"{gamma:>5} {str(list(periods)):<14} {order:>3}"
            f" {cert.genus:>3}"
            f" {cert.extension.image_order:>4} REALIZED"
        )
    print(f"\n{total} actions realized in {time.time() - started:.1f}s")


if __name__ == "__main__":
    main()
