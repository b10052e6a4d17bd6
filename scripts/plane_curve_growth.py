#!/usr/bin/env python3
"""Print the rational plane curve counts N_d with growth statistics.

Besides the raw ratio N_d / N_{d-1}, the table shows the same ratio for the
normalized sequence f_d = N_d / (3d-1)!  (each curve passes through 3d-1
points, so dividing by the matching factorial strips the bulk of the
combinatorial growth; the normalized ratio settles down much faster).
"""

import argparse
import time
from fractions import Fraction
from math import factorial

from qschub.errors import NotComputableError
from qschub.plane_curves import nd_values, reset_cache


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--upto", type=int, default=20)
    args = parser.parse_args()
    if args.upto < 1:
        parser.error(f"--upto must be at least 1, got {args.upto}")

    reset_cache()
    start = time.perf_counter()
    try:
        values = nd_values(args.upto)
    except NotComputableError as exc:  # past the work limit: exit 4, as the qschub CLI does
        parser.exit(4, f"error: {exc}\n")
    elapsed = time.perf_counter() - start

    lines = [f"{'d':>3} {'N_d':>42} {'ratio':>14} {'normalized':>11}"]
    table = dict(values)
    for d, n in values:
        if d >= 2 and table[d - 1]:
            ratio = n / table[d - 1]
            # exact: as a float, N_d / (3d-1)! is subnormal from d = 349 and 0.0 from 367
            normalized = float(
                Fraction(n * factorial(3 * d - 4), table[d - 1] * factorial(3 * d - 1))
            )
            lines.append(f"{d:>3} {n:>42} {ratio:>14.3f} {normalized:>11.5f}")
        else:
            lines.append(f"{d:>3} {n:>42} {'-':>14} {'-':>11}")
    lines.append(f"\ncomputed {args.upto} values in {elapsed * 1000:.2f} ms (cold cache)")
    try:
        print("\n".join(lines))
    except OSError as exc:  # e.g. a closed pipe: one error line, as the qschub CLI prints
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    main()
