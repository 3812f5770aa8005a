#!/usr/bin/env python3
"""Convergence of the truncated symmetric average to the exact mean.

Sweeps the averaging length N for a sample polynomial and prints the
measured gap next to the analytic envelope sum_j 2|c_j|/(|a_j| N); the gap
must stay inside the envelope at every N, and the script exits 1 if it
does not.
"""

import sys
from fractions import Fraction

from weylreps import (
    TrigPolynomial,
    invariant_mean,
    mean_quadrature,
    truncation_bound,
)

SAMPLE = TrigPolynomial(
    {
        Fraction(0): 2.0,
        Fraction(1, 2): 5.0,
        Fraction(-3): -1j,
        Fraction(7, 4): 0.25 + 0.25j,
    }
)


def main() -> int:
    exact = invariant_mean(SAMPLE)
    print(f"exact mean: {exact}")
    print(f"{'N':>8}  {'|gap|':>12}  {'envelope':>12}")
    violations = 0
    for n in (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0):
        gap = abs(mean_quadrature(SAMPLE, n) - exact)
        envelope = truncation_bound(SAMPLE, n)
        violations += gap > envelope
        marker = "ok" if gap <= envelope else "VIOLATION"
        print(f"{n:>8.0f}  {gap:>12.3e}  {envelope:>12.3e}  {marker}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
