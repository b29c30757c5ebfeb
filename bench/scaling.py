"""Solve time and pivots of ``solve_wasserstein`` as the support grows.

    python3 bench/scaling.py

Regenerates the scaling table of ROADMAP.md: Product(1/2, 2, E^2), p = 2,
m = n. The pair at size n is ``random_measure(rng, space, n)`` twice from
``otlab.sampling.make_rng((1, n))``, the program's own sampler, because that
is how the table was first made; exact mode draws with ``exact=True`` on
Product(Fraction(1, 2), 2, E^2), with masses on a 1/128 grid above n = 64
(a 1/64 grid cannot hold more than 64 positive parts). Float pivot counts
are 470, 1,944 and 10,064 at n = 20, 40 and 80.
Run it from the root of the checkout.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from otlab import Euclidean, Product, solve_wasserstein  # noqa: E402
from otlab.sampling import make_rng, random_measure  # noqa: E402

SIZES = (5, 10, 20, 40, 80)


def solve_once(n, exact):
    space = Product(Fraction(1, 2) if exact else 0.5, 2, Euclidean(2))
    rng = make_rng((1, n))
    grid = 64 if n <= 64 else 128
    mu = random_measure(rng, space, n, exact=exact, mass_denominator=grid)
    nu = random_measure(rng, space, n, exact=exact, mass_denominator=grid)
    start = time.perf_counter()
    res = solve_wasserstein(mu, nu, p=2)
    return time.perf_counter() - start, res


def main():
    print("| m = n | mode | time | pivots | certified |")
    print("|------:|------|-----:|-------:|-----------|")
    for n in SIZES:
        for mode in ("float", "exact"):
            took, res = solve_once(n, mode == "exact")
            print(f"| {n} | {mode} | {took:.3f} s | {res.pivots:,} | {res.certified} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
