#!/usr/bin/env python3
"""Counting lattice points in a cap of the hyperboloid against the prediction.

The two invariant measures of the cap are estimated by seeded Monte Carlo
(their ratio is pinned by the lattice determinant), every lattice point of
each norm inside the cap is counted exactly, and the empirical counts are
compared with mu_infty(cap) n^(b/2) times the truncated singular series,
where mu_infty(cap) is the closed form that the Monte Carlo cross-checks.
Takes about half a minute.
"""

import math
import time
from fractions import Fraction

from hyperlat import (
    Window,
    direct_sum,
    enumerate_points,
    equidistribution_run,
    hyperbolic_plane,
    mu_a0,
    mu_infty,
    rank1,
    splitting_frame,
)

U = hyperbolic_plane()
V = direct_sum(U, U, rank1(-2))
frame = splitting_frame(V)
window = Window(frame, Fraction(1))

print("frame positive plane:", frame.positive)
ma, ea = mu_a0(window, 10 ** 6, seed=42)
mi, ei = mu_infty(window, 10 ** 6, seed=42)
print(f"mu_a0(cap)    = {ma:10.4f} +- {ea:.4f}")
print(f"mu_infty(cap) = {mi:10.4f} +- {ei:.4f}")
print(f"ratio {mi / ma:.5f} vs 2^(b/2)/sqrt|det| = "
      f"{2 ** 1.5 / math.sqrt(2):.5f}")

print()
print("exact counts in the cap (the glue-class counter, the box scan and the")
print("depth-first search agree; one counter serves every basis):")
for n in (1, 5, 50):
    pc = enumerate_points(None, n, window)
    print(f"  n = {n:3d}: {pc.count} points, {pc.grazing} exactly on the rim")

print()
print("--- empirical vs predicted over a window of norms ---")
t0 = time.time()
summary = equidistribution_run(V, None, window, 150, 250,
                               prime_bound=100, samples=10 ** 6, seed=42)
print(f"({len(summary.reports)} values of n in {time.time() - t0:.1f}s)")
print("  n   empirical   predicted     ratio")
for r in summary.reports[::20]:
    print(f"{int(r.n):4d}  {r.empirical:9d}  {r.predicted:10.1f}   {r.ratio:.4f}")
print(f"mean ratio: {summary.mean_ratio:.4f}")
print(f"first/second half means: {summary.first_half_mean:.4f} / "
      f"{summary.second_half_mean:.4f}")
