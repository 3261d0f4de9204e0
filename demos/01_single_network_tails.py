"""Tour of the single-network signal-quality machinery.

A planar network with unit station density, unit transmission power and
path-loss exponent 4 is the canonical reference system.  This script walks
through the three routes to its C/I tail probability and shows they agree:

1. exact characteristic-function inversion (below threshold 1),
2. the exact power-law closed form sinc(pi l/eps) eta^(-l/eps) above it,
3. the strongest-two-interferer closed form on the whole range,
4. a Monte Carlo run bracketing all of them.

Run:  python demos/01_single_network_tails.py
"""

import numpy as np

from scsnet import (
    Dimension,
    NetworkSpec,
    Tier,
    empirical_tail_ci,
    tail_ci,
    tail_ci2,
    tail_ci_closed,
)

spec = NetworkSpec(dim=Dimension(2), epsilon=4.0, tiers=(Tier(1.0, 1.0),))
ratio = spec.epsilon / spec.dim.l

print("reference system: planar, unit density, unit power, epsilon = 4")
print(f"tail anchor P(C/I > 1) = sinc(pi/2) = {tail_ci_closed(ratio, 1.0):.6f}\n")

etas = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0]
mc = empirical_tail_ci(spec, etas, 200_000, seed=1)

print(f"{'eta':>6} {'exact':>10} {'closed':>10} {'two-bs':>10} "
      f"{'mc':>10} {'mc 99% hw':>10}")
for i, eta in enumerate(etas):
    exact = tail_ci(ratio, eta)
    closed = tail_ci_closed(ratio, eta) if eta >= 1.0 else float("nan")
    few = tail_ci2(ratio, eta)
    print(f"{eta:6.2f} {exact:10.5f} {closed:10.5f} {few:10.5f} "
          f"{mc.tails[i]:10.5f} {mc.halfwidths[i]:10.5f}")

print("\nAbove eta = 1 the exact tail is a pure power law eta^(-l/eps), so the")
print("exact column there is the closed form; the strongest-two curve runs")
print("parallel to it at a constant ratio:")
for eta in (1.0, 4.0, 16.0, 64.0):
    print(f"  eta={eta:5.1f}  exact/two-bs = "
          f"{tail_ci(ratio, eta) / tail_ci2(ratio, eta):.5f}")
