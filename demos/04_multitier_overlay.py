"""Why overlaying small cells can only help.

Start from a macro network and pour in extra tiers of low-power stations.
Each overlay multiplies the effective density, which drives the normalized
noise N' down - and a smaller N' always means a better C/(I+N).  Shadow
fading and sector antennas fold into the same reduction, so the conclusion
survives both.

Run:  python demos/04_multitier_overlay.py
"""

import math

from scsnet import (
    Dimension,
    LogNormalFading,
    NetworkSpec,
    Sector,
    Tier,
    canonicalize,
    empirical_tail_cin,
    tail_cin,
)
from scsnet.network import sigma_db_to_natural

D2 = Dimension(2)
macro = Tier(density=1.0, power=1.0)
noise = 2.0

print("macro network plus overlays (l=2, eps=4, N=2):")
overlays = [
    ("macro only", []),
    ("+ micro (lam 3, K 0.1)", [Tier(3.0, 0.1)]),
    ("+ micro + pico (lam 10, K 0.01)", [Tier(3.0, 0.1), Tier(10.0, 0.01)]),
    ("+ sectored micro (G 0.3, 120 deg)",
     [Tier(3.0, 0.1, Sector(gain=0.3, beamwidth=2 * math.pi / 3))]),
]
macro_only = canonicalize(NetworkSpec(dim=D2, epsilon=4.0, tiers=(macro,), noise=noise))
for name, added in overlays:
    spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(macro, *added), noise=noise)
    canon = canonicalize(spec)
    assert not added or canon.nprime < macro_only.nprime  # every overlay lowers N'
    tail = tail_cin(canon, 1.0)
    print(f"  {name:<34} N' = {canon.nprime:8.4f}   P(C/(I+N) > 1) = {tail:.4f}")

print("\nthe same, measured by simulation (n = 2e5):")
for name, added in overlays:
    spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(macro, *added), noise=noise)
    emp = empirical_tail_cin(spec, [1.0], 200_000, seed=4)
    print(f"  {name:<34} {emp.tails[0]:.4f} +- {emp.halfwidths[0]:.4f}")

print("\nfading and sectoring fold into the same scalar:")
faded = NetworkSpec(dim=D2, epsilon=4.0, tiers=(macro,), noise=noise,
                    fading=LogNormalFading(sigma_db_to_natural(8.0)))
sectored = NetworkSpec(
    dim=D2, epsilon=4.0,
    tiers=(Tier(1.0, 1.0, Sector(gain=3.0, beamwidth=2 * math.pi / 3)),),
    noise=noise,
)
for name, spec in (("8 dB shadow fading", faded), ("120-degree sectors", sectored)):
    canon = canonicalize(spec)
    print(f"  {name:<22} N' = {canon.nprime:8.4f}   "
          f"P(C/(I+N) > 1) = {tail_cin(canon, 1.0):.4f}")
print("\n(fading raises the effective density, so it actually improves C/(I+N);")
print(" sectoring trades gain against coverage probability inside one scalar)")
