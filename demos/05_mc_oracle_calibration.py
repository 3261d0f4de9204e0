"""Is the Monte Carlo oracle calibrated?  A z-study against the exact route.

At its default truncation radius the oracle should be an unbiased estimate
of the tail whose 99% halfwidths mean what they say.  For each network and
threshold this script runs it at K seeds and forms

    z = (tail_mc - p) / sqrt(p (1 - p) / n),

with p the exact tail (`tail_ci` for C/I, `tail_cin` for C/(I+N)).  A
calibrated oracle gives a mean z within 3/sqrt(K) of 0 and an sd of z within
3/sqrt(2(K-1)) of 1, three standard errors of each over K seeds; the script
flags any (network, eta) whose mean z or sd z falls outside its band.  A
mean-sized or too-small radius shows up as a mean z drifting away from 0,
and so does a radius too small to keep rows from being empty (redrawing
them conditions the field).

Run:  python demos/05_mc_oracle_calibration.py [--seeds K] [--n N] [--first-seed S]
      (defaults K = 40, n = 50000, seeds 5000 .. 5000 + K - 1; about 1 min
      on two cores at the defaults)
"""

import argparse
import math
import time

import numpy as np

from scsnet import (
    Dimension,
    NetworkSpec,
    Sector,
    Tier,
    canonicalize,
    default_r_max,
    empirical_tail_ci,
    empirical_tail_cin,
    spec_from_json,
    tail_ci,
    tail_cin,
)

ETAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def canonical(l, eps, noise=0.0):
    return NetworkSpec(dim=Dimension(l), epsilon=eps, tiers=(Tier(1.0, 1.0),),
                       noise=noise)


# the README's two-tier network: sectored macro tier, dense overlay, 8 dB
# shadowing, noise
README_SPEC = spec_from_json({
    "dimension": 2, "epsilon": 4.0, "noise": 1e-2,
    "fading": {"type": "lognormal", "sigma_db": 8.0},
    "tiers": [
        {"density": 1.0, "power": 10.0,
         "sector": {"gain": 20.0, "beamwidth_deg": 120.0}},
        {"density": 5.0, "power": 0.1},
    ],
})

NETWORKS = [
    ("l=2 eps=2.2", canonical(2, 2.2)),
    ("l=2 eps=2.5", canonical(2, 2.5)),
    ("l=2 eps=3", canonical(2, 3.0)),
    ("l=2 eps=4", canonical(2, 4.0)),
    ("l=1 eps=1.3", canonical(1, 1.3)),
    ("l=3 eps=4", canonical(3, 4.0)),
    ("README 2-tier", README_SPEC),
    ("table eps=2.5 N'=1", canonical(2, 2.5, noise=1.0)),
    # eps near l: the radius is the floor of 20 heard stations a row
    ("l=3 eps=3.02", canonical(3, 3.02)),
    ("60deg sector eps=2.01", NetworkSpec(
        dim=Dimension(2), epsilon=2.01,
        tiers=(Tier(1.0, 1.0, Sector(gain=1.0, beamwidth=math.pi / 3)),))),
]


def exact_tails(spec):
    if spec.noise == 0.0:
        return np.array([tail_ci(spec.epsilon / spec.dim.l, eta) for eta in ETAS])
    canon = canonicalize(spec)
    return np.array([tail_cin(canon, eta) for eta in ETAS])


def z_scores(spec, exact, n, seeds):
    """One row of z per seed, one column per eta."""
    run = empirical_tail_ci if spec.noise == 0.0 else empirical_tail_cin
    se = np.sqrt(exact * (1.0 - exact) / n)
    return np.array([(np.array(run(spec, ETAS, n, seed).tails) - exact) / se
                     for seed in seeds])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40, help="K, seeds per network")
    ap.add_argument("--n", type=int, default=50_000, help="realizations per run")
    ap.add_argument("--first-seed", type=int, default=5000)
    args = ap.parse_args()
    k = args.seeds
    seeds = range(args.first_seed, args.first_seed + k)
    mean_bound, sd_bound = 3.0 / math.sqrt(k), 3.0 / math.sqrt(2.0 * (k - 1))
    print(f"K = {k} seeds ({seeds[0]}..{seeds[-1]}), n = {args.n}, etas {ETAS}; "
          f"gate |mean z| <= {mean_bound:.3f}, |sd z - 1| <= {sd_bound:.3f}")
    print(f"{'network':<20}{'r_max':>8}{'s/run':>8}  mean z per eta / sd z per eta")
    flagged = 0
    for name, spec in NETWORKS:
        exact = exact_tails(spec)
        started = time.perf_counter()
        z = z_scores(spec, exact, args.n, seeds)
        per_run = (time.perf_counter() - started) / k
        r_max = default_r_max(spec, seed=seeds[0])
        mean, sd = z.mean(axis=0), z.std(axis=0, ddof=1)
        bad = (np.abs(mean) > mean_bound) | (np.abs(sd - 1.0) > sd_bound)
        flagged += int(bad.sum())
        outside = ", ".join(f"{e:g}" for e, b in zip(ETAS, bad) if b)
        print(f"{name:<20}{r_max:>8.3g}{per_run:>8.3f}  "
              + " ".join(f"{m:+.3f}" for m in mean) + "  /  "
              + " ".join(f"{s:.3f}" for s in sd)
              + (f"  <- outside at eta {outside}" if outside else ""))
    pairs = len(NETWORKS) * len(ETAS)
    print(f"{flagged} of {pairs} (network, eta) pairs outside the gate")


if __name__ == "__main__":
    main()
