"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines; `pytest -v` alone reports the same verdicts through test outcomes.
Monte Carlo sizes follow the stated criteria (up to 1e6 realizations), so
this module dominates the suite's runtime (a few minutes).
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from scsnet import (
    Dimension,
    LogNormalFading,
    NetworkSpec,
    Sector,
    Tier,
    canonicalize,
    empirical_tail_ci,
    empirical_tail_cin,
    empirical_tail_fewbs,
    kummer_1f1_neg_a,
    noise_after_adding_tiers,
    tail_ci,
    tail_ci2,
    tail_cin,
)
from scsnet.montecarlo import substream

D2 = Dimension(2)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num}: {name}"


def joint(h1, h2):
    return math.hypot(h1, h2)


def single_tier(l, eps, lam=1.0, noise=0.0, fading=None, sector=None):
    tiers = (Tier(density=lam, power=1.0, sector=sector),)
    kwargs = {} if fading is None else {"fading": fading}
    return NetworkSpec(dim=Dimension(l), epsilon=eps, tiers=tiers,
                       noise=noise, **kwargs)


def test_criterion_01_density_invariance():
    etas = [0.1, 1.0, 10.0]
    runs = [
        empirical_tail_ci(single_tier(2, 4.0, lam), etas, 100_000, seed)
        for seed, lam in enumerate((0.1, 1.0, 10.0), start=100)
    ]
    ok = True
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            for k in range(len(etas)):
                d = abs(runs[i].tails[k] - runs[j].tails[k])
                ok &= d <= joint(runs[i].halfwidths[k], runs[j].halfwidths[k])
    report(1, "C/I tails invariant to density (l=2, lambdas 0.1/1/10)", ok)


def test_criterion_02_dimension_equivalence():
    etas = [0.25, 0.5, 1.0, 2.0, 4.0]
    runs = [
        empirical_tail_ci(single_tier(l, eps), etas, 100_000, seed)
        for seed, (l, eps) in enumerate(((1, 2.0), (2, 4.0), (3, 6.0)), start=200)
    ]
    ok = True
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            for k in range(len(etas)):
                d = abs(runs[i].tails[k] - runs[j].tails[k])
                ok &= d <= joint(runs[i].halfwidths[k], runs[j].halfwidths[k])
    report(2, "C/I tails equal across (l=1,e=2)/(l=2,e=4)/(l=3,e=6)", ok)


def test_criterion_03_power_law_slope(invert_ci):
    # by inversion: tail_ci itself answers eta >= 1 with the power law
    etas = np.geomspace(1.0, 100.0, 20)
    ok = True
    for ratio in (1.5, 2.0, 2.5):
        tails = np.array([invert_ci(ratio, e, tol=1e-5) for e in etas])
        slope = np.polyfit(np.log(etas), np.log(tails), 1)[0]
        ok &= abs(slope + 1.0 / ratio) <= 0.01
    report(3, "log-log slope of the C/I tail equals -l/eps within 0.01", ok)


def test_criterion_04_exact_vs_mc():
    etas = [0.25, 0.5, 1.0, 2.0, 4.0]
    emp = empirical_tail_ci(single_tier(2, 4.0), etas, 1_000_000, 400)
    ok = all(
        abs(tail_ci(2.0, eta) - emp.tails[i]) <= emp.halfwidths[i]
        for i, eta in enumerate(etas)
    )
    report(4, "exact inversion inside the 99% CI of a 1e6-run MC", ok)


def test_criterion_05_few_bs_closed_form(invert_ci):
    etas = [0.25, 0.5, 1.0, 2.0, 4.0]
    emp = empirical_tail_fewbs(single_tier(2, 4.0), etas, 1_000_000, 500)
    ok_mc = all(
        abs(tail_ci2(2.0, eta) - emp.tails[i]) <= emp.halfwidths[i]
        for i, eta in enumerate(etas)
    )
    ok_cont = all(
        abs(tail_ci2(r, 1.0 - 1e-12) - tail_ci2(r, 1.0)) <= 1e-10
        for r in (1.5, 2.0, 2.5)
    )
    ratios = [
        invert_ci(2.0, e, tol=1e-7) / tail_ci2(2.0, e)
        for e in np.geomspace(1.0, 100.0, 10)
    ]
    ref = invert_ci(2.0, 1.0, tol=1e-7) / tail_ci2(2.0, 1.0)
    ok_ratio = all(abs(r / ref - 1.0) <= 1e-3 for r in ratios)
    report(5, "strongest-two closed form: MC bracket, continuity, constant ratio",
           ok_mc and ok_cont and ok_ratio)


def test_criterion_06_conditional_mean():
    # stations beyond distance 1 of a unit planar field: mean of sum R^-4 is pi
    rng = substream(600, 0)
    rows, r_out = 100_000, 12.0
    t_lo, t_hi = math.pi, math.pi * r_out**2
    mu = t_hi - t_lo
    total = np.empty(rows)
    done = 0
    while done < rows:
        m = min(10_000, rows - done)
        t = t_lo + rng.exponential(size=(m, int(mu + 8 * mu**0.5 + 16))).cumsum(axis=1)
        while t[:, -1].min() < t_hi:
            t = np.hstack([t, t[:, -1:] + rng.exponential(size=(m, 32)).cumsum(axis=1)])
        r = np.sqrt(t / math.pi)
        total[done:done + m] = (
            np.where(t < t_hi, r**-4.0, 0.0).sum(axis=1)
            + 2 * math.pi * r_out**-2.0 / 2.0
        )
        done += m
    se = total.std() / math.sqrt(rows)
    ok = abs(total.mean() - math.pi) <= 3.0 * se
    report(6, "conditional mean interference beyond the 2nd station equals pi", ok)


SIGMA_8DB = 8.0 * math.log(10.0) / 10.0


def test_criterion_07_shadow_fading():
    etas = [0.25, 0.5, 1.0, 2.0, 4.0]
    plain = empirical_tail_ci(single_tier(2, 4.0), etas, 100_000, 700)
    faded_spec = single_tier(2, 4.0, fading=LogNormalFading(SIGMA_8DB))
    faded = empirical_tail_ci(faded_spec, etas, 100_000, 701)
    ok_ci = all(
        abs(p - f) <= joint(hp, hf)
        for p, hp, f, hf in zip(plain.tails, plain.halfwidths,
                                faded.tails, faded.halfwidths)
    )
    # C/(I+N): noise chosen so the faded network reduces to each target N'
    lam_eff = math.exp(0.5 * (0.5 * SIGMA_8DB) ** 2)
    ok_cin = True
    for i, nprime in enumerate((0.01, 0.1, 1.0)):
        spec = dataclasses.replace(faded_spec, noise=nprime * lam_eff**2)
        canon = canonicalize(spec)
        assert canon.nprime == pytest.approx(nprime, rel=1e-12)
        emp = empirical_tail_cin(spec, [1.0], 200_000, 710 + i)
        ok_cin &= abs(tail_cin(canon, 1.0) - emp.tails[0]) <= emp.halfwidths[0]
    report(7, "8 dB log-normal fading: C/I unchanged, C/(I+N) via moment-scaled N'",
           ok_ci and ok_cin)


def test_criterion_08_multi_tier_collapse():
    tiers = (Tier(density=1.0, power=10.0), Tier(density=5.0, power=0.1))
    e_k = (1.0 / 6.0) * 10.0**0.5 + (5.0 / 6.0) * 0.1**0.5
    lam_eff = 6.0 * e_k
    etas = [0.5, 1.0, 2.0]
    ok = True
    for i, nprime in enumerate((0.01, 1.0)):
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=tiers,
                           noise=nprime * lam_eff**2)
        canon = canonicalize(spec)
        assert canon.nprime == pytest.approx(nprime, rel=1e-12)
        emp = empirical_tail_cin(spec, etas, 1_000_000, 800 + i)
        for k, eta in enumerate(etas):
            ok &= abs(tail_cin(canon, eta) - emp.tails[k]) <= emp.halfwidths[k]
    report(8, "2-tier network matches its canonical C/(I+N) law (n=1e6)", ok)


def test_criterion_09_added_tiers_improve():
    rng = np.random.default_rng(900)
    base = Tier(density=1.0, power=1.0)
    ok_mono = True
    for _ in range(10):
        added = [
            Tier(density=float(rng.uniform(0.05, 10.0)),
                 power=float(rng.uniform(0.001, 3.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        n1, n2 = noise_after_adding_tiers(base, added, D2, 4.0, 1.0)
        ok_mono &= n2 < n1
    # one strongly-improving configuration, checked by simulation
    noise = 2.0
    base_spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(base,), noise=noise)
    aug_spec = NetworkSpec(dim=D2, epsilon=4.0,
                           tiers=(base, Tier(density=3.0, power=1.0)),
                           noise=noise)
    n1, n2 = noise_after_adding_tiers(base, [Tier(3.0, 1.0)], D2, 4.0, noise)
    assert n2 / n1 < 0.5
    e_base = empirical_tail_cin(base_spec, [1.0], 200_000, 910)
    e_aug = empirical_tail_cin(aug_spec, [1.0], 200_000, 911)
    gain = e_aug.tails[0] - e_base.tails[0]
    ok_mc = gain > joint(e_base.halfwidths[0], e_aug.halfwidths[0])
    report(9, "overlaying tiers lowers N' and measurably improves C/(I+N)",
           ok_mono and ok_mc)


def test_criterion_10_sectoring():
    theta = 2.0 * math.pi / 3.0
    kappa = 1.0
    gain = kappa * 2.0 * math.pi / theta  # conserve kappa = G * theta / 2pi
    spec = single_tier(2, 4.0, noise=0.05,
                       sector=Sector(gain=gain, beamwidth=theta))
    canon = canonicalize(spec)
    emp = empirical_tail_cin(spec, [1.0], 200_000, 1000)
    ok_tail = abs(tail_cin(canon, 1.0) - emp.tails[0]) <= emp.halfwidths[0]
    # zero-power fraction among station marks
    from scsnet.montecarlo import _draw_marks

    powers, _ = _draw_marks(spec, substream(1001, 0), (100_000,))
    frac = float((powers == 0.0).mean())
    want = 1.0 - theta / (2.0 * math.pi)
    se = math.sqrt(want * (1.0 - want) / powers.size)
    ok_frac = abs(frac - want) <= 3.0 * se
    report(10, "120-degree sectoring matches the sector-reduced canonical law",
           ok_tail and ok_frac)


def test_criterion_11_numerics():
    ok_kummer = True
    omegas = np.geomspace(0.01, 1000.0, 50)
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = kummer_1f1_neg_a(a, omegas)
        for w, g in zip(omegas, got):
            with mp.workdps(40):
                ref = complex(mp.hyp1f1(-a, 1 - a, 1j * mp.mpf(float(w))))
            ok_kummer &= abs(g - ref) / abs(ref) <= 1e-8
    from scsnet import g_integral

    ok_g = True
    for ratio in (1.5, 2.0, 4.0):
        v = np.linspace(0.0, 60.0, 2_000_001)
        y = v * np.exp(-v) / (1.0 + v / (ratio - 1.0)) ** (1.0 / ratio)
        simpson = (60.0 / 2_000_000) / 3.0 * (
            y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()
        )
        ok_g &= abs(g_integral(0.0, ratio) - simpson) <= 1e-8
    report(11, "1F1 kernel vs extended-precision oracle; G vs Simpson oracle",
           ok_kummer and ok_g)


def test_criterion_12_determinism(tmp_path):
    spec = single_tier(2, 4.0, noise=0.1)
    paths = []
    for tag in ("a", "b"):
        emp = empirical_tail_cin(spec, [0.5, 1.0, 2.0], 100_000, 1200)
        p = tmp_path / f"run_{tag}.csv"
        emp.to_csv(p)
        paths.append(p)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    report(12, "identical seeds reproduce byte-identical CSV output", ok)
