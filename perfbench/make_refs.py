"""Regenerate perfbench/refs.json, the stored references for eta < 1.

The benchmark checks every answer it times.  Above eta = 1 it computes its
references itself (the sinc power law for C/I, the Campbell-Mecke integral
for C/(I+N')).  Below eta = 1 there is no cheap closed form, so the values
come from this script, each by a route independent of the one the benchmark
times, and each with that route's own error stored beside it:

* ``ci``:   P(C/I > eta), eta in {0.1, 0.5}, by Gil-Pelaez inversion of
            1/1F1(-a; 1-a; i w) in mpmath (incomplete-gamma form of 1F1,
            ``quadosc`` on [0, inf)).  The same route is validated against
            the exact sinc law at eta = 2; ten times that deviation is
            stored as the route's error.
* ``ci2``:  the strongest-two closed form P(C/I_2 > eta) on the whole grid,
            with the G integral done by mpmath quadrature instead of scipy.
* ``cin``:  P(C/(I+N') > 0.25) for the cin_table cells, by Gil-Pelaez
            inversion of the C/(I+N') charfn: 1F1 from mpmath, the nearest-
            station integral along the real axis and the inversion integral
            by scipy quad (QAWF for the oscillating tail), none of it the
            package's code.  The route is validated against the
            Campbell-Mecke integral at the table's eta = 1 and 4; ten times
            the larger deviation is stored as its error.
* ``mc``:   P(C/(I+N) > 0.5) for the mc_multitier spec by the same route,
            at the N' of the spec's reduction, validated at eta = 1 and 2.

Usage: python3 perfbench/make_refs.py  (rewrites refs.json whole; mpmath is
required; takes about half an hour on a 2-core machine)
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

REFS = HERE / "refs.json"


def ci_gil_pelaez(ratio, eta, dps=20):
    """P(C/I > eta) = P(X < 1/eta), X = I/S, by Gil-Pelaez in mpmath."""
    import mpmath as mp

    mp.mp.dps = dps
    a = mp.mpf(1) / ratio
    x = mp.mpf(1) / eta

    def phi(w):
        mz = -1j * w
        # 1F1(-a; 1-a; z) = Gamma(1-a)(-z)^a + a (-z)^a Gamma(-a, -z)
        return 1 / (mp.gamma(1 - a) * mz**a + a * mz**a * mp.gammainc(-a, mz))

    integral = mp.quadosc(lambda w: mp.im(mp.exp(-1j * w * x) * phi(w)) / w,
                          [0, mp.inf], omega=x)
    return float(mp.mpf(0.5) - integral / mp.pi)


def part_ci():
    out = []
    for ratio in wl.CI_RATIOS:
        t0 = time.time()
        # validate at eta = 2, where the integrand oscillates as it does below 1
        dev = abs(ci_gil_pelaez(ratio, 2.0) - wl.sinc_tail(1.0 / ratio, 2.0))
        if dev > 1e-7:
            raise SystemExit(f"mpmath route off the sinc law by {dev:.2e} at {ratio}")
        for eta in wl.CI_ETAS:
            if eta >= 1.0:
                continue
            v = ci_gil_pelaez(ratio, eta)
            out.append({"ratio": ratio, "eta": eta, "value": v,
                        "err": max(1e-9, 10.0 * dev),
                        "route": "mpmath Gil-Pelaez, dps 20",
                        "eta2_check_dev": dev})
            print(f"ci {ratio} {eta} {v!r} ({time.time() - t0:.0f} s)", flush=True)
    return out


def part_ci2():
    import mpmath as mp

    mp.mp.dps = 30
    out = []
    for ratio in wl.CI_RATIOS:
        a = mp.mpf(1) / ratio

        def g(lower):
            return mp.quad(lambda v: v * mp.exp(-v) * (1 + v / (ratio - 1)) ** (-a),
                           [lower, lower + 10, lower + 40, mp.inf])
        c = g(0)
        for eta in wl.CI_ETAS:
            if eta >= 1.0:
                v = mp.mpf(eta) ** (-a) * c
            else:
                u = (ratio - 1) * (1 / mp.mpf(eta) - 1)
                v = 1 - (1 + u) * mp.exp(-u) + mp.mpf(eta) ** (-a) * g(u)
            out.append({"ratio": ratio, "eta": eta, "value": float(v), "err": 1e-15,
                        "route": "mpmath quad of G, dps 30"})
    return out


def cin_gil_pelaez(l, epsilon, nprime, eta):
    """P(C/(I+N') > eta) = P(X < 1/eta), X = (I+N')/S, by Gil-Pelaez.

    phi(w) = int_0^inf exp(-t F(w) + i w c t^rho) dt along the real t axis,
    F = 1F1(-a; 1-a; i w) from mpmath's incomplete gamma, c = N' (l/b)^rho;
    the w integral is scipy quad on [0, 2 pi eta] and QAWF beyond.
    """
    import mpmath as mp
    from scipy.integrate import quad

    a, rho = l / epsilon, epsilon / l
    c = nprime * (l / wl._B[l]) ** rho
    x = 1.0 / eta
    g1a = mp.gamma(1 - a)

    def phi(w):
        mz = mp.mpc(0, -w)
        F = complex(g1a * mz**a + a * mz**a * mp.gammainc(-a, mz))
        re, im = (quad(lambda t: getattr(np.exp(-t * F + 1j * w * c * t**rho), part),
                       0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                  for part in ("real", "imag"))
        return complex(re, im)

    head = quad(lambda w: (np.exp(-1j * w * x) * phi(w)).imag / w,
                0, 2 * math.pi / x, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    tail = (quad(lambda w: phi(w).imag / w, 2 * math.pi / x, np.inf,
                 weight="cos", wvar=x, epsabs=1e-12, limlst=100)[0]
            - quad(lambda w: phi(w).real / w, 2 * math.pi / x, np.inf,
                   weight="sin", wvar=x, epsabs=1e-12, limlst=100)[0])
    return 0.5 - (head + tail) / math.pi


def _cin_checked(l, epsilon, nprime, etas):
    """cin_gil_pelaez at each eta < 1, with the route's error taken as ten
    times its largest deviation from the Campbell-Mecke integral at the
    given eta >= 1."""
    dev = max(abs(cin_gil_pelaez(l, epsilon, nprime, e)
                  - wl.campbell_mecke_tail(l, epsilon, nprime, e)[0])
              for e in etas if e >= 1.0)
    if dev > 1e-7:
        raise SystemExit(f"Gil-Pelaez route off Campbell-Mecke by {dev:.2e} "
                         f"at eps={epsilon}, N'={nprime}")
    route = "Gil-Pelaez, mpmath 1F1, scipy quad/QAWF"
    return [{"value": cin_gil_pelaez(l, epsilon, nprime, e), "err": max(1e-9, 10.0 * dev),
             "route": route, "eta": e, "eta_ge1_check_dev": dev}
            for e in etas if e < 1.0]


def part_cin():
    out = []
    for eps in wl.TABLE_EPSILONS:
        for npr in wl.TABLE_NPRIMES:
            t0 = time.time()
            for r in _cin_checked(wl.TABLE_L, eps, npr, wl.TABLE_ETAS):
                out.append({"l": wl.TABLE_L, "epsilon": eps, "nprime": npr, **r})
                print(f"cin {eps} {npr} {r['eta']} {r['value']!r} "
                      f"({time.time() - t0:.0f} s)", flush=True)
    return out


def part_mc():
    l, eps = wl.MC_SPEC["dimension"], wl.MC_SPEC["epsilon"]
    sigma = wl._sigma_natural(wl.MC_SPEC["fading"]["sigma_db"])
    nprime = wl.MC_SPEC["noise"] * wl.lambda_eff(wl.MC_SPEC["tiers"], eps, l, sigma) ** (-eps / l)
    return _cin_checked(l, eps, nprime, wl.MC_ETAS)


def main():
    parts = {"ci": part_ci, "ci2": part_ci2, "cin": part_cin, "mc": part_mc}
    refs = {name: part() for name, part in parts.items()}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
