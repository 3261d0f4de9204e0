"""Freeze independent Laplace-inversion anchors for eps/l near 1.

Both routes invert, with mpmath alone, the Laplace transform of
X = (I + N')/C, the reciprocal signal quality of the canonical network
(a = l/eps, rho = eps/l, F(s) = 1F1(-a; 1-a; -s), b the unit-sphere
constant); neither shares code with scsnet:

* C/I by fixed Talbot (Abate & Valko, Int. J. Numer. Meth. Eng. 60, 2004)
  at dps 30: L(s) = 1 / (s F(s)) transforms P(X <= x), and
  P(C/I > eta) = P(X < 1/eta).
* C/(I+N') by Gaver-Stehfest at dps 40, on the real axis only, where the
  transform is a positive, non-oscillating integral:
  L(s) = (1/s) int_0^inf exp(-t F(s) - s N' (l/b)^rho t^rho) dt.

Before any value is stored, each method is checked at eta = 2, where the
tail is known exactly: Talbot against the sinc law sin(pi a)/(pi a) 2^-a at
each C/I ratio, Stehfest against the Campbell-Mecke integral
2^-a sinc(pi a) int_0^inf exp(-v - c v^rho) dv, c = N' ((b/l) Gamma(1-a))^-rho,
at each noisy system.  A residual above CHECK_LIMIT aborts the run.

Each value is stored with an error estimate: the larger of its change from
dps 30 to 40 (Talbot) or 40 to 30 (Stehfest) and its method's residual at
eta = 2 on the same system.  Talbot's error does not shrink with dps here,
because the law has kinks at x = 1, 2, ..., so the change alone can
understate it.

Run from the repository root (the noisy points take 15-30 s each):

    python tests/make_anchors.py          # write tests/data/anchors.json
    python tests/make_anchors.py --check  # recompute; exit 1 on any drift
"""

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

PATH = Path(__file__).with_name("data") / "anchors.json"
CI_RATIOS = (1.005, 1.01, 1.02, 1.05, 1.1)
CI_ETAS = (0.01, 0.1, 0.3, 0.9)
CIN_L = 2
CIN_POINTS = ((1.005, 1e-2, 0.3), (1.02, 1e-2, 0.3), (1.02, 1.0, 0.3))  # eps/l, N', eta
CHECK_LIMIT = 1e-8


def ci_talbot(ratio, eta, dps):
    with mp.workdps(dps):
        a = 1 / mp.mpf(ratio)
        return mp.invertlaplace(lambda s: 1 / (s * mp.hyp1f1(-a, 1 - a, -s)),
                                1 / mp.mpf(eta), method="talbot")


def cin_stehfest(ratio, nprime, eta, dps):
    with mp.workdps(dps):
        rho = mp.mpf(ratio)
        a, k = 1 / rho, mp.mpf(nprime) * (CIN_L / (2 * mp.pi)) ** rho  # b = 2 pi

        def transform(s):
            F = mp.hyp1f1(-a, 1 - a, -s)
            return mp.quad(lambda t: mp.exp(-t * F - s * k * t**rho), [0, mp.inf]) / s
        return mp.invertlaplace(transform, 1 / mp.mpf(eta), method="stehfest")


def ci_exact_at_2(ratio):
    with mp.workdps(40):
        a = 1 / mp.mpf(ratio)
        return mp.sinc(mp.pi * a) * mp.mpf(2) ** -a


def cin_exact_at_2(ratio, nprime):
    with mp.workdps(40):
        rho = mp.mpf(ratio)
        a = 1 / rho
        c = mp.mpf(nprime) * (2 * mp.pi / CIN_L * mp.gamma(1 - a)) ** -rho
        damping = mp.quad(lambda v: mp.exp(-v - c * v**rho), [0, mp.inf])
        return mp.mpf(2) ** -a * mp.sinc(mp.pi * a) * damping


def checked_residual(label, got, exact):
    residual = float(abs(got - exact))
    print(f"check {label} at eta = 2: residual {residual:.2e}", flush=True)
    if not residual <= CHECK_LIMIT:
        sys.exit(f"{label}: residual {residual:.2e} at eta = 2 exceeds {CHECK_LIMIT:.0e}")
    return residual


def compute():
    ci = []
    for ratio in CI_RATIOS:
        residual = checked_residual(f"talbot eps/l={ratio}", ci_talbot(ratio, 2.0, 30),
                                    ci_exact_at_2(ratio))
        for eta in CI_ETAS:
            v30, v40 = ci_talbot(ratio, eta, 30), ci_talbot(ratio, eta, 40)
            ci.append({"ratio": ratio, "eta": eta, "tail": float(v30),
                       "error": max(float(abs(v30 - v40)), residual)})
            print(ci[-1], flush=True)
    cin = []
    for ratio, nprime, eta in CIN_POINTS:
        residual = checked_residual(f"stehfest eps/l={ratio} N'={nprime}",
                                    cin_stehfest(ratio, nprime, 2.0, 40),
                                    cin_exact_at_2(ratio, nprime))
        v40, v30 = (cin_stehfest(ratio, nprime, eta, dps) for dps in (40, 30))
        cin.append({"ratio": ratio, "nprime": nprime, "eta": eta, "tail": float(v40),
                    "error": max(float(abs(v40 - v30)), residual)})
        print(cin[-1], flush=True)
    return {
        "ci": {"method": "talbot", "dps": 30, "points": ci},
        "cin": {"method": "stehfest", "dps": 40, "l": CIN_L, "points": cin},
    }


def where(point):
    """The system and threshold of an anchor: all but its tail and error."""
    return {k: v for k, v in point.items() if k not in ("tail", "error")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the frozen file; write nothing")
    args = parser.parse_args(argv)
    fresh = compute()
    if not args.check:
        PATH.parent.mkdir(exist_ok=True)
        PATH.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {PATH}")
        return 0
    frozen = json.loads(PATH.read_text(encoding="utf-8"))
    drift = [(old, new) for key in ("ci", "cin")
             for old, new in zip(frozen[key]["points"], fresh[key]["points"], strict=True)
             if where(old) != where(new)
             or not abs(old["tail"] - new["tail"]) <= old["error"]]
    for old, new in drift:
        print(f"anchor drifted: frozen {old}, recomputed {new}", file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
