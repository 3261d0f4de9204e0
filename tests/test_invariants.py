"""Seeded sweeps of the public entry points: laws every exact tail must keep,
and an answer or a typed refusal, in bounded time, at extreme inputs.

The law sweep draws one system per seed: l in {1, 2, 3}, eps/l log-uniform
on [1.2, 4], and a noise level n log-uniform on [1e-6, 0.1].  The C/(I+N')
tail is evaluated at N' in {0, n, 10 n} and eta in {a draw in [0.2, 0.9],
1 - 1e-12, 1, 3}, which straddles the switch from two factorial-moment
terms to one at eta = 1; draws below 1/4 are inverted.
"""

import contextlib
import json
import math
import signal
import sys

import numpy as np
import pytest

from scsnet import (CanonicalSystem, DegenerateNetworkError, Dimension, InversionError,
                    NetworkSpec, SpecError, Tier, UnsupportedSettingError,
                    empirical_tail_ci, empirical_tail_cin, reduce_network, tail_ci,
                    tail_ci2, tail_cin)
from scsnet.analytic import _cin_char_scale
from scsnet.cli import main

TOL_CIN, TOL_CI = 1e-5, 1e-6  # the default tols of tail_cin and tail_ci


def draw_system(seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(1, 4))
    ratio = float(10 ** rng.uniform(math.log10(1.2), math.log10(4.0)))
    n = float(10 ** rng.uniform(-6, -1))
    etas = (float(rng.uniform(0.2, 0.9)), 1.0 - 1e-12, 1.0, 3.0)
    return Dimension(l), l * ratio, (0.0, n, 10.0 * n), etas


def tail_or_refusal(canon, eta):
    """tail_cin, or None if it refuses; a refusal must come unevaluated."""
    try:
        return tail_cin(canon, eta)
    except InversionError as exc:
        assert exc.evaluations == 0, (canon, eta, exc)
        return None


def pairs_hold(values, slack):
    """Each answered value is at most its answered predecessor plus slack."""
    answered = [v for v in values if v is not None]
    return all(b <= a + slack for a, b in zip(answered, answered[1:]))


@pytest.mark.parametrize("seed", range(6))
def test_tail_laws_on_random_systems(seed):
    dim, eps, nprimes, etas = draw_system(seed)
    grid = [[tail_or_refusal(CanonicalSystem(dim, eps, npr), eta) for eta in etas]
            for npr in nprimes]
    ci = [tail_ci(eps / dim.l, eta) for eta in etas]
    for row in grid:
        assert all(0.0 <= v <= 1.0 for v in row if v is not None)
        assert pairs_hold(row, 2 * TOL_CIN), row
        assert all(v <= c + TOL_CIN + TOL_CI
                   for v, c in zip(row, ci) if v is not None), (row, ci)
        below, at = row[1], row[2]
        if below is not None and at is not None:
            assert abs(below - at) <= 2e-5
    for column in zip(*grid):
        assert pairs_hold(column, 2 * TOL_CIN), column


class Overtime(Exception):
    """A call ran past its deadline; no library code catches this."""


@contextlib.contextmanager
def deadline(seconds):
    """Interrupt the block after `seconds` of wall time, so a hang fails fast."""
    def expire(signum, frame):
        raise Overtime(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# A single planar tier at eps = 4 whose density and power each span the float
# range: the sampler's powers scale as P lambda^2, the reduction's lambda_eff
# as lambda P^(1/2), so most of these fields are out of the float range.
SCALES = (1e-300, 1e-200, 1e-150, 1e-80, 1.0, 1e80, 1e150, 1e300)


@pytest.mark.parametrize("power", SCALES)
@pytest.mark.parametrize("density", SCALES)
def test_extreme_scales_answer_or_refuse(capsys, tmp_path, density, power):
    for noise in (0.0, 1.0):
        spec = NetworkSpec(dim=Dimension(2), epsilon=4.0,
                           tiers=(Tier(density=density, power=power),), noise=noise)
        try:
            with deadline(2):
                red = reduce_network(spec)
        except DegenerateNetworkError:
            red = None
        except SpecError as exc:
            assert "nprime" in str(exc)
            red = None
        lam_eff = density * power ** 0.5
        if noise == 0 and sys.float_info.min <= lam_eff < math.inf:
            assert red.canon.nprime == 0.0
        for empirical in (empirical_tail_ci, empirical_tail_cin):
            with contextlib.suppress(UnsupportedSettingError), deadline(2):
                emp = empirical(spec, [0.5, 1.0, 2.0], 300, 0)
                assert all(0.0 <= t <= 1.0 for t in emp.tails)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dimension": 2, "epsilon": 4.0, "noise": noise,
                                    "tiers": [{"density": density, "power": power}]}))
        for argv in (["reduce", path],
                     ["tail", path, "--metric", "cin", "--method", "mc",
                      "--etas", "0.5,1,2", "--n", "300", "--out", tmp_path / "mc.csv"]):
            with deadline(2):
                code = main([str(a) for a in argv])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code)
            assert (code == 0) == (err == ""), err


def draw_wide_system(rng):
    """l, eps/l on (1, 200] (eps/l - 1 log-uniform on [1e-3, 199]), N' = 0 or
    log-uniform on [1e-300, 1e12], and eta in {0, a draw on [1e-2, 1], a
    draw on [1, 1e3], inf}."""
    l = int(rng.integers(1, 4))
    ratio = 1.0 + float(10 ** rng.uniform(-3.0, math.log10(199.0)))
    nprime = 0.0 if rng.random() < 0.2 else float(10 ** rng.uniform(-300.0, 12.0))
    etas = (0.0, float(10 ** rng.uniform(-2.0, 0.0)),
            float(10 ** rng.uniform(0.0, 3.0)), math.inf)
    return l, ratio, nprime, etas


@pytest.mark.parametrize("seed", range(12))
def test_wide_sweep_answers_or_refuses(seed):
    """Each tail is in [0, 1] or a ValueError/InversionError, within 3 s.

    Below eta = 1e-2 inversion needs panels finer than pi eta, and a call
    there takes seconds today (ROADMAP item 7), so the sweep starts at 1e-2.
    A noise-limited tail_cin below eta = 1/4, where it inverts (char_scale
    >= 1e3), can take longer than 3 s too (ROADMAP item 6); such a seed is
    reported as an expected failure listing its calls, and any other
    overrun fails: the factorial-moment sum answers [1/4, 1) in
    milliseconds.
    """
    rng = np.random.default_rng(seed)
    slow = []
    for _ in range(4):
        l, ratio, nprime, etas = draw_wide_system(rng)
        canon = CanonicalSystem(Dimension(l), l * ratio, nprime)
        for fn, system in ((tail_ci, ratio), (tail_ci2, ratio), (tail_cin, canon)):
            for eta in etas:
                call = (fn.__name__, l, ratio, nprime, eta)
                try:
                    with deadline(3):
                        value = fn(system, eta)
                except (ValueError, InversionError):
                    continue
                except Overtime:
                    noise_limited = _cin_char_scale(canon) >= 1e3
                    assert fn is tail_cin and eta < 0.25 and noise_limited, call
                    slow.append(call)
                    continue
                assert 0.0 <= value <= 1.0, call
    if slow:
        pytest.xfail(f"noise-limited tail_cin over 3 s (ROADMAP item 6): {slow}")
