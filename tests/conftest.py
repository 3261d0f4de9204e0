"""Shared helpers for comparing analytic values with Monte Carlo estimates."""

import math

import pytest


def joint_halfwidth(h1, h2):
    """99% halfwidth of the difference of two independent estimates."""
    return math.hypot(h1, h2)


def assert_bracketed(analytic, emp, idx, label=""):
    """The analytic value must lie inside the empirical 99% interval."""
    t, h = emp.tails[idx], emp.halfwidths[idx]
    assert abs(analytic - t) <= h, (
        f"{label} eta={emp.etas[idx]}: analytic {analytic:.5f} outside "
        f"MC {t:.5f} +- {h:.5f}"
    )


def assert_curves_agree(emp1, emp2, label=""):
    """Two empirical curves agree within their joint 99% bands at every eta."""
    assert emp1.etas == emp2.etas
    for eta, t1, h1, t2, h2 in zip(
        emp1.etas, emp1.tails, emp1.halfwidths, emp2.tails, emp2.halfwidths
    ):
        hj = joint_halfwidth(h1, h2)
        assert abs(t1 - t2) <= hj, (
            f"{label} eta={eta}: {t1:.5f} vs {t2:.5f} differ beyond "
            f"joint 99% band {hj:.5f}"
        )


@pytest.fixture(scope="session")
def planar_canonical():
    """The workhorse system: l=2, eps=4, unit density and power."""
    from scsnet import Dimension, NetworkSpec, Tier

    return NetworkSpec(dim=Dimension(2), epsilon=4.0,
                       tiers=(Tier(density=1.0, power=1.0),))


@pytest.fixture(scope="session")
def invert_ci():
    """P(C/I > eta) by charfn inversion at any eta > 0 (raw, unclamped).

    tail_ci answers eta >= 1 with its closed form, so checks of that closed
    form need this independent route: the one tail_ci takes below 1.
    """
    from scsnet import charfn_inv_ci, invert_tail

    def run(ratio, eta, tol=1e-6):
        return invert_tail(lambda w: charfn_inv_ci(ratio, w), eta, tol=tol,
                           p=1.0 / ratio).value
    return run


@pytest.fixture(scope="session")
def damping_cin():
    """Noise damping of charfn_inv_cin's envelope, by its own quad.

    phi ~ A_N w^-a with A_N = e^{i a pi/2} int_0^inf exp(-Gamma(1-a) u -
    c u^(eps/l)) du, c = N' (l/b)^(eps/l), which is the C/I coefficient
    e^{i a pi/2} / Gamma(1-a) times Gamma(1-a) times that integral.  It is
    integrated directly rather than through the rescaled integral that
    tail_cin_closed shares with tail_cin.
    """
    from scipy.integrate import quad

    def run(canon):
        a, rho = canon.a, canon.ratio
        c = canon.nprime * (canon.dim.l / canon.dim.b) ** rho
        g = math.gamma(1.0 - a)
        val, _ = quad(lambda u: math.exp(-g * u - c * u**rho), 0.0, math.inf,
                      epsabs=1e-14, epsrel=1e-12, limit=200)
        return g * val
    return run


@pytest.fixture(scope="session")
def invert_cin(damping_cin):
    """P(C/(I+N') > eta) by charfn inversion at any eta > 0 (see invert_ci)."""
    from scsnet import charfn_inv_cin, invert_tail
    from scsnet.analytic import _cin_char_scale

    def run(canon, eta, tol=1e-5):
        return invert_tail(lambda w: charfn_inv_cin(canon, w), eta, tol=tol,
                           p=canon.a, damping=damping_cin(canon),
                           char_scale=_cin_char_scale(canon)).value
    return run
