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
    """P(C/I > eta) by charfn inversion at any eta > 0.

    tail_ci answers eta >= 1 with its closed form, so checks of that closed
    form need this independent route: the one tail_ci takes below 1.
    """
    from scsnet import charfn_inv_ci, invert_tail
    from scsnet.analytic import _decay_ci

    def run(ratio, eta, tol=1e-6):
        return invert_tail(lambda w: charfn_inv_ci(ratio, w), eta, tol=tol,
                           decay=_decay_ci(1.0 / ratio))
    return run


@pytest.fixture(scope="session")
def invert_cin():
    """P(C/(I+N') > eta) by charfn inversion at any eta > 0 (see invert_ci)."""
    from scsnet import charfn_inv_cin, invert_tail
    from scsnet.analytic import _cin_char_scale

    def run(canon, eta, tol=1e-5):
        return invert_tail(lambda w: charfn_inv_cin(canon, w), eta, tol=tol,
                           decay=canon.a, char_scale=_cin_char_scale(canon))
    return run
