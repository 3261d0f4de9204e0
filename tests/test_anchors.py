"""Tails near eps/l = 1 against frozen, independent Laplace-inversion anchors.

tests/data/anchors.json comes from tests/make_anchors.py: C/I by mpmath's
fixed Talbot and C/(I+N') by Gaver-Stehfest, each with its error estimate.
Near eps/l = 1 the rotated ray of charfn_inv_cin turned too fast for its
panels and tail_cin missed tol by up to 4e-4; at N' = 1e-300 the C/I anchors
check that route as well as tail_ci's.
"""

import json
from pathlib import Path

import pytest

from scsnet import CanonicalSystem, Dimension, tail_ci, tail_cin

ANCHORS = json.loads((Path(__file__).with_name("data") / "anchors.json")
                     .read_text(encoding="utf-8"))
TOL = 1e-8


def label(point):
    return ",".join(f"{k}={v}" for k, v in point.items() if k not in ("tail", "error"))


@pytest.mark.parametrize("point", ANCHORS["ci"]["points"], ids=label)
def test_tail_ci_meets_talbot_anchor(point):
    got = tail_ci(point["ratio"], point["eta"], tol=TOL)
    assert abs(got - point["tail"]) <= TOL + point["error"]


@pytest.mark.parametrize("point", ANCHORS["ci"]["points"], ids=label)
def test_tail_cin_at_negligible_noise_meets_talbot_anchor(point):
    canon = CanonicalSystem(Dimension(2), 2.0 * point["ratio"], 1e-300)
    got = tail_cin(canon, point["eta"], tol=TOL)
    assert abs(got - point["tail"]) <= TOL + point["error"]


@pytest.mark.parametrize("point", ANCHORS["cin"]["points"], ids=label)
def test_noisy_tail_cin_meets_stehfest_anchor(point):
    l = ANCHORS["cin"]["l"]
    canon = CanonicalSystem(Dimension(l), l * point["ratio"], point["nprime"])
    got = tail_cin(canon, point["eta"], tol=TOL)
    assert abs(got - point["tail"]) <= TOL + point["error"]
