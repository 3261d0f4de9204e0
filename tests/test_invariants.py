"""Seeded sweep of laws every exact tail must keep, on random systems.

Each seed draws one system: l in {1, 2, 3}, eps/l log-uniform on [1.2, 4],
and a noise level n log-uniform on [1e-6, 0.1].  The C/(I+N') tail is
evaluated at N' in {0, n, 10 n} and eta in {a draw in [0.2, 0.9],
1 - 1e-12, 1, 3}, which straddles the switch from inversion to the closed
form at eta = 1.
"""

import math

import numpy as np
import pytest

from scsnet import CanonicalSystem, Dimension, InversionError, tail_ci, tail_cin

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
