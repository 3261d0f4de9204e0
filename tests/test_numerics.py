import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from scsnet import (
    CanonicalSystem,
    Dimension,
    charfn_inv_ci,
    charfn_inv_cin,
    tail_ci,
    tail_ci2,
    tail_ci_closed,
    tail_cin,
)
from scsnet.analytic import _cin_char_scale, _noise_damping
from scsnet.numerics import (
    _MAX_EVALS,
    InversionError,
    QuadratureResult,
    g_integral,
    invert_tail,
    kummer_1f1_neg_a,
    simplex_rule,
)


def series_oracle(a, omega, terms=200, dps=50):
    """Extended-precision direct Maclaurin series of 1F1(-a; 1-a; i*w)."""
    with mp.workdps(dps):
        z = 1j * mp.mpf(omega)
        term = mp.mpc(1)
        total = mp.mpc(1)
        for k in range(terms):
            term *= z * (k - a) / ((k + 1 - a) * (k + 1))
            total += term
        return complex(total)


class TestKummer:
    def test_value_at_zero_is_one(self):
        for a in (0.1, 0.5, 0.9):
            assert kummer_1f1_neg_a(a, 0.0) == 1.0 + 0.0j

    def test_conjugate_symmetry(self):
        w = np.array([0.3, 2.0, 17.0, 40.0, 300.0])
        for a in (0.2, 0.5, 0.8):
            plus = kummer_1f1_neg_a(a, w)
            minus = kummer_1f1_neg_a(a, -w)
            np.testing.assert_allclose(minus, np.conj(plus), rtol=0, atol=0)

    def test_against_series_oracle_at_unit_argument(self):
        got = kummer_1f1_neg_a(0.5, 1.0)
        ref = series_oracle(0.5, 1.0)
        assert abs(got - ref) / abs(ref) < 1e-8

    @pytest.mark.parametrize("a", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_against_oracle_across_omega(self, a):
        omegas = np.concatenate([
            np.geomspace(1e-9, 1e-2, 4),
            np.linspace(0.1, 29.0, 15),
            [30.0],  # top of the Jacobi branch, its largest error
            np.linspace(31.0, 80.0, 10),
            np.geomspace(100.0, 1e5, 12),
        ])
        got = kummer_1f1_neg_a(a, omegas)
        for w, g in zip(omegas, got):
            ref = complex(mp.hyp1f1(-a, 1 - a, 1j * mp.mpf(float(w))))
            assert abs(g - ref) / abs(ref) < 1e-12, f"a={a}, w={w}"

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_branches_agree_in_crossover_band(self, a):
        from scsnet.numerics import _jacobi_1f1, _laguerre_1f1

        band = np.linspace(25.0, 35.0, 21)
        jac = _jacobi_1f1(a, band)
        lag = _laguerre_1f1(a, band)
        assert np.max(np.abs(jac - lag) / np.abs(jac)) < 1e-12

    @pytest.mark.parametrize("lo, hi", [(0.0, 30.0), (30.5, 1e5)],
                             ids=["jacobi", "laguerre"])
    def test_memory_stays_a_few_values_per_omega(self, lo, hi):
        # Accumulating node by node keeps the peak to a few 1-D arrays; each
        # (omega x nodes) temporary of a matrix form takes 24 (Jacobi) or 8
        # (Laguerre) complex values per omega.
        w = np.linspace(lo, hi, 200_000)
        kummer_1f1_neg_a(0.5, w[:10])  # build the cached Jacobi rule first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kummer_1f1_neg_a(0.5, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / (16 * w.size) < 16

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kummer_1f1_neg_a(0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1_neg_a(1.0, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1_neg_a(0.5, np.inf)

    def test_modulus_at_least_one(self):
        # Re F >= 1 for every real omega, since exp(t(1-F)) is a charfn value
        w = np.geomspace(0.01, 1000.0, 200)
        for a in (0.15, 0.5, 0.85):
            f = kummer_1f1_neg_a(a, w)
            assert np.all(f.real >= 1.0 - 1e-12)


def simpson_oracle(lower, upper, ratio, panels=1_000_000):
    """Fixed-step Simpson quadrature of the G integrand, fully independent."""
    v = np.linspace(lower, upper, 2 * panels + 1)
    y = v * np.exp(-v) / (1.0 + v / (ratio - 1.0)) ** (1.0 / ratio)
    h = (upper - lower) / (2 * panels)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())


class TestGIntegral:
    def test_huge_ratio_limit(self):
        val = g_integral(0.0, 1e6)
        assert 0.999 <= val <= 1.0

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 4.0])
    def test_against_simpson_oracle(self, ratio):
        ref = simpson_oracle(0.0, 60.0, ratio)
        assert abs(g_integral(0.0, ratio) - ref) < 1e-8

    def test_nonzero_lower_against_oracle(self):
        ref = simpson_oracle(2.0, 62.0, 2.0)
        assert abs(g_integral(2.0, 2.0) - ref) < 1e-8

    def test_monotone_in_lower_and_ratio(self):
        lows = [0.0, 0.5, 1.0, 2.0, 5.0]
        vals = [g_integral(lo, 2.0) for lo in lows]
        assert vals == sorted(vals, reverse=True)
        ratios = [1.2, 1.5, 2.0, 4.0, 10.0, 100.0]
        vals = [g_integral(0.0, r) for r in ratios]
        assert vals == sorted(vals)
        assert vals[-1] < 1.0

    def test_against_mpmath_quadrature(self):
        # a seeded (ratio, lower) grid plus (13.13, 0.245), where G written
        # with scipy's Tricomi U (special.hyperu) is off by about 3.5e-9
        rng = np.random.default_rng(21)
        ratios = np.exp(rng.uniform(math.log(1.001), math.log(1e6), 8))
        lows = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 700.0, 3)])
        points = [(13.13, 0.245)] + [(float(r), float(u)) for r in ratios for u in lows]
        with mp.workdps(30):
            for ratio, lower in points:
                r, lo = mp.mpf(ratio), mp.mpf(lower)
                ref = mp.quad(lambda v: v * mp.exp(-v) * (1 + v / (r - 1)) ** (-1 / r),
                              [lo, lo + 5, mp.inf])
                assert abs(g_integral(lower, ratio) - ref) <= 1e-14, (ratio, lower)
        # on eta >= 1 the strongest-two tail is eta^-a G(0) exactly
        for ratio in [1.001, 2.0, 13.13, *ratios]:
            for eta in (1.0, 1.5, 10.0, 1e6):
                assert tail_ci2(ratio, eta) == eta ** (-1 / ratio) * g_integral(0.0, ratio)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_integral(0.0, 1.0)
        with pytest.raises(ValueError):
            g_integral(-1.0, 2.0)
        with pytest.raises(ValueError):
            g_integral(math.nan, 2.0)


def inv_ci(w):
    """Charfn of (C/I)^-1 at eps/l = 2: 1/1F1(-1/2; 1/2; i w)."""
    return charfn_inv_ci(2.0, w)


class TestInvertTail:
    def test_known_tail_above_one(self):
        # at eta >= 1 the tail is the exact sinc power law; the raw value
        # must lie within its own error estimate of it
        for eta in (1.0, 2.0, 4.0):
            res = invert_tail(inv_ci, eta, tol=1e-8, p=0.5)
            assert res.abs_error_estimate <= 1e-8
            assert abs(res.value - tail_ci_closed(2.0, eta)) <= res.abs_error_estimate

    def test_narrow_panels_reach_tiny_omega_x(self):
        # char_scale 10 puts the smallest Gauss node at w x ~ 4e-7, where
        # 1 - e^{-iwx} cancels to first order; the tail at eta = 1 is 2/pi
        res = invert_tail(inv_ci, 1.0, p=0.5, char_scale=10.0, tol=1e-8)
        assert abs(res.value - 2.0 / math.pi) <= 1e-8

    def test_monotone_in_eta(self):
        etas = np.geomspace(0.1, 20.0, 12)
        vals = [invert_tail(inv_ci, e, tol=1e-6, p=0.5).value for e in etas]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-6

    def test_output_clamped_and_raw_excursion_small(self):
        # P(C/I > 0.1) at eps/l = 4 is within 6e-9 of 1; the raw value
        # overshoots within its error estimate and tail_ci clamps it
        res = invert_tail(lambda w: charfn_inv_ci(4.0, w), 0.1, tol=1e-6, p=0.25)
        assert abs(min(1.0, max(0.0, res.value)) - res.value) <= res.abs_error_estimate
        assert 0.0 <= tail_ci(4.0, 0.1) <= 1.0

    def test_budget_error_carries_partial(self):
        # the remainder bound (3.5e-14) meets tol, but the 1e-13 rounding
        # allowance lifts the estimate past it: the value travels in the error
        with pytest.raises(InversionError) as exc:
            invert_tail(inv_ci, 0.5, tol=1e-13, p=0.5)
        # mpmath Gil-Pelaez value of P(C/I > 0.5) at eps/l = 2
        assert exc.value.partial_value == pytest.approx(0.845702973762835, abs=1e-9)
        assert exc.value.error_estimate > 1e-13
        assert 0 < exc.value.evaluations <= _MAX_EVALS

    def test_unaffordable_panels_fail_before_evaluating(self):
        def never(w):
            raise AssertionError("charfn evaluated")

        def refused(call):
            with pytest.raises(InversionError) as exc:
                call()
            assert exc.value.evaluations == 0
            assert math.isnan(exc.value.partial_value)

        def inverted(canon, eta):
            # the inversion with tail_cin's arguments; tail_cin itself
            # inverts only below eta = 1/4
            return lambda: invert_tail(
                lambda w: charfn_inv_cin(canon, w), eta, p=1.0 / canon.ratio,
                damping=_noise_damping(canon)[0], tol=1e-5,
                char_scale=_cin_char_scale(canon))

        refused(lambda: invert_tail(never, 0.5, p=0.5, char_scale=1e9))
        # the bound at the largest affordable Omega is 1.7e-15 > 1e-15
        refused(lambda: invert_tail(never, 0.5, p=0.5, tol=1e-15))
        # N' = 1e10 puts the noise phase at ~1e10 per unit omega
        refused(lambda: tail_cin(
            CanonicalSystem(dim=Dimension(2), epsilon=4.0, nprime=1e10), 0.2))
        # N' = 3e4: Omega = 30 is the only affordable cutoff, bound 3.2e-5
        refused(inverted(
            CanonicalSystem(dim=Dimension(2), epsilon=4.0, nprime=3e4), 0.99))
        refused(inverted(CanonicalSystem(
            dim=Dimension(1), epsilon=6.656231078410055, nprime=54.1521322481172),
            1 - 1e-12))

    def test_eta_zero_is_callers_branch(self):
        with pytest.raises(ValueError):
            invert_tail(inv_ci, 0.0, p=0.5)

    def test_decay_is_required(self):
        # the exponent p of the charfn's w^-p decay
        with pytest.raises(TypeError):
            invert_tail(inv_ci, 0.5)
        with pytest.raises(ValueError, match="envelope exponent p"):
            invert_tail(inv_ci, 0.5, p=1.0)

    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_damping_outside_unit_interval_fails_fast(self, damping):
        def never(w):
            raise AssertionError("charfn evaluated")

        with pytest.raises(ValueError, match="damping"):
            invert_tail(never, 0.5, p=0.5, damping=damping)

    def test_quadrature_result_validation(self):
        with pytest.raises(ValueError):
            QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=3)


class TestSimplexRule:
    @pytest.mark.parametrize("power", [0.004, 0.5, 2.3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dirichlet_moments(self, dim, power):
        # int z^k (1 - sum z)^power dz = prod k_i! Gamma(power + 1)
        # / Gamma(|k| + dim + power + 1) over the simplex
        z, w = simplex_rule(dim, power, 16)
        for k in itertools.product(range(4), repeat=dim):
            want = (math.prod(map(math.factorial, k)) * math.gamma(power + 1.0)
                    / math.gamma(sum(k) + dim + power + 1.0))
            got = np.sum(w * np.prod(z ** np.array(k), axis=1))
            assert got == pytest.approx(want, rel=1e-13), k
