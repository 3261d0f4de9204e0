import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc

from scsnet.numerics import (
    InversionError,
    QuadratureResult,
    g_integral,
    invert_tail,
    invert_tail_result,
    kummer_1f1_neg_a,
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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_integral(0.0, 1.0)
        with pytest.raises(ValueError):
            g_integral(-1.0, 2.0)
        with pytest.raises(ValueError):
            g_integral(math.nan, 2.0)


def gamma_half(w):
    """Charfn of X ~ Gamma(1/2, 1); its envelope is w^(-1/2) e^{i pi/4}."""
    return (1.0 - 1j * w) ** -0.5


GAMMA_HALF_DECAY = (0.5, complex(np.exp(1j * math.pi / 4)))


class TestInvertTail:
    def test_gamma_half_known_decay(self):
        # X ~ Gamma(1/2, 1): phi(w) = (1 - i w)^(-1/2), envelope w^(-1/2)
        # with exact coefficient e^{i pi/4}; CDF is the regularized gamma P.
        phi = lambda w: (1.0 - 1j * w) ** -0.5
        A = complex(np.exp(1j * math.pi / 4))
        for eta in (0.25, 1.0, 4.0):
            want = float(gammainc(0.5, 1.0 / eta))
            got = invert_tail(phi, eta, tol=1e-5, decay=(0.5, A))
            assert got == pytest.approx(want, abs=3e-5)

    def test_gamma_half_fitted_coefficient(self):
        phi = lambda w: (1.0 - 1j * w) ** -0.5
        for eta in (0.5, 2.0):
            want = float(gammainc(0.5, 1.0 / eta))
            got = invert_tail(phi, eta, tol=1e-5, decay=0.5)
            assert got == pytest.approx(want, abs=3e-5)

    def test_monotone_in_eta(self):
        phi = lambda w: (1.0 - 1j * w) ** -0.5
        etas = np.geomspace(0.1, 20.0, 12)
        vals = [invert_tail(phi, e, tol=1e-6, decay=(0.5, np.exp(1j * math.pi / 4)))
                for e in etas]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-6

    def test_output_clamped_and_raw_excursion_small(self):
        # the tail is within 1e-9 of 1 here; the raw value overshoots by ~1e-5
        for eta in (0.02, 0.05):
            res = invert_tail_result(gamma_half, eta, tol=1e-4, decay=GAMMA_HALF_DECAY)
            assert abs(min(1.0, max(0.0, res.value)) - res.value) < 1e-3
            clamped = invert_tail(gamma_half, eta, tol=1e-4, decay=GAMMA_HALF_DECAY)
            assert 0.0 <= clamped <= 1.0

    def test_budget_error_carries_partial(self):
        phi = lambda w: (1.0 - 1j * w) ** -0.5
        with pytest.raises(InversionError) as exc:
            invert_tail(phi, 1.0, tol=1e-12, decay=(0.5, np.exp(1j * math.pi / 4)),
                        max_evals=2000)
        assert exc.value.partial_value is not None
        assert exc.value.error_estimate > 0

    def test_eta_zero_is_callers_branch(self):
        with pytest.raises(ValueError):
            invert_tail(gamma_half, 0.0, decay=GAMMA_HALF_DECAY)

    def test_decay_is_required(self):
        with pytest.raises(TypeError):
            invert_tail(gamma_half, 0.5)
        with pytest.raises(ValueError, match="decay exponent"):
            invert_tail(gamma_half, 0.5, decay=1.0)

    def test_quadrature_result_validation(self):
        with pytest.raises(ValueError):
            QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=3)
