import cmath
import math
import threading

import mpmath as mp
import numpy as np
import pytest

from scsnet import (
    CanonicalSystem,
    Dimension,
    InversionError,
    LookupRangeError,
    LookupTable,
    NetworkSpec,
    SpecError,
    Tier,
    build_lookup_table,
    canonicalize,
    charfn_inv_ci,
    charfn_inv_cin,
    empirical_tail_ci,
    empirical_tail_cin,
    empirical_tail_fewbs,
    lookup,
    tail_ci,
    tail_ci2,
    tail_ci_closed,
    tail_cin,
    tail_cin_closed,
)
from scsnet import analytic
from scsnet.montecarlo import substream
from scsnet.numerics import g_integral, invert_tail, kummer_1f1_neg_a

D2 = Dimension(2)


def real_axis_charfn(canon, omega):
    """phi(w) = int_0^inf exp(-t F(w) + i w N' (l t / b)^(eps/l)) dt on the
    real axis, unrotated: 4,000 16-point Gauss-Legendre panels on
    [0, 80 / Re F], past which the integrand is below e^-80.  It shares F
    with charfn_inv_cin; F itself is checked against mpmath in
    test_numerics.py (criterion 11)."""
    f = kummer_1f1_neg_a(canon.a, omega)
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 80.0 / f.real, 4001)
    half = np.diff(edges)[:, None] / 2
    t = (edges[:-1, None] + half * (x + 1)).ravel()
    noise = canon.nprime * (canon.dim.l * t / canon.dim.b) ** canon.ratio
    return np.sum((half * w).ravel() * np.exp(-t * f + 1j * omega * noise))


class TestCharfnInvCi:
    def test_value_at_zero(self):
        assert charfn_inv_ci(2.0, 0.0) == 1.0 + 0.0j

    def test_depends_on_ratio_only(self):
        # the API admits only eps/l, so planar eps=4 and linear eps=2 coincide
        s_a = NetworkSpec(dim=Dimension(2), epsilon=4.0, tiers=(Tier(1.0, 1.0),))
        s_b = NetworkSpec(dim=Dimension(1), epsilon=2.0, tiers=(Tier(1.0, 1.0),))
        ra = canonicalize(s_a).ratio
        rb = canonicalize(s_b).ratio
        assert ra == rb
        w = np.linspace(0.1, 40.0, 7)
        np.testing.assert_array_equal(charfn_inv_ci(ra, w), charfn_inv_ci(rb, w))

    def test_against_empirical_charfn(self):
        # (C/I)^-1 in arrival-time space: (sum_i>1 T_i^(-rho) + tail mean) / T1^(-rho).
        # T_K^-1 is the exact mean beyond arrival K = 200; the fluctuation it
        # drops has variance ~T_K^-3/3, a charfn bias of ~2e-6 << 3 SE
        rng = substream(55, 0)
        x = np.empty(200_000)
        done = 0
        while done < len(x):
            m = min(10_000, len(x) - done)
            t = rng.exponential(size=(m, 200)).cumsum(axis=1)
            inv = (t[:, 1:] ** -2.0).sum(axis=1) + t[:, -1] ** -1.0
            x[done:done + m] = inv / t[:, 0] ** -2.0
            done += m
        for omega in (1.0, 2.0):
            z = np.exp(1j * omega * x)
            emp = z.mean()
            se = math.hypot(z.real.std(), z.imag.std()) / math.sqrt(len(z))
            model = charfn_inv_ci(2.0, omega)
            assert abs(emp - model) < 3.0 * se, f"omega={omega}"


class TestTailCi:
    def test_eta_zero(self):
        assert tail_ci(2.0, 0.0) == 1.0

    def test_power_law_above_one(self, invert_ci):
        # the inversion route, independent of the closed form tail_ci uses here
        for ratio in (1.5, 2.0, 3.0):
            t1 = invert_ci(ratio, 1.0)
            for eta in (2.0, 5.0, 20.0):
                assert invert_ci(ratio, eta) == pytest.approx(
                    t1 * eta ** (-1.0 / ratio), abs=1e-3
                )

    def test_steep_decay_at_one_is_sinc(self):
        # on [1, inf) tail_ci answers with the closed form at any eps/l
        assert tail_ci(8.0, 1.0) == pytest.approx(
            math.sin(math.pi / 8) / (math.pi / 8), abs=1e-12
        )

    @pytest.mark.parametrize("ratio,eta,anchor", [
        (2.0, 1.0, 0.636619772485079),
        (2.0, 4.0, 0.3183098859979442),
        (2.5, 2.0, 0.5735674055118099),
        (1.5, 1.0, 0.413496673660717),
    ])
    def test_matches_independent_quadrature_anchors(self, ratio, eta, anchor):
        # frozen from a 25-digit mpmath quadrature of the folded inversion
        # integral (independent adaptive integrator and 1F1 implementation)
        assert tail_ci(ratio, eta, tol=1e-7) == pytest.approx(anchor, abs=1e-7)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("ratio,eta,anchor", [
        (1.5, 0.1, 0.99144803274149),
        (1.5, 0.5, 0.6334899497226283),
        (2.0, 0.1, 0.9998336159757035),
        (2.0, 0.5, 0.845702973762835),
        (3.0, 0.1, 0.9999995544824046),
        (3.0, 0.5, 0.9588014704936113),
        (4.0, 0.1, 0.9999999940236616),
        (4.0, 0.5, 0.984346405155953),
        (1.2, 0.01, 0.999999997292085),
        (1.2, 0.9, 0.20849462043208658),
        (1.2, 0.99, 0.19259217766500905),
        (8.0, 0.01, 1.0),
        (8.0, 0.9, 0.9817625773423014),
        (8.0, 0.99, 0.9754243230960642),
    ])
    def test_inversion_below_one_within_its_estimate(self, ratio, eta, anchor, tol):
        # frozen from perfbench/make_refs.py:ci_gil_pelaez (mpmath 1F1 and
        # quadosc, dps 20); that route meets the exact sinc law to 1e-13 at
        # eta = 2 for every ratio here and at eta = 1, 1.01, 1.1 for 1.2.
        # 1e-9 is the error refs.json stores for it
        res = invert_tail(lambda w: charfn_inv_ci(ratio, w), eta, tol=tol,
                          p=1.0 / ratio)
        assert res.abs_error_estimate <= tol
        assert abs(res.value - anchor) <= res.abs_error_estimate + 1e-9

    def test_monotone_in_eta(self):
        etas = [0.05, 0.2, 0.5, 1.0, 2.0, 8.0, 50.0]
        vals = [tail_ci(2.0, e) for e in etas]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-6
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestClosedForm:
    def test_anchor_is_exact_at_one(self):
        # sinc(pi/2) = 2/pi
        assert tail_ci_closed(2.0, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_power_halving(self):
        k = tail_ci_closed(2.0, 1.0)
        assert tail_ci_closed(2.0, 4.0) == pytest.approx(k / 2.0, rel=1e-14)

    def test_matches_inversion_at_ten(self, invert_ci):
        assert tail_ci_closed(2.0, 10.0) == pytest.approx(
            invert_ci(2.0, 10.0), abs=1e-3
        )

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            tail_ci_closed(2.0, 0.5)


class TestFewBs:
    def test_branch_continuity_at_one(self):
        for ratio in (1.5, 2.0, 4.0):
            below = tail_ci2(ratio, 1.0 - 1e-12)
            at = tail_ci2(ratio, 1.0)
            assert abs(below - at) < 1e-10

    def test_eta_zero_and_small_eta_limit(self):
        assert tail_ci2(2.0, 0.0) == 1.0
        assert tail_ci2(2.0, 1e-4) == pytest.approx(1.0, abs=1e-6)

    def test_constant_ratio_to_exact_above_one(self, invert_ci):
        k = tail_ci_closed(2.0, 1.0)
        c = tail_ci2(2.0, 1.0)
        for eta in (1.0, 3.0, 10.0, 60.0):
            r = invert_ci(2.0, eta, tol=1e-7) / tail_ci2(2.0, eta)
            assert r == pytest.approx(k / c, rel=1e-3)

    def test_close_to_exact_below_one(self):
        for eta in (0.05, 0.2, 0.5, 0.9):
            assert abs(tail_ci(2.0, eta) - tail_ci2(2.0, eta)) <= 0.02

    def test_against_dedicated_mc(self):
        from scsnet import empirical_tail_fewbs

        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),))
        emp = empirical_tail_fewbs(spec, [0.25, 0.5, 1.0, 2.0], 200_000, 31)
        for i, eta in enumerate(emp.etas):
            want = tail_ci2(2.0, eta)
            assert abs(want - emp.tails[i]) <= emp.halfwidths[i]


class TestTailCin:
    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("l,eps", [(1, 1.5), (2, 4.0), (3, 4.2)])
    def test_zero_noise_reduces_to_ci(self, l, eps, eta):
        # 3/4.2 != 1/(4.2/3) in floats: C/I's envelope exponent is 1/ratio
        canon = CanonicalSystem(dim=Dimension(l), epsilon=eps, nprime=0.0)
        assert tail_cin(canon, eta) == tail_ci(canon.ratio, eta, tol=1e-5)

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    def test_ci_at_large_ratio_answers(self, eta):
        # Gamma(ratio + 1), the noise scale of C/(I+N'), overflows here
        assert tail_ci_closed(200.0, 2.0) <= tail_ci(200.0, eta) <= 1.0

    def test_noisy_large_ratio_matches_campbell_mecke(self):
        # l = 1, eps = 200, N' = 1: the damping integrand's x^(eps/l)
        # overflows past x ~ 35, where the integrand is exactly 0
        with mp.workdps(30):
            a = mp.mpf(1) / 200
            k = 2 * mp.gamma(1 - a)
            damped = mp.quad(lambda u: mp.exp(-k * u - u**200),
                             [0, 0.9, 1, 1.1, mp.inf])
            want = float(2.0 ** -a * 2 / mp.gamma(1 + a) * damped)
        assert want == pytest.approx(0.861638, abs=1e-6)
        canon = CanonicalSystem(dim=Dimension(1), epsilon=200.0, nprime=1.0)
        assert abs(tail_cin(canon, 2.0) - want) <= 1e-9

    @pytest.mark.parametrize("l, eps, nprime", [
        (2, 400.0, 1e-300), (3, 600.0, 1e-300), (3, 3.0001, 5e-324),
    ], ids=["l2_ratio200", "l3_ratio200", "l3_subnormal"])
    def test_negligible_noise_is_ci(self, l, eps, nprime):
        # N' (l/b)^(eps/l) underflows to 0.  At eps/l = 200 the ray's L^200
        # overflows, so the decay must be formed as (g L)^200 with g the noise
        # scale N'^(l/eps) l/b; near eps/l = 1 g itself is 0, and log(g) is not
        canon = CanonicalSystem(dim=Dimension(l), epsilon=eps, nprime=nprime)
        assert tail_cin(canon, 0.5) == pytest.approx(tail_ci(canon.ratio, 0.5), abs=1e-5)

    def test_noisy_large_ratio_inversion_refused_unevaluated(self):
        # the noise phase scale N' (l/b)^200 Gamma(201) is past the float
        # range; below eta = 1/4 the tail is inverted
        canon = CanonicalSystem(dim=Dimension(1), epsilon=200.0, nprime=1.0)
        with pytest.raises(InversionError) as exc:
            tail_cin(canon, 0.2)
        assert exc.value.evaluations == 0

    def test_eta_zero(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.3)
        assert tail_cin(canon, 0.0) == 1.0

    def test_monotone_in_noise(self):
        vals = [
            tail_cin(CanonicalSystem(dim=D2, epsilon=4.0, nprime=npr), 1.0)
            for npr in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo < hi

    def test_converges_to_ci_as_noise_vanishes(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=1e-7)
        assert tail_cin(canon, 1.0) == pytest.approx(tail_ci(2.0, 1.0), abs=5e-4)

    def test_charfn_reduces_to_ci_charfn_without_noise(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.0)
        w = np.array([0.5, 3.0, 50.0])
        got = charfn_inv_cin(canon, w)
        want = charfn_inv_ci(2.0, w)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("nprime", [0.01, 10.0])
    @pytest.mark.parametrize("l,eps", [(2, 3.0), (2, 4.0), (2, 5.0), (1, 1.5),
                                       (3, 4.5)])
    def test_charfn_against_real_axis_quadrature(self, l, eps, nprime):
        # mostly non-integer eps/l: the ray's real noise exponent against
        # the unrotated integral, whose t^(eps/l) is a real power
        canon = CanonicalSystem(dim=Dimension(l), epsilon=eps, nprime=nprime)
        for omega in (0.5, 2.0, 20.0):
            got = charfn_inv_cin(canon, omega)
            assert abs(got - real_axis_charfn(canon, omega)) < 1e-10

    @pytest.mark.parametrize("nprime", [1e-2, 1.0])
    @pytest.mark.parametrize("ratio", [1.005, 1.02, 1.1, 1.2])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_capped_ray_against_real_axis_quadrature(self, l, ratio, nprime):
        # near eps/l = 1 and at small omega the ray angle is capped at
        # _RAY_ARG_MAX - arg F, and the noise phase keeps an imaginary part
        canon = CanonicalSystem(dim=Dimension(l), epsilon=l * ratio, nprime=nprime)
        f = kummer_1f1_neg_a(canon.a, 1e-3)
        assert canon.a * math.pi / 2 > analytic._RAY_ARG_MAX - cmath.phase(f)
        for omega in (1e-3, 0.1, 3.0):
            got = charfn_inv_cin(canon, omega)
            assert abs(got - real_axis_charfn(canon, omega)) < 1e-10

    def test_against_mc(self, planar_canonical):
        import dataclasses

        from scsnet import empirical_tail_cin

        spec = dataclasses.replace(planar_canonical, noise=0.1)
        emp = empirical_tail_cin(spec, [0.5, 1.0, 2.0], 150_000, 13)
        canon = canonicalize(spec)
        for i, eta in enumerate(emp.etas):
            want = tail_cin(canon, eta)
            assert abs(want - emp.tails[i]) <= emp.halfwidths[i]

    @pytest.mark.parametrize("l,eps", [(1, 2.0), (3, 6.0)])
    def test_against_mc_other_dimensions(self, l, eps):
        # the noisy law carries the dimension through the noise scale, so the
        # l = 1 and l = 3 paths need their own simulation bracket
        from scsnet import empirical_tail_cin

        spec = NetworkSpec(dim=Dimension(l), epsilon=eps,
                           tiers=(Tier(1.0, 1.0),), noise=0.5)
        emp = empirical_tail_cin(spec, [0.5, 1.0, 2.0], 150_000, 60 + l)
        canon = canonicalize(spec)
        for i, eta in enumerate(emp.etas):
            want = tail_cin(canon, eta)
            assert abs(want - emp.tails[i]) <= emp.halfwidths[i]

    def test_noise_law_depends_on_dimension(self):
        # equal eps/l and equal N' but different l: C/I coincides while
        # C/(I+N') does not (the noise term feels the geometry)
        tails = [
            tail_cin(CanonicalSystem(dim=Dimension(l), epsilon=2.0 * l,
                                     nprime=0.5), 1.0)
            for l in (1, 2, 3)
        ]
        assert tails[0] < tails[1] < tails[2]
        assert tails[2] - tails[0] > 0.01

    @pytest.mark.parametrize("eps", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("nprime", [0.01, 10.0])
    def test_charfn_envelope_matches_direct_quadrature(self, damping_cin, eps, nprime):
        # the cin_table cells: phi w^a -> A_N, whose damping tail_cin takes
        # from _noise_damping and the fixture from a direct quad
        canon = CanonicalSystem(dim=D2, epsilon=eps, nprime=nprime)
        a = canon.a
        A_N = cmath.exp(0.5j * math.pi * a) / math.gamma(1.0 - a) * damping_cin(canon)
        got = charfn_inv_cin(canon, 1e4) * 1e4**a / A_N
        assert abs(got - 1.0) <= 1e-5

    def test_extreme_arguments_stay_sane(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=100.0)
        hi = tail_cin(canon, 0.01)
        lo = tail_cin(canon, 100.0)
        assert 0.0 <= lo <= hi <= 1.0
        tiny = tail_cin(CanonicalSystem(dim=D2, epsilon=4.0, nprime=1e-6), 100.0)
        assert tiny == pytest.approx(tail_ci(2.0, 100.0), abs=1e-3)


class TestCinClosed:
    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [1.5, 2.0])
    @pytest.mark.parametrize("nprime", [0.01, 1.0])
    def test_matches_inversion(self, invert_cin, l, ratio, nprime):
        canon = CanonicalSystem(dim=Dimension(l), epsilon=ratio * l, nprime=nprime)
        for eta in (1.0, 2.0):
            got = invert_cin(canon, eta, tol=1e-8)
            assert abs(tail_cin_closed(canon, eta) - got) <= 1e-7

    def test_tail_cin_takes_it_above_one(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.3)
        assert tail_cin(canon, 2.0) == tail_cin_closed(canon, 2.0)

    def test_noiseless_is_sinc_law(self):
        canon = CanonicalSystem(dim=Dimension(3), epsilon=7.5, nprime=0.0)
        for eta in (1.0, 3.0):
            assert tail_cin_closed(canon, eta) == tail_ci_closed(2.5, eta)

    @pytest.mark.parametrize("nprime", [1e-300, 1e-30])
    def test_tiny_noise_never_raises_the_tail(self, nprime):
        # quad puts the damping integral 1 ulp above 1 here; noise only lowers
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=nprime)
        assert tail_cin_closed(canon, 2.0) == tail_ci_closed(2.0, 2.0)
        assert tail_cin(canon, 0.5) == pytest.approx(tail_ci(2.0, 0.5), abs=2e-5)

    def test_very_noisy_system_keeps_its_peak(self):
        # at N' = 1e10 the integrand is a narrow peak at 0 that quad on
        # [0, inf) alone misses; noise dominates, so P ~ (b/l) (eta N')^-a
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=1e10)
        want = math.pi * 1e-5
        assert tail_cin_closed(canon, 1.0) == pytest.approx(want, rel=1e-3)

    def test_quadrature_error_guard_raises(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=1.0)
        with pytest.raises(InversionError) as info:
            tail_cin_closed(canon, 1.0, tol=1e-15)
        assert info.value.error_estimate > 1e-15
        assert info.value.partial_value == pytest.approx(
            tail_cin_closed(canon, 1.0), abs=1e-12
        )
        with pytest.raises(InversionError):
            tail_cin(canon, 1.0, tol=1e-15)

    def test_domain_guard(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=1.0)
        with pytest.raises(ValueError):
            tail_cin_closed(canon, 0.5)


class TestFactorialTail:
    """tail_cin on [1/4, 1): the inclusion-exclusion sum of at most four
    factorial moments, against the inversion that it replaced there."""

    # eps and three thresholds per l; together they meet every term count
    SYSTEMS = {1: (2.5, (0.25, 0.4, 0.75)), 2: (3.0, (0.3, 0.45, 0.99)),
               3: (12.0, (0.26, 0.34, 0.6))}
    # the inversion's tol: at N' = 100 a tighter one takes seconds a point
    INVERSION_TOL = {0.0: 1e-9, 1.0: 1e-7, 100.0: 1e-6}

    @pytest.mark.parametrize("nprime", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_direct_inversion(self, invert_ci, invert_cin, l, nprime):
        eps, etas = self.SYSTEMS[l]
        canon = CanonicalSystem(dim=Dimension(l), epsilon=eps, nprime=nprime)
        tol = self.INVERSION_TOL[nprime]
        for eta in etas:
            want = (invert_ci(canon.ratio, eta, tol) if nprime == 0.0
                    else invert_cin(canon, eta, tol))
            assert abs(tail_cin(canon, eta, tol=1e-9) - want) <= 1e-9 + tol, eta

    @pytest.mark.parametrize("nprime", [0.0, 1.0])
    @pytest.mark.parametrize("eta", [0.5, 1 / 3, 0.25],
                             ids=["two_terms", "three_terms", "inversion"])
    def test_continuous_where_terms_or_routes_switch(self, eta, nprime):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=nprime)
        below, above = (tail_cin(canon, eta + d, tol=1e-9) for d in (-1e-12, 1e-12))
        assert abs(below - above) <= 2e-9

    @pytest.mark.parametrize("eta, want", [
        (0.5, 0.0276940967), (0.75, 0.0226346511), (0.99, 0.0197049679)])
    def test_answers_where_inversion_refused(self, eta, want):
        # l = 1, eps = 2, N' = 1e4: values from the Levy CDF of the
        # interference; the inversion's evaluation budget refuses these
        canon = CanonicalSystem(dim=Dimension(1), epsilon=2.0, nprime=1e4)
        assert abs(tail_cin(canon, eta, tol=1e-9) - want) <= 1e-9

    def test_noisy_large_ratio_between_its_bounds(self):
        # the point whose inversion test_noisy_large_ratio_inversion_refused_
        # unevaluated refuses: noise lowers C/I's tail, and eta = 1 bounds it
        canon = CanonicalSystem(dim=Dimension(1), epsilon=200.0, nprime=1.0)
        assert tail_cin(canon, 1.0) <= tail_cin(canon, 0.5) <= tail_ci(200.0, 0.5) + 1e-5

    def test_error_guard_carries_the_value(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=1.0)
        with pytest.raises(InversionError) as info:
            tail_cin(canon, 0.3, tol=1e-18)
        assert info.value.error_estimate > 1e-18
        assert info.value.partial_value == pytest.approx(tail_cin(canon, 0.3), abs=1e-12)


@pytest.fixture(scope="module")
def table():
    return build_lookup_table(2, [3.5, 4.0], [1e-6, 0.1, 1.0], [0.5, 1.0])


class TestLookupTable:

    def test_grid_point_identity(self, table):
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=0.1)
        got = lookup(table, spec, 1.0)
        assert got == table.values[1, 1, 1]

    def test_same_canonical_same_lookup(self, table):
        # two different specs reducing to the same (eps, N') read identically
        s1 = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=0.1)
        s2 = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(4.0, 2.0),), noise=3.2)
        assert canonicalize(s1).nprime == pytest.approx(canonicalize(s2).nprime)
        assert lookup(table, s1, 1.0) == pytest.approx(lookup(table, s2, 1.0),
                                                       rel=1e-12)

    def test_rows_monotone_in_noise(self, table):
        assert np.all(np.diff(table.values, axis=1) <= 1e-9)

    def test_smallest_noise_matches_ci(self, table):
        for k, eta in enumerate(table.etas):
            for i, eps in enumerate(table.epsilons):
                assert abs(table.values[i, 0, k] - tail_ci(eps / 2.0, eta)) < 5e-3

    def test_interpolated_midpoint_close_to_direct(self):
        # quarter-decade noise grid: the spacing the default table uses
        refined = build_lookup_table(
            2, [3.5, 4.0], list(np.logspace(-1.0, 0.0, 5)), [1.0]
        )
        spec = NetworkSpec(dim=D2, epsilon=3.75, tiers=(Tier(1.0, 1.0),),
                           noise=10.0 ** -0.625)
        got = lookup(refined, spec, 1.0)
        direct = tail_cin(canonicalize(spec), 1.0)
        assert got == pytest.approx(direct, abs=1e-2)

    def test_cells_run_in_the_calling_thread(self, table, monkeypatch):
        # every cell is a tail_cin call in this thread, row-major (epsilon,
        # N', eta), with no worker thread started alongside
        calls, before = [], threading.active_count()

        def recording_tail_cin(canon, eta):
            calls.append((canon.epsilon, canon.nprime, eta,
                          threading.current_thread(), threading.active_count()))
            return tail_cin(canon, eta)

        monkeypatch.setattr(analytic, "tail_cin", recording_tail_cin)
        again = build_lookup_table(2, [3.5, 4.0], [1e-6, 0.1, 1.0], [0.5, 1.0])
        here = threading.current_thread()
        assert calls == [(eps, npr, eta, here, before) for eps in table.epsilons
                         for npr in table.nprimes for eta in table.etas]
        assert threading.active_count() == before
        np.testing.assert_array_equal(again.values, table.values)

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "3"])
    def test_stale_thread_variable_changes_nothing(self, value, table, monkeypatch):
        # SCS_THREADS no longer exists: a value left in the environment is
        # neither refused nor obeyed
        monkeypatch.setenv("SCS_THREADS", value)
        before = threading.active_count()
        again = build_lookup_table(2, [3.5, 4.0], [1e-6, 0.1, 1.0], [0.5, 1.0])
        assert threading.active_count() == before
        np.testing.assert_array_equal(again.values, table.values)

    def test_csv_round_trip_exact(self, table, tmp_path):
        path = tmp_path / "table.csv"
        table.to_csv(path)
        back = LookupTable.from_csv(path)
        assert back.l == table.l
        assert back.epsilons == table.epsilons
        assert back.nprimes == table.nprimes
        assert back.etas == table.etas
        np.testing.assert_array_equal(back.values, table.values)

    def test_csv_cell_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("l,epsilon,nprime,eta,tail\n"
                        "2,4.0,0.1,1.0,0.5\n"
                        "2,4.0,0.1,1.0,0.9\n")
        with pytest.raises(ValueError, match="epsilon=4.0, nprime=0.1, eta=1.0 twice"):
            LookupTable.from_csv(path)

    @pytest.mark.parametrize("edit", ["swap", "drop"])
    def test_csv_out_of_grid_order_rejected(self, table, tmp_path, edit):
        # from_csv reads exactly the layout to_csv writes
        path = tmp_path / "table.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        if edit == "swap":
            lines[3], lines[4] = lines[4], lines[3]
        else:
            del lines[3]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 4 lists"):
            LookupTable.from_csv(path)

    @pytest.mark.parametrize("text,match", [
        # a trailing empty line, as a hand edit leaves it
        ("l,epsilon,nprime,eta,tail\n2,4.0,0.1,1.0,0.5\n\n",
         r"bad\.csv line 3: expected 5 comma-separated fields$"),
        ("l,eps,nprime,eta,tail\n2,4.0,0.1,1.0,0.5\n", "unexpected lookup-table header"),
        ("l,epsilon,nprime,eta,tail\n2,4.0,0.1,1.0,0.5\n3,4.0,0.1,1.0,0.5\n",
         r"must have one l, got \[2, 3\]"),
        ("l,epsilon,nprime,eta,tail\n2,4.0,0.1,0.5,0.7\n2,4.0,0.1,1.0,0.5\n"
         "2,4.0,1.0,0.5,0.6\n", "grid is not complete"),
        ("l,epsilon,nprime,eta,tail\n2.0,4.0,0.1,1.0,0.5\n",
         r"bad\.csv line 2: expected an integer l and four numbers, "
         r"got '2\.0,4\.0,0\.1,1\.0,0\.5'$"),
        ("l,epsilon,nprime,eta,tail\n2,4.0,0.1,0.5,0.7\n2,4.0,0.1,1.0,abc\n",
         r"bad\.csv line 3: expected an integer l and four numbers, "
         r"got '2,4\.0,0\.1,1\.0,abc'$"),
        ("l,epsilon,nprime,eta,tail\n", r"bad\.csv: lookup table has no cells$"),
    ], ids=["blank_line", "header", "two_l", "missing_last_row", "float_l", "text_tail",
            "header_only"])
    def test_csv_malformed_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            LookupTable.from_csv(path)

    @pytest.mark.parametrize("l", [-3, 0, 7])
    def test_dimension_outside_one_to_three_rejected(self, tmp_path, l):
        # Dimension's rule, raised as a plain ValueError: a table is not a spec
        grids = ((8.0,), (0.1,), (1.0,))
        rule = f"dimension must be 1, 2 or 3, got {l}$"
        with pytest.raises(ValueError, match=rule) as exc:
            LookupTable(l, *grids, np.full((1, 1, 1), 0.5))
        assert not isinstance(exc.value, SpecError)
        path = tmp_path / "table.csv"
        path.write_text(f"l,epsilon,nprime,eta,tail\n{l},8.0,0.1,1.0,0.5\n")
        with pytest.raises(ValueError, match=f"got {l}$"):
            LookupTable.from_csv(path)
        with pytest.raises(ValueError, match=f"got {l}$") as exc:
            build_lookup_table(l, *grids)
        assert not isinstance(exc.value, SpecError)

    def test_values_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="values shape must match the grids"):
            LookupTable(2, (4.0,), (0.1, 1.0), (1.0,), np.full((2, 1, 1), 0.5))

    def test_eta_must_be_a_grid_value_exactly(self, table):
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=0.1)
        with pytest.raises(LookupRangeError, match="grid value"):
            lookup(table, spec, 1.0 + 1e-13)

    def test_out_of_hull_rejected(self, table):
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=50.0)
        with pytest.raises(LookupRangeError):
            lookup(table, spec, 1.0)
        spec = NetworkSpec(dim=D2, epsilon=4.5, tiers=(Tier(1.0, 1.0),), noise=0.1)
        with pytest.raises(LookupRangeError):
            lookup(table, spec, 1.0)
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=0.1)
        with pytest.raises(LookupRangeError):
            lookup(table, spec, 0.7)

    def test_interior_lookup_is_bilinear_in_epsilon_and_log_nprime(self):
        rng = np.random.default_rng(14)
        eps_g, npr_g = (3.0, 3.4, 4.5, 5.0), (1e-3, 0.02, 0.5, 3.0, 40.0)
        table = LookupTable(2, eps_g, npr_g, (1.0,), rng.uniform(size=(4, 5, 1)))
        v = table.values[:, :, 0]
        for _ in range(100):
            spec = NetworkSpec(dim=D2, epsilon=float(rng.uniform(3.0, 5.0)),
                               tiers=(Tier(1.0, 1.0),),
                               noise=float(10 ** rng.uniform(-3.0, math.log10(40.0))))
            canon = canonicalize(spec)
            i = int(np.searchsorted(eps_g, canon.epsilon)) - 1
            j = int(np.searchsorted(npr_g, canon.nprime)) - 1
            wi = (canon.epsilon - eps_g[i]) / (eps_g[i + 1] - eps_g[i])
            wj = ((math.log(canon.nprime) - math.log(npr_g[j]))
                  / (math.log(npr_g[j + 1]) - math.log(npr_g[j])))
            want = ((1 - wi) * (1 - wj) * v[i, j] + (1 - wi) * wj * v[i, j + 1]
                    + wi * (1 - wj) * v[i + 1, j] + wi * wj * v[i + 1, j + 1])
            assert abs(lookup(table, spec, 1.0) - want) <= 1e-15

    def test_single_epsilon_interpolates_log_nprime(self):
        one_eps = LookupTable(2, (4.0,), (0.01, 1.0), (1.0,), np.array([[[0.8], [0.4]]]))
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=0.1)
        npr = canonicalize(spec).nprime
        w = (math.log(npr) - math.log(0.01)) / (math.log(1.0) - math.log(0.01))
        assert lookup(one_eps, spec, 1.0) == pytest.approx((1 - w) * 0.8 + w * 0.4,
                                                           rel=1e-12)

    def test_single_nprime_interpolates_linear_epsilon(self):
        one_npr = LookupTable(2, (3.0, 5.0), (0.1,), (1.0,), np.array([[[0.9]], [[0.5]]]))
        spec = NetworkSpec(dim=D2, epsilon=3.5, tiers=(Tier(1.0, 1.0),), noise=0.1)
        assert canonicalize(spec).nprime == 0.1
        assert lookup(one_npr, spec, 1.0) == pytest.approx(0.75 * 0.9 + 0.25 * 0.5,
                                                           rel=1e-12)

    def test_dimension_mismatch_rejected(self, table):
        spec = NetworkSpec(dim=Dimension(1), epsilon=2.0,
                           tiers=(Tier(1.0, 1.0),), noise=0.1)
        with pytest.raises(LookupRangeError):
            lookup(table, spec, 1.0)


NOISY = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.1)
PLANAR = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 1.0),), noise=0.1)


@pytest.mark.parametrize("entry", [
    lambda eta: tail_ci(2.0, eta),
    lambda eta: tail_ci_closed(2.0, eta),
    lambda eta: tail_ci2(2.0, eta),
    lambda eta: tail_cin(NOISY, eta),
    lambda eta: tail_cin_closed(NOISY, eta),
    lambda eta: invert_tail(lambda w: charfn_inv_ci(2.0, w), eta, p=0.5),
    lambda eta: empirical_tail_ci(PLANAR, [eta], 100, 0),
    lambda eta: empirical_tail_cin(PLANAR, [eta], 100, 0),
    lambda eta: empirical_tail_fewbs(PLANAR, [eta], 100, 0),
], ids=["tail_ci", "tail_ci_closed", "tail_ci2", "tail_cin", "tail_cin_closed",
        "invert_tail", "empirical_tail_ci", "empirical_tail_cin", "empirical_tail_fewbs"])
def test_nan_threshold_fails_fast(entry):
    with pytest.raises(ValueError, match="eta"):
        entry(math.nan)


def test_negative_threshold_fails_fast_in_mc():
    # unchecked, [-1, inf] would count every realization and then none
    for entry in (empirical_tail_ci, empirical_tail_cin, empirical_tail_fewbs):
        with pytest.raises(ValueError, match="eta must be >= 0"):
            entry(PLANAR, [-1.0, math.inf], 100, 0)


@pytest.mark.parametrize("entry, name", [
    (lambda: tail_ci(math.nan, 2.0), "ratio"),
    (lambda: tail_ci(math.nan, 0.5), "ratio"),
    (lambda: tail_ci_closed(math.nan, 2.0), "ratio"),
    (lambda: tail_ci2(math.nan, 2.0), "ratio"),
    (lambda: tail_ci2(0.5, 0.0), "ratio"),
    (lambda: charfn_inv_ci(math.nan, 1.0), "ratio"),
    (lambda: g_integral(0.0, math.nan), "ratio"),
    (lambda: tail_ci(math.inf, 2.0), "ratio"),
    (lambda: tail_ci(math.inf, 0.5), "ratio"),
    (lambda: tail_ci_closed(math.inf, 2.0), "ratio"),
    (lambda: tail_ci2(math.inf, 2.0), "ratio"),
    (lambda: charfn_inv_ci(math.inf, 1.0), "ratio"),
    (lambda: g_integral(0.0, math.inf), "ratio"),
], ids=["tail_ci", "tail_ci_below_one", "tail_ci_closed", "tail_ci2",
        "tail_ci2_eta_zero", "charfn_inv_ci", "g_integral", "tail_ci_inf",
        "tail_ci_below_one_inf", "tail_ci_closed_inf", "tail_ci2_inf",
        "charfn_inv_ci_inf", "g_integral_inf"])
def test_nan_ratio_or_radius_fails_fast(entry, name):
    with pytest.raises(ValueError, match=name):
        entry()


@pytest.mark.parametrize("tol", [math.nan, 0.0])
@pytest.mark.parametrize("entry", [
    lambda tol: tail_ci(2.0, 0.5, tol=tol),
    lambda tol: tail_ci(2.0, 2.0, tol=tol),
    lambda tol: tail_cin(NOISY, 0.5, tol=tol),
    lambda tol: tail_cin(NOISY, 2.0, tol=tol),
    lambda tol: tail_cin_closed(NOISY, 2.0, tol=tol),
    lambda tol: invert_tail(lambda w: charfn_inv_ci(2.0, w), 0.5, p=0.5, tol=tol),
    lambda tol: tail_ci(2.0, 0.0, tol=tol),
    lambda tol: tail_cin(NOISY, 0.0, tol=tol),
], ids=["tail_ci", "tail_ci_above_one", "tail_cin", "tail_cin_above_one",
        "tail_cin_closed", "invert_tail", "tail_ci_eta_zero", "tail_cin_eta_zero"])
def test_bad_tol_fails_fast(entry, tol):
    with pytest.raises(ValueError, match="tol"):
        entry(tol)


@pytest.mark.parametrize("entry, name", [
    (lambda: LookupTable(2, (3.0, math.nan), (0.1,), (0.5,), np.full((2, 1, 1), 0.5)),
     "epsilons"),
    (lambda: LookupTable(2, (3.0,), (math.nan,), (0.5,), np.full((1, 1, 1), 0.5)),
     "nprimes"),
    (lambda: LookupTable(2, (3.0,), (0.1,), (math.nan,), np.full((1, 1, 1), 0.5)),
     "etas"),
    (lambda: LookupTable(2, (3.0,), (0.1,), (0.5,), np.full((1, 1, 1), math.nan)),
     "values"),
    (lambda: build_lookup_table(2, [3.0], [math.nan], [0.5]), "nprime"),
    (lambda: canonicalize(NetworkSpec(D2, math.nan, (Tier(1.0, 1.0),) * 2, noise=0.1)),
     "epsilon"),
    (lambda: canonicalize(NetworkSpec(D2, 4.0, (Tier(1.0, 1.0),) * 2, noise=math.nan)),
     "noise"),
], ids=["table_epsilon", "table_nprime", "table_eta", "table_value", "build_nprime",
        "added_tiers_epsilon", "added_tiers_noise"])
def test_nan_grid_or_noise_fails_fast(entry, name):
    with pytest.raises(ValueError, match=name):
        entry()


GOOD_GRIDS = {"epsilons": (3.0, 4.0), "nprimes": (0.1, 1.0), "etas": (0.5, 1.0)}


@pytest.mark.parametrize("fault", ["repeated", "unsorted", "nan", "inf"])
@pytest.mark.parametrize("name", list(GOOD_GRIDS))
def test_malformed_grid_fails_before_any_cell(name, fault, monkeypatch):
    lo, hi = GOOD_GRIDS[name]
    bad = {"repeated": (lo, lo), "unsorted": (hi, lo),
           "nan": (lo, math.nan), "inf": (lo, math.inf)}[fault]
    grids = {**GOOD_GRIDS, name: bad}
    with pytest.raises(ValueError, match=name):
        LookupTable(2, *grids.values(), np.full((2, 2, 2), 0.5))
    calls = []
    monkeypatch.setattr(analytic, "tail_cin",
                        lambda *args, **kwargs: calls.append(args) or 0.5)
    with pytest.raises(ValueError, match=name):
        build_lookup_table(2, *grids.values())
    assert calls == []
