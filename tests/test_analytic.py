import math

import numpy as np
import pytest

from scsnet import (
    CanonicalSystem,
    Dimension,
    InversionError,
    LookupRangeError,
    LookupTable,
    NetworkSpec,
    TailCurve,
    Tier,
    build_lookup_table,
    canonicalize,
    charfn_interference_given_r1,
    charfn_inv_ci,
    charfn_inv_cin,
    conditional_tail_mean,
    lookup,
    tail_ci,
    tail_ci2,
    tail_ci_closed,
    tail_cin,
    tail_cin_closed,
)
from scsnet.montecarlo import substream

D2 = Dimension(2)


def interference_beyond(rng, rows, r_inner, r_outer, eps=4.0, lam=1.0, chunk=10_000):
    """Total interference from a planar unit field on [r_inner, r_outer].

    Conditioned on a station at r_inner, the stations beyond it form a fresh
    Poisson field, so sampling the annulus gives the conditional law; the
    mean field beyond r_outer is added as its (tiny) deterministic limit.
    Accumulates in row chunks to keep memory flat.
    """
    b = D2.b
    t_lo = lam * b * r_inner**2 / 2
    t_hi = lam * b * r_outer**2 / 2
    mu = t_hi - t_lo
    cols = int(mu + 8 * math.sqrt(mu) + 16)
    comp = lam * b * r_outer ** (2.0 - eps) / (eps - 2.0)
    out = np.empty(rows)
    done = 0
    while done < rows:
        m = min(chunk, rows - done)
        t = t_lo + rng.exponential(size=(m, cols)).cumsum(axis=1)
        while t[:, -1].min() < t_hi:
            t = np.hstack(
                [t, t[:, -1:] + rng.exponential(size=(m, 32)).cumsum(axis=1)]
            )
        radii = (2.0 * t / (lam * b)) ** 0.5
        out[done:done + m] = (
            np.where(t < t_hi, radii**-eps, 0.0).sum(axis=1) + comp
        )
        done += m
    return out


class TestCharfnInterference:
    def test_value_at_zero(self):
        assert charfn_interference_given_r1(D2, 4.0, 1.0, 1.0, 0.0, 1.0) == 1.0 + 0.0j

    def test_conjugate_symmetry_and_modulus(self):
        w = np.array([0.5, 1.0, 3.0, 10.0])
        plus = charfn_interference_given_r1(D2, 4.0, 1.0, 1.0, w, 1.0)
        minus = charfn_interference_given_r1(D2, 4.0, 1.0, 1.0, -w, 1.0)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=0, atol=0)
        assert np.all(np.abs(plus) <= 1.0 + 1e-12)

    def test_against_empirical_charfn(self):
        # interference conditioned on nearest distance 1: stations beyond 1
        rng = substream(101, 0)
        p_i = interference_beyond(rng, 100_000, 1.0, 15.0)
        for omega in (0.7, 1.0):
            z = np.exp(1j * omega * p_i)
            emp = z.mean()
            se = math.hypot(z.real.std(), z.imag.std()) / math.sqrt(len(z))
            model = charfn_interference_given_r1(D2, 4.0, 1.0, 1.0, omega, 1.0)
            assert abs(emp - model) < 3.0 * se, f"omega={omega}"

    def test_domain(self):
        with pytest.raises(ValueError):
            charfn_interference_given_r1(D2, 4.0, 1.0, 1.0, 1.0, 0.0)


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
        # (C/I)^-1 in arrival-time space: (sum_i>1 T_i^(-rho) + tail mean) / T1^(-rho)
        rng = substream(55, 0)
        x = np.empty(200_000)
        done = 0
        while done < len(x):
            m = min(10_000, len(x) - done)
            t = rng.exponential(size=(m, 2000)).cumsum(axis=1)
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
        # eps/l = 8 defeats the inversion's tail bound; the closed form answers
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


class TestConditionalTailMean:
    def test_planar_unit_case_is_pi(self):
        assert conditional_tail_mean(1.0, 1.0, D2, 4.0, 1.0) == pytest.approx(math.pi)

    def test_linear_in_power(self):
        one = conditional_tail_mean(1.0, 1.0, D2, 4.0, 2.0)
        two = conditional_tail_mean(1.0, 2.0, D2, 4.0, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_against_conditioned_simulation(self):
        rng = substream(77, 0)
        s = interference_beyond(rng, 100_000, 1.0, 12.0)
        se = s.std() / math.sqrt(len(s))
        assert abs(s.mean() - math.pi) < 3.0 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            conditional_tail_mean(1.0, 1.0, D2, 4.0, 0.0)


class TestTailCin:
    def test_zero_noise_reduces_to_ci(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.0)
        for eta in (0.5, 1.0, 2.0):
            assert tail_cin(canon, eta) == tail_ci(2.0, eta, tol=1e-5)

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

    def test_charfn_against_real_axis_quadrature(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.1)
        from scsnet.numerics import kummer_1f1_neg_a

        for omega in (0.5, 2.0, 20.0):
            f = kummer_1f1_neg_a(0.5, omega)
            t = np.linspace(1e-10, 60.0, 400_000)
            direct = np.trapezoid(
                np.exp(-t * f + 1j * omega * 0.1 * (t / math.pi) ** 2), t
            )
            got = charfn_inv_cin(canon, omega)
            assert abs(got - direct) < 1e-6

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
            assert abs(tail_cin_closed(canon, eta) - invert_cin(canon, eta)) <= 1e-7

    def test_tail_cin_takes_it_above_one(self):
        canon = CanonicalSystem(dim=D2, epsilon=4.0, nprime=0.3)
        assert tail_cin(canon, 2.0) == tail_cin_closed(canon, 2.0)

    def test_noiseless_is_sinc_law(self):
        canon = CanonicalSystem(dim=Dimension(3), epsilon=7.5, nprime=0.0)
        for eta in (1.0, 3.0):
            assert tail_cin_closed(canon, eta) == pytest.approx(
                tail_ci_closed(2.5, eta), rel=1e-12
            )

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

    def test_thread_count_does_not_change_values(self, table, monkeypatch):
        monkeypatch.setenv("SCS_THREADS", "3")
        threaded = build_lookup_table(2, [3.5, 4.0], [1e-6, 0.1, 1.0], [0.5, 1.0])
        np.testing.assert_array_equal(threaded.values, table.values)

    def test_csv_round_trip_exact(self, table, tmp_path):
        path = tmp_path / "table.csv"
        table.to_csv(path)
        back = LookupTable.from_csv(path)
        assert back.l == table.l
        assert back.epsilons == table.epsilons
        assert back.nprimes == table.nprimes
        assert back.etas == table.etas
        np.testing.assert_array_equal(back.values, table.values)

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

    def test_dimension_mismatch_rejected(self, table):
        spec = NetworkSpec(dim=Dimension(1), epsilon=2.0,
                           tiers=(Tier(1.0, 1.0),), noise=0.1)
        with pytest.raises(LookupRangeError):
            lookup(table, spec, 1.0)


class TestTailCurve:
    def test_accepts_nonincreasing(self):
        TailCurve(etas=(0.5, 1.0, 2.0), probs=(0.8, 0.6, 0.4),
                  method="exact-inversion")

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            TailCurve(etas=(0.5, 1.0), probs=(0.4, 0.6), method="exact-inversion")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TailCurve(etas=(1.0,), probs=(1.5,), method="exact-inversion")
