import math

import numpy as np
import pytest

from scsnet import (
    CanonicalSystem,
    DegenerateNetworkError,
    Dimension,
    LogNormalFading,
    MomentFading,
    NetworkSpec,
    Sector,
    SpecError,
    Tier,
    canonicalize,
    heard_tiers,
    reduce_network,
    sigma_db_to_natural,
    spec_from_json,
)


def spec_of(tiers, l=2, eps=4.0, fading=LogNormalFading(0.0), noise=0.0):
    return NetworkSpec(dim=Dimension(l), epsilon=eps, tiers=tuple(tiers),
                       fading=fading, noise=noise)


class TestDimension:
    def test_surface_constants(self):
        assert Dimension(1).b == 2.0
        assert Dimension(2).b == 2.0 * math.pi
        assert Dimension(3).b == 4.0 * math.pi

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(SpecError):
            Dimension(bad)


class TestValidation:
    def test_epsilon_must_exceed_dimension(self):
        with pytest.raises(SpecError, match="exceed"):
            spec_of([Tier(1.0, 1.0)], l=2, eps=2.0)
        with pytest.raises(SpecError, match="exceed"):
            spec_of([Tier(1.0, 1.0)], l=3, eps=2.5)

    def test_tier_fields(self):
        with pytest.raises(SpecError):
            Tier(density=0.0, power=1.0)
        with pytest.raises(SpecError):
            Tier(density=1.0, power=-1.0)
        with pytest.raises(SpecError):
            Sector(gain=1.0, beamwidth=2.0 * math.pi + 1e-9)
        with pytest.raises(SpecError):
            Sector(gain=1.0, beamwidth=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tier_density_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="density"):
            Tier(density=bad, power=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tier_power_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="power"):
            Tier(density=1.0, power=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sector_gain_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="gain"):
            Sector(gain=bad, beamwidth=math.pi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fading_sigma_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="sigma"):
            LogNormalFading(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spec_epsilon_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="epsilon"):
            spec_of([Tier(1.0, 1.0)], eps=bad)

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("eps", ["l", "l-0.5", "inf", "nan"])
    def test_spec_and_canonical_refuse_epsilon_alike(self, l, eps):
        # one rule, owned by Dimension: finite and > l, one message
        eps = {"l": l, "l-0.5": l - 0.5, "inf": math.inf, "nan": math.nan}[eps]
        with pytest.raises(SpecError) as spec_err:
            spec_of([Tier(1.0, 1.0)], l=l, eps=eps)
        with pytest.raises(SpecError) as canon_err:
            CanonicalSystem(dim=Dimension(l), epsilon=eps, nprime=0.0)
        assert str(spec_err.value) == str(canon_err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spec_noise_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="noise"):
            spec_of([Tier(1.0, 1.0)], noise=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_canonical_epsilon_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="epsilon"):
            CanonicalSystem(dim=Dimension(2), epsilon=bad, nprime=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_canonical_nprime_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="nprime"):
            CanonicalSystem(dim=Dimension(2), epsilon=4.0, nprime=bad)

    def test_tiers_nonempty(self):
        with pytest.raises(SpecError):
            NetworkSpec(dim=Dimension(2), epsilon=4.0, tiers=())


class TestSuperpose:
    # l = 2, eps = 4 throughout unless set: power moments are taken at a = 1/2
    def test_single_tier_is_itself(self):
        spec = spec_of([Tier(1.0, 5.0)])
        assert heard_tiers(spec) == [(1.0, 5.0)]
        assert reduce_network(spec).power_moment == pytest.approx(5.0**0.5, rel=1e-14)

    def test_equal_powers_merge(self):
        spec = spec_of([Tier(1.0, 1.0), Tier(3.0, 1.0)])
        assert spec.total_density == 4.0
        assert reduce_network(spec).power_moment == 1.0

    def test_two_tier_mixing(self):
        spec = spec_of([Tier(1.0, 10.0), Tier(3.0, 1.0)])
        assert spec.total_density == 4.0
        assert heard_tiers(spec) == [(1.0, 10.0), (3.0, 1.0)]
        assert reduce_network(spec).power_moment == pytest.approx(
            (10.0**0.5 + 3.0) / 4.0, rel=1e-14)

    def test_density_sums_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dens = rng.uniform(0.1, 5.0, size=rng.integers(1, 6))
            tiers = [Tier(d, 1.0 + i) for i, d in enumerate(dens)]
            spec = spec_of(tiers)
            total = spec.total_density
            assert total == sum(t.density for t in tiers)
            assert heard_tiers(spec) == [(t.density, t.power) for t in tiers]
            # each tier weighs in by its share of the density
            want = sum(t.density / total * math.sqrt(t.power) for t in tiers)
            assert reduce_network(spec).power_moment == pytest.approx(want, rel=1e-14)


class TestSectoring:
    def test_omnidirectional_is_identity(self):
        tiers = [Tier(1.0, 2.0), Tier(1.0, 1.0)]
        full_beam = [Tier(t.density, t.power, Sector(gain=t.power, beamwidth=2 * math.pi))
                     for t in tiers]
        assert heard_tiers(spec_of(full_beam)) == heard_tiers(spec_of(tiers))
        assert reduce_network(spec_of(full_beam)) == reduce_network(spec_of(tiers))

    def test_half_beam_single_atom(self):
        spec = spec_of([Tier(1.0, 1.0, Sector(gain=1.0, beamwidth=math.pi))])
        assert heard_tiers(spec) == [(0.5, 1.0)]
        assert reduce_network(spec).power_moment == 0.5

    def test_mixed_sectored_unsectored(self):
        spec = spec_of([Tier(1.0, 2.0, Sector(gain=4.0, beamwidth=math.pi)),
                        Tier(1.0, 1.0)])
        assert heard_tiers(spec) == [(0.5, 4.0), (1.0, 1.0)]
        # (0.5 * 4^(1/2) + 1 * 1^(1/2)) / 2
        assert reduce_network(spec).power_moment == 1.0

    def test_mass_preserved_and_moment_never_grows(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.integers(1, 5)
            dens = rng.uniform(0.1, 5.0, m)
            powers = rng.uniform(0.1, 10.0, m)
            plain, sectored = [], []
            for d, k in zip(dens.tolist(), powers.tolist()):
                plain.append(Tier(d, k))
                if rng.random() < 0.5:
                    sectored.append(Tier(d, k))
                else:
                    # gain conserves mean power over the beam
                    theta = rng.uniform(0.2, 2 * math.pi)
                    sectored.append(Tier(d, k, Sector(gain=k * 2 * math.pi / theta,
                                                      beamwidth=theta)))
            heard = heard_tiers(spec_of(sectored))
            assert sum(lam * p for lam, p in heard) == pytest.approx(
                float(dens @ powers), rel=1e-12)
            eps = 2.0 / rng.uniform(0.05, 0.95)
            # with E[K] held fixed, concentrating power cannot raise E[K^a]
            out = reduce_network(spec_of(sectored, eps=eps)).power_moment
            assert out <= reduce_network(spec_of(plain, eps=eps)).power_moment + 1e-12


class TestMoments:
    def test_unit_power(self):
        spec = spec_of([Tier(1.0, 1.0)], eps=2.0 / 0.3)
        assert reduce_network(spec).power_moment == 1.0

    def test_sqrt_of_sixteen(self):
        assert reduce_network(spec_of([Tier(1.0, 16.0)])).power_moment == 4.0

    def test_zero_power_tier_contributes_nothing(self):
        spec = spec_of([Tier(1.0, 1.0), Tier(1.0, 0.0)])
        assert heard_tiers(spec) == [(1.0, 1.0)]
        assert reduce_network(spec).power_moment == 0.5

    def test_fading_moment_values(self):
        assert LogNormalFading(0.0).moment(0.5) == 1.0
        # l=2, eps=4 -> a=1/2; matches exp(2 sigma^2 / eps^2) at sigma=2
        assert LogNormalFading(2.0).moment(0.5) == pytest.approx(
            math.exp(0.5), rel=1e-14
        )
        assert MomentFading(1.3).moment(0.7) == 1.3

    def test_fading_moment_past_float_range_is_inf(self):
        # e^800 and e^(0.5 (0.5 * 230)^2); the reduction refuses lambda_eff = inf
        assert LogNormalFading(20.0).moment(2.0) == math.inf
        sigma = sigma_db_to_natural(1000.0)
        assert LogNormalFading(sigma).moment(0.5) == math.inf
        with pytest.raises(DegenerateNetworkError, match="lambda_eff=inf"):
            reduce_network(spec_of([Tier(1.0, 1.0)], fading=LogNormalFading(sigma)))

    def test_fading_moment_monotone(self):
        sigmas = [0.0, 0.5, 1.0, 2.0, 4.0]
        for a in (0.2, 0.5, 0.8):
            vals = [LogNormalFading(s).moment(a) for s in sigmas]
            assert vals == sorted(vals)
            assert vals[0] == 1.0
        ayes = [0.1, 0.3, 0.6, 0.9]
        vals = [LogNormalFading(1.5).moment(a) for a in ayes]
        assert vals == sorted(vals)


class TestCanonicalize:
    def test_already_canonical(self):
        canon = canonicalize(spec_of([Tier(1.0, 1.0)], noise=0.37))
        assert canon.nprime == pytest.approx(0.37, rel=1e-14)
        assert canon.a == 0.5

    def test_density_and_power_scaling(self):
        # lambda0=4, K=2, N=1, l=2, eps=4: N' = 1 / (4^2 * 2)
        canon = canonicalize(spec_of([Tier(4.0, 2.0)], noise=1.0))
        assert canon.nprime == pytest.approx(0.03125, rel=1e-13)

    def test_lognormal_reduction(self):
        # sigma=2, a=1/2: lambda_eff = e^{1/2}, N' = e^{-1}
        canon = canonicalize(
            spec_of([Tier(1.0, 1.0)], fading=LogNormalFading(2.0), noise=1.0)
        )
        assert canon.nprime == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = spec_of(
                [Tier(rng.uniform(0.1, 5), rng.uniform(0.1, 20))
                 for _ in range(rng.integers(1, 4))],
                eps=rng.uniform(2.5, 6.0),
                fading=LogNormalFading(rng.uniform(0, 2)),
                noise=rng.uniform(0, 2),
            )
            canon = canonicalize(spec)
            # the unit-density, unit-power network it stands for
            again = canonicalize(spec_of([Tier(1.0, 1.0)], l=canon.dim.l,
                                         eps=canon.epsilon, noise=canon.nprime))
            assert again.nprime == pytest.approx(canon.nprime, abs=1e-12, rel=1e-12)

    def test_density_scaling_law(self):
        # lambda0 -> c lambda0 multiplies N' by c^(-eps/l) exactly
        base = canonicalize(spec_of([Tier(1.0, 3.0)], noise=1.0, eps=4.0))
        for c in (0.5, 2.0, 10.0):
            scaled = canonicalize(spec_of([Tier(c, 3.0)], noise=1.0, eps=4.0))
            assert scaled.nprime == pytest.approx(
                base.nprime * c ** (-2.0), rel=1e-12
            )

    def test_all_mass_at_zero_power_rejected(self):
        with pytest.raises(DegenerateNetworkError):
            canonicalize(spec_of([Tier(1.0, 0.0)], noise=1.0))

    def test_equal_power_tiers_with_different_sectors(self):
        # equal-power tiers whose antennas differ keep their own facing shares
        spec = spec_of([
            Tier(1.0, 2.0, Sector(gain=4.0, beamwidth=math.pi)),
            Tier(1.0, 2.0),
        ])
        assert heard_tiers(spec) == [(0.5, 4.0), (1.0, 2.0)]
        expected = (0.5 * 4.0**0.5 + 2.0**0.5) / 2.0
        assert reduce_network(spec).power_moment == pytest.approx(expected, rel=1e-14)


def noise_before_and_after(base, added, l=2, eps=4.0, noise=1.0):
    """N' of the base tier alone and of the base tier with the added tiers."""
    return tuple(canonicalize(spec_of(tiers, l=l, eps=eps, noise=noise)).nprime
                 for tiers in ([base], [base, *added]))


class TestNoiseAfterAddingTiers:
    def test_no_added_tiers(self):
        base = Tier(2.0, 4.0)
        n1, n2 = noise_before_and_after(base, [])
        assert n1 == pytest.approx(1.0 * 2.0 ** (-2.0) / 4.0)
        assert n2 == n1

    def test_one_equal_tier_quarters_noise(self):
        base = Tier(1.0, 1.0)
        n1, n2 = noise_before_and_after(base, [Tier(1.0, 1.0)])
        assert n2 == pytest.approx(n1 / 4.0, rel=1e-13)

    def test_two_equal_tiers_ninth(self):
        base = Tier(1.0, 1.0)
        n1, n2 = noise_before_and_after(base, [Tier(1.0, 1.0), Tier(1.0, 1.0)])
        assert n2 == pytest.approx(n1 / 9.0, rel=1e-13)

    def test_strict_improvement(self):
        rng = np.random.default_rng(11)
        base = Tier(1.0, 10.0)
        for _ in range(25):
            added = [Tier(rng.uniform(0.01, 20), rng.uniform(0.001, 5))
                     for _ in range(rng.integers(1, 5))]
            l = int(rng.integers(1, 4))
            eps = l + rng.uniform(0.5, 4.0)
            n1, n2 = noise_before_and_after(base, added, l=l, eps=eps)
            assert n2 < n1

    def test_sectored_overlay_heard_at_gain_by_facing_share(self):
        # base: 1/3 of its stations heard at gain 3, lambda' P^(1/2) = 3^(-1/2);
        # overlay: 2 * 1/4 heard at gain 4, adding 0.5 * 4^(1/2) = 1
        base = Tier(1.0, 1.0, Sector(gain=3.0, beamwidth=2 * math.pi / 3))
        added = [Tier(2.0, 0.5, Sector(gain=4.0, beamwidth=math.pi / 2))]
        n1, n2 = noise_before_and_after(base, added)
        assert n1 == pytest.approx(3.0, rel=1e-13)
        assert n2 == pytest.approx((3.0**-0.5 + 1.0) ** -2.0, rel=1e-13)


GOOD_DOC = {"dimension": 2, "epsilon": 4.0, "tiers": [{"density": 1, "power": 1}]}


class TestJson:
    def test_round_trip_document(self):
        doc = {
            "dimension": 2, "epsilon": 4.0, "noise": 1e-9,
            "fading": {"type": "lognormal", "sigma_db": 8.0},
            "tiers": [
                {"density": 1.0, "power": 10.0,
                 "sector": {"gain": 20.0, "beamwidth_deg": 120.0}},
                {"density": 5.0, "power": 0.1},
            ],
        }
        spec = spec_from_json(doc)
        assert spec.dim.l == 2
        assert spec.noise == 1e-9
        assert spec.fading == LogNormalFading(sigma_db_to_natural(8.0))
        assert spec.tiers[0].sector.beamwidth == pytest.approx(2 * math.pi / 3)
        assert spec.tiers[1].sector is None

    def test_sigma_db_conversion_factor(self):
        assert sigma_db_to_natural(10.0) == pytest.approx(math.log(10.0), rel=1e-14)

    @pytest.mark.parametrize("doc,needle", [
        ({"epsilon": 4.0, "tiers": [{"density": 1, "power": 1}]}, "dimension"),
        ({"dimension": 2, "tiers": [{"density": 1, "power": 1}]}, "epsilon"),
        ({"dimension": 2, "epsilon": 4.0}, "tiers"),
        ({"dimension": 2, "epsilon": 4.0, "tiers": [{"power": 1}]}, "density"),
        ({"dimension": 2, "epsilon": 4.0, "tiers": [{"density": 1}]}, "power"),
        ({"dimension": 2, "epsilon": 4.0, "tiers": [{"density": 1, "power": 1}],
          "fading": {"type": "weird"}}, "fading"),
        ({**GOOD_DOC, "dimension": 2.5}, "dimension"),
        ({**GOOD_DOC, "dimension": True}, "dimension"),
        ({**GOOD_DOC, "dimension": "2"}, "dimension"),
        ({**GOOD_DOC, "epsilon": None}, "epsilon"),
        ({**GOOD_DOC, "noise": None}, "noise"),
        ({**GOOD_DOC, "tiers": [1]}, r"tiers\[0\]"),
        ({**GOOD_DOC, "tiers": "ab"}, "tiers"),
        ({**GOOD_DOC, "tiers": [{"density": "x", "power": 1}]}, r"tiers\[0\]\.density"),
        ({**GOOD_DOC, "tiers": [{"density": 1, "power": 1, "sector": 5}]}, "sector"),
        ({**GOOD_DOC, "tiers": [{"density": 1, "power": 1, "sector": {"gain": 2}}]},
         "beamwidth_deg"),
        ({**GOOD_DOC, "fading": "lognormal"}, "fading"),
        ({**GOOD_DOC, "fading": {"type": "lognormal", "sigma": 0.5}}, "sigma_db"),
        ({**GOOD_DOC, "fading": {"type": "moment"}}, "value"),
        ([GOOD_DOC], "spec"),
    ])
    def test_errors_name_the_field(self, doc, needle):
        with pytest.raises(SpecError, match=needle):
            spec_from_json(doc)

    def test_whole_float_dimension_is_an_int(self):
        l = spec_from_json({**GOOD_DOC, "dimension": 3.0}).dim.l
        assert l == 3 and type(l) is int

    def test_no_fading_has_one_spelling(self):
        # an absent fading key, "none" and 0 dB log-normal are one law
        specs = [spec_from_json(doc) for doc in (
            GOOD_DOC,
            {**GOOD_DOC, "fading": {"type": "none"}},
            {**GOOD_DOC, "fading": {"type": "lognormal", "sigma_db": 0}},
        )]
        assert specs[0] == specs[1] == specs[2]
        assert specs[0].fading == LogNormalFading(0.0)
        assert specs[0] == spec_of([Tier(1.0, 1.0)])

    def test_moment_fading(self):
        spec = spec_from_json({
            "dimension": 2, "epsilon": 4.0,
            "fading": {"type": "moment", "value": 1.3},
            "tiers": [{"density": 1, "power": 1}],
        })
        assert reduce_network(spec).fading_moment == 1.3
