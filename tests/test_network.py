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
    NoFading,
    PowerPmf,
    Sector,
    SpecError,
    Tier,
    apply_sectoring,
    as_network_spec,
    canonicalize,
    fading_moment,
    noise_after_adding_tiers,
    power_moment,
    sigma_db_to_natural,
    spec_from_json,
    superpose_tiers,
)


def spec_of(tiers, l=2, eps=4.0, fading=NoFading(), noise=0.0):
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
    def test_spec_epsilon_must_be_finite(self, bad):
        with pytest.raises(SpecError, match="epsilon"):
            spec_of([Tier(1.0, 1.0)], eps=bad)

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

    def test_pmf_invariants(self):
        with pytest.raises(SpecError):
            PowerPmf(powers=(1.0, 1.0), probs=(0.5, 0.5))
        with pytest.raises(SpecError):
            PowerPmf(powers=(1.0, 2.0), probs=(0.5, 0.6))
        pmf = PowerPmf.from_atoms([(1.0, 0.25), (1.0, 0.75)])
        assert pmf.atoms == [(1.0, 1.0)]


class TestSuperpose:
    def test_single_tier_is_itself(self):
        total, pmf = superpose_tiers(spec_of([Tier(1.0, 5.0)]))
        assert total == 1.0
        assert pmf.atoms == [(5.0, 1.0)]

    def test_equal_powers_merge(self):
        total, pmf = superpose_tiers(spec_of([Tier(1.0, 1.0), Tier(3.0, 1.0)]))
        assert total == 4.0
        assert pmf.atoms == [(1.0, 1.0)]

    def test_two_tier_mixing(self):
        total, pmf = superpose_tiers(spec_of([Tier(1.0, 10.0), Tier(3.0, 1.0)]))
        assert total == 4.0
        assert pmf.atoms == [(10.0, 0.25), (1.0, 0.75)]

    def test_density_sums_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dens = rng.uniform(0.1, 5.0, size=rng.integers(1, 6))
            tiers = [Tier(d, 1.0 + i) for i, d in enumerate(dens)]
            total, pmf = superpose_tiers(spec_of(tiers))
            assert total == sum(t.density for t in tiers)
            # probabilities proportional to densities
            for t in tiers:
                j = pmf.powers.index(t.power)
                assert pmf.probs[j] == pytest.approx(t.density / total, rel=1e-14)


class TestSectoring:
    def test_omnidirectional_is_identity(self):
        pmf = PowerPmf.from_atoms([(2.0, 0.5), (1.0, 0.5)])
        out = apply_sectoring(
            pmf, [Sector(gain=k, beamwidth=2 * math.pi) for k, _ in pmf.atoms]
        )
        assert out == pmf

    def test_half_beam_single_atom(self):
        pmf = PowerPmf.from_atoms([(1.0, 1.0)])
        out = apply_sectoring(pmf, [Sector(gain=1.0, beamwidth=math.pi)])
        assert out.atoms == [(1.0, 0.5), (0.0, 0.5)]

    def test_mixed_sectored_unsectored(self):
        pmf = PowerPmf.from_atoms([(2.0, 0.5), (1.0, 0.5)])
        out = apply_sectoring(pmf, [Sector(gain=4.0, beamwidth=math.pi), None])
        assert out.atoms == [(4.0, 0.25), (1.0, 0.5), (0.0, 0.25)]

    def test_mass_preserved_and_moment_never_grows(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.integers(1, 5)
            probs = rng.dirichlet(np.ones(m))
            powers = rng.uniform(0.1, 10.0, m)
            pmf = PowerPmf.from_atoms(zip(powers.tolist(), probs.tolist()))
            sectors = []
            for k, _ in pmf.atoms:
                if rng.random() < 0.5:
                    sectors.append(None)
                else:
                    # gain conserves mean power over the beam
                    theta = rng.uniform(0.2, 2 * math.pi)
                    sectors.append(Sector(gain=k * 2 * math.pi / theta,
                                          beamwidth=theta))
            out = apply_sectoring(pmf, sectors)
            assert sum(out.probs) == pytest.approx(1.0, abs=1e-12)
            a = rng.uniform(0.05, 0.95)
            # with E[K] held fixed, concentrating power cannot raise E[K^a]
            assert out.moment(a) <= pmf.moment(a) + 1e-12


class TestMoments:
    def test_unit_power(self):
        assert power_moment(PowerPmf.from_atoms([(1.0, 1.0)]), 0.3) == 1.0

    def test_sqrt_of_sixteen(self):
        assert power_moment(PowerPmf.from_atoms([(16.0, 1.0)]), 0.5) == pytest.approx(4.0)

    def test_zero_atom_contributes_nothing(self):
        pmf = PowerPmf.from_atoms([(1.0, 0.5), (0.0, 0.5)])
        assert power_moment(pmf, 0.5) == pytest.approx(0.5)

    def test_fading_moment_values(self):
        assert fading_moment(LogNormalFading(0.0), 0.5) == 1.0
        # l=2, eps=4 -> a=1/2; matches exp(2 sigma^2 / eps^2) at sigma=2
        assert fading_moment(LogNormalFading(2.0), 0.5) == pytest.approx(
            math.exp(0.5), rel=1e-14
        )
        assert fading_moment(MomentFading(1.3), 0.7) == 1.3

    def test_fading_moment_monotone(self):
        sigmas = [0.0, 0.5, 1.0, 2.0, 4.0]
        for a in (0.2, 0.5, 0.8):
            vals = [fading_moment(LogNormalFading(s), a) for s in sigmas]
            assert vals == sorted(vals)
            assert vals[0] == 1.0
        ayes = [0.1, 0.3, 0.6, 0.9]
        vals = [fading_moment(LogNormalFading(1.5), a) for a in ayes]
        assert vals == sorted(vals)

    def test_moment_domain(self):
        with pytest.raises(ValueError):
            power_moment(PowerPmf.from_atoms([(1.0, 1.0)]), 1.0)
        with pytest.raises(ValueError):
            fading_moment(NoFading(), 0.0)


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
            again = canonicalize(as_network_spec(canon))
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
        # merging must not conflate tiers whose antennas differ
        from scsnet.network import _sectored_pmf

        spec = spec_of([
            Tier(1.0, 2.0, Sector(gain=4.0, beamwidth=math.pi)),
            Tier(1.0, 2.0),
        ])
        pmf = _sectored_pmf(spec)
        assert pmf.atoms == [(4.0, 0.25), (2.0, 0.5), (0.0, 0.25)]
        # E[K^a] at a=1/2: 0.25*2 + 0.5*sqrt(2)
        expected = 0.25 * 2.0 + 0.5 * math.sqrt(2.0)
        assert pmf.moment(0.5) == pytest.approx(expected, rel=1e-14)
        canonicalize(spec)  # reduction accepts the mixed arrangement


class TestNoiseAfterAddingTiers:
    def test_no_added_tiers(self):
        base = Tier(2.0, 4.0)
        n1, n2 = noise_after_adding_tiers(base, [], Dimension(2), 4.0, 1.0)
        assert n1 == pytest.approx(1.0 * 2.0 ** (-2.0) / 4.0)
        assert n2 == n1

    def test_one_equal_tier_quarters_noise(self):
        base = Tier(1.0, 1.0)
        n1, n2 = noise_after_adding_tiers(base, [Tier(1.0, 1.0)],
                                          Dimension(2), 4.0, 1.0)
        assert n2 == pytest.approx(n1 / 4.0, rel=1e-13)

    def test_two_equal_tiers_ninth(self):
        base = Tier(1.0, 1.0)
        n1, n2 = noise_after_adding_tiers(
            base, [Tier(1.0, 1.0), Tier(1.0, 1.0)], Dimension(2), 4.0, 1.0
        )
        assert n2 == pytest.approx(n1 / 9.0, rel=1e-13)

    def test_strict_improvement(self):
        rng = np.random.default_rng(11)
        base = Tier(1.0, 10.0)
        for _ in range(25):
            added = [Tier(rng.uniform(0.01, 20), rng.uniform(0.001, 5))
                     for _ in range(rng.integers(1, 5))]
            l = int(rng.integers(1, 4))
            eps = l + rng.uniform(0.5, 4.0)
            n1, n2 = noise_after_adding_tiers(base, added, Dimension(l), eps, 1.0)
            assert n2 < n1


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
    ])
    def test_errors_name_the_field(self, doc, needle):
        with pytest.raises(SpecError, match=needle):
            spec_from_json(doc)

    def test_moment_fading(self):
        spec = spec_from_json({
            "dimension": 2, "epsilon": 4.0,
            "fading": {"type": "moment", "value": 1.3},
            "tiers": [{"density": 1, "power": 1}],
        })
        assert fading_moment(spec.fading, 0.5) == 1.3
