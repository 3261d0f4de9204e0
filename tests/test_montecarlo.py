import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from scsnet import (
    CanonicalSystem,
    Dimension,
    LogNormalFading,
    MomentFading,
    NetworkSpec,
    NoFading,
    Sector,
    Tier,
    UnsupportedSettingError,
    build_lookup_table,
    canonicalize,
    default_r_max,
    empirical_tail_ci,
    empirical_tail_cin,
    empirical_tail_fewbs,
    heard_tiers,
    spec_from_json,
    substream,
    tail_ci,
)
from scsnet import montecarlo
from scsnet.analytic import default_table_grids
from scsnet.montecarlo import (
    BLOCK_SIZE,
    _DrawBuffer,
    _block_ps_pi,
    _far_field_mean,
    _simulate_blocks,
    _tier_points,
)

D2 = Dimension(2)


def canonical(l=2, eps=4.0, lam=1.0, noise=0.0):
    return NetworkSpec(dim=Dimension(l), epsilon=eps,
                       tiers=(Tier(density=lam, power=1.0),), noise=noise)


def assert_within_4se(emp, exact):
    for eta, t, p in zip(emp.etas, emp.tails, exact):
        assert abs(t - p) <= 4.0 * math.sqrt(p * (1.0 - p) / emp.n), (eta, t, p)


class TestSampleField:
    def test_count_is_poisson_mean(self):
        # a tier's count within r_max ~ Poisson(lambda b r^l / l), one per row
        lam, r_max = 1.0, 4.0
        mu = lam * D2.b * r_max**2 / 2
        counts, _ = _tier_points(substream(1, 0), 10_000, mu, _DrawBuffer())
        mean = counts.mean()
        se = counts.std() / math.sqrt(len(counts))
        assert abs(mean - mu) < 3.0 * se
        # variance should match a Poisson law as well (loose sanity band)
        assert counts.var() == pytest.approx(mu, rel=0.1)

    def test_positions_are_uniform_in_ball(self):
        # volume fractions (R / r_max)^l of a uniform field are U(0, 1]
        counts, u = _tier_points(substream(2, 0), 200, D2.b * 6.0**2 / 2, _DrawBuffer())
        assert u.size == counts.sum()
        assert u.min() > 0.0 and u.max() <= 1.0
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_nearest_distance_median(self):
        # median of R1 is sqrt(ln 2 / (pi lambda)) in the plane
        lam = 1.0
        rng = substream(3, 0)
        t1 = rng.exponential(size=100_000)  # first arrival of the radial process
        r1 = np.sqrt(2.0 * t1 / (lam * D2.b))
        want = math.sqrt(math.log(2.0) / (math.pi * lam))
        med = np.median(r1)
        # SE of the sample median: 1 / (2 f(median) sqrt(n))
        f_med = lam * D2.b * want * math.exp(-lam * D2.b * want**2 / 2)
        se = 1.0 / (2.0 * f_med * math.sqrt(len(r1)))
        assert abs(med - want) < 3.0 * se
        # and the block sampler produces the same law (small-sample check):
        # with constant marks p_s = R1^-eps
        blocks = _simulate_blocks(canonical(), 6.0, 500, 3)
        rs = np.concatenate([p_s for p_s, _, _ in blocks]) ** (-1.0 / 4.0)
        assert abs(np.median(rs) - want) < 5.0 / (2.0 * f_med * math.sqrt(500))

    def test_block_matches_row_by_row_reference(self):
        # replay the documented draws (tiers in order; per tier counts,
        # positions, normals) and rebuild each row in plain Python; the seed
        # is the first one >= 1 whose draws leave rows empty, and the last
        # row empty in every tier
        sector = Sector(gain=20.0, beamwidth=2 * math.pi / 3)
        spec = NetworkSpec(dim=D2, epsilon=4.0, fading=LogNormalFading(1.0),
                           tiers=(Tier(1.0, 10.0, sector), Tier(0.5, 0.1)))
        r_max, rows = 0.6, 40
        p_s, p_i, ok = _block_ps_pi(spec, r_max, rows, substream(2, 0), _DrawBuffer())
        rng = substream(2, 0)
        ref_s, ref_sum, last = [0.0] * rows, [0.0] * rows, []
        for lam, power in ((sector.face_probability, 20.0), (0.5, 0.1)):
            counts = rng.poisson(lam * D2.b * r_max**2 / 2, size=rows)
            u = 1.0 - rng.random(int(counts.sum()))
            z = rng.standard_normal(u.size)
            last.append(int(counts[-1]))
            j = 0
            for row, c in enumerate(counts):
                for _ in range(c):
                    rx = power * math.exp(z[j]) * (r_max * math.sqrt(u[j])) ** -4.0
                    ref_s[row] = max(ref_s[row], rx)
                    ref_sum[row] += rx
                    j += 1
        assert last == [0, 0] and ref_s[:-1].count(0.0) >= 5
        np.testing.assert_allclose(p_s, ref_s, rtol=1e-13)
        np.testing.assert_allclose(p_i + p_s,
                                   np.array(ref_sum) + _far_field_mean(spec, r_max),
                                   rtol=1e-13)
        np.testing.assert_array_equal(ok, np.array(ref_s) > 0.0)

    def test_domain(self):
        for l, eps, r_max in ((3, 6.0, math.nan), (3, 6.0, 0.0), (3, 6.0, -1.0),
                              (3, 6.0, math.inf), (2, 4.0, -5.0)):
            with pytest.raises(ValueError, match="r_max"):
                empirical_tail_ci(canonical(l=l, eps=eps), [1.0], 100, 5, r_max=r_max)


class TestRealize:
    def test_serving_is_nearest_for_constant_marks(self):
        # one tier, no fading: the draws are the counts, then the positions
        r_max, rows = 5.0, 200
        p_s, _, ok = _block_ps_pi(canonical(), r_max, rows, substream(6, 0), _DrawBuffer())
        rng = substream(6, 0)
        counts = rng.poisson(D2.b * r_max**2 / 2, size=rows)
        u = 1.0 - rng.random(int(counts.sum()))
        assert ok.all() and counts.min() > 0
        starts = np.cumsum(counts) - counts
        r1 = np.array([r_max * math.sqrt(u[s:s + c].min())
                       for s, c in zip(starts, counts)])
        np.testing.assert_allclose(p_s, r1**-4.0, rtol=1e-14)

    def test_full_beam_sectoring_matches_unsectored_bitwise(self):
        plain = canonical()
        sect = NetworkSpec(
            dim=D2, epsilon=4.0,
            tiers=(Tier(1.0, 1.0, Sector(gain=1.0, beamwidth=2 * math.pi)),),
        )
        b1 = _block_ps_pi(plain, 5.0, 500, substream(42, 0), _DrawBuffer())
        b2 = _block_ps_pi(sect, 5.0, 500, substream(42, 0), _DrawBuffer())
        for x1, x2 in zip(b1, b2):
            np.testing.assert_array_equal(x1, x2)

    def test_zero_power_fraction_matches_sector_pmf(self):
        theta = 2 * math.pi / 3
        spec = NetworkSpec(
            dim=D2, epsilon=4.0,
            tiers=(Tier(1.0, 1.0, Sector(gain=3.0, beamwidth=theta)),),
        )
        # the serving station is the nearest facing one, so within r the row
        # hears nothing with probability exp(-lambda P(K > 0) b r^l / l), with
        # P(K > 0) = theta/(2 pi) the share of stations facing the receiver
        r, rows = 1.0, 100_000
        p_s, _, _ = _block_ps_pi(spec, 2.0, rows, substream(7, 0), _DrawBuffer())
        frac = float((p_s <= 3.0 * r**-4.0).mean())
        heard = theta / (2 * math.pi)
        want = math.exp(-heard * D2.b * r**2 / 2)
        se = math.sqrt(want * (1 - want) / rows)
        assert abs(frac - want) < 3.0 * se

    @pytest.mark.parametrize("seed", [0, 1])
    def test_silent_tier_draws_nothing(self, seed):
        # a power-0 tier is not heard, so it changes neither the draws nor the
        # pilot that sizes r_max; sized by total density, the pilot had taken
        # r_max at eps = 3 from 3.39 down to the 20-station floor of 2.52
        base = canonical(eps=3.0, noise=0.3)
        silent = dataclasses.replace(base, tiers=(*base.tiers, Tier(1e4, 0.0)))
        for empirical in (empirical_tail_ci, empirical_tail_cin):
            assert (empirical(base, [0.5, 1.0, 2.0], 2_000, seed)
                    == empirical(silent, [0.5, 1.0, 2.0], 2_000, seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sectored_tier_draws_as_its_heard_twin(self, seed):
        sectored = NetworkSpec(
            dim=D2, epsilon=3.5, noise=0.3, fading=LogNormalFading(0.5),
            tiers=(Tier(1.0, 1.0), Tier(2.0, 4.0, Sector(gain=3.0, beamwidth=1.0))),
        )
        twin = dataclasses.replace(
            sectored, tiers=tuple(Tier(lam, p) for lam, p in heard_tiers(sectored)))
        for empirical in (empirical_tail_ci, empirical_tail_cin):
            assert (empirical(sectored, [0.5, 1.0, 2.0], 2_000, seed)
                    == empirical(twin, [0.5, 1.0, 2.0], 2_000, seed))

    def test_moment_fading_cannot_be_sampled(self):
        spec = dataclasses.replace(canonical(), fading=MomentFading(1.3))
        with pytest.raises(UnsupportedSettingError):
            empirical_tail_ci(spec, [1.0], 100, 8, r_max=5.0)
        with pytest.raises(UnsupportedSettingError):
            default_r_max(spec)  # its moment(2) is not E[Psi^2]

    def test_far_field_compensation_positive(self):
        far = _far_field_mean(canonical(), 5.0)
        _, p_i, _ = _block_ps_pi(canonical(), 5.0, 100, substream(9, 0), _DrawBuffer())
        assert far > 0
        assert np.all(p_i >= far)


class TestEmpiricalTails:
    def test_eta_zero_tail_is_one(self):
        emp = empirical_tail_ci(canonical(), [0.0, 1.0], 5_000, 10)
        assert emp.tails[0] == 1.0

    def test_reproducible_bitwise(self):
        spec = canonical(noise=0.2)
        a = empirical_tail_cin(spec, [0.5, 1.0, 2.0], 30_000, 123)
        b = empirical_tail_cin(spec, [0.5, 1.0, 2.0], 30_000, 123)
        assert a == b

    def test_empty_rows_are_redrawn_at_the_geometric_rate(self):
        # at r_max = 0.3 a row is empty with p = e^(-0.09 pi) and is redrawn
        # until heard: n p/(1-p) ~ 61,206 rejections, sd sqrt(n p)/(1-p) ~ 500
        n, p = 20_000, math.exp(-0.09 * math.pi)
        emp = empirical_tail_ci(canonical(), [0.0, 1.0], n, 3, r_max=0.3)
        assert abs(emp.n_rejected - n * p / (1 - p)) <= 4 * math.sqrt(n * p) / (1 - p)
        assert emp.tails[0] == 1.0
        assert empirical_tail_ci(canonical(), [0.0, 1.0], n, 3, r_max=0.3) == emp

    def test_substream_isolation(self):
        # realization j is pinned to (block, row), so growing n only appends
        spec = canonical()
        small = empirical_tail_ci(spec, [1.0], 4_096, 9)
        big = empirical_tail_ci(spec, [1.0], 8_192, 9)
        # first block contributes identically: recover its count from totals
        rng_counts = empirical_tail_ci(spec, [1.0], 4_096, 9)
        assert small == rng_counts
        assert abs(big.tails[0] - small.tails[0]) < 0.05

    def test_cin_never_exceeds_ci(self):
        spec = canonical(noise=0.5)
        etas = [0.25, 0.5, 1.0, 2.0, 4.0]
        ci = empirical_tail_ci(spec, etas, 20_000, 11)
        cin = empirical_tail_cin(spec, etas, 20_000, 11)
        for t_ci, t_cin in zip(ci.tails, cin.tails):
            assert t_cin <= t_ci

    def test_brackets_exact_inversion(self):
        emp = empirical_tail_ci(canonical(), [0.5, 1.0, 2.0], 150_000, 12)
        for i, eta in enumerate(emp.etas):
            assert abs(tail_ci(2.0, eta) - emp.tails[i]) <= emp.halfwidths[i]

    def test_truncation_radius_insensitive(self):
        spec = canonical()
        etas = [0.5, 1.0, 2.0]
        r0 = default_r_max(spec)
        base = empirical_tail_ci(spec, etas, 100_000, 13, r_max=r0)
        double = empirical_tail_ci(spec, etas, 100_000, 13, r_max=2 * r0)
        for t1, h1, t2, h2 in zip(base.tails, base.halfwidths,
                                  double.tails, double.halfwidths):
            assert abs(t1 - t2) <= math.hypot(h1, h2)

    @pytest.mark.parametrize("spec", [
        canonical(l=3, eps=4.0),
        canonical(l=2, eps=2.5),
        # eps near l: the fluctuation-sized radius is below one mean station
        # distance, so the radius is the floor of 20 heard stations a row
        canonical(l=3, eps=3.02),
        NetworkSpec(dim=D2, epsilon=2.01,
                    tiers=(Tier(1.0, 1.0, Sector(gain=1.0, beamwidth=math.pi / 3)),)),
    ], ids=["l3-eps4", "l2-eps2.5", "l3-eps3.02", "sector60-eps2.01"])
    def test_default_radius_answers_slow_decay(self, spec):
        # networks whose mean-sized radius needed 1e9 to 1e11 stations a block
        # or overflowed; no row may be empty, as redrawing it conditions the field
        emp = empirical_tail_ci(spec, [0.5, 1.0, 2.0], 50_000, 21)
        assert emp.n_rejected == 0
        a = spec.epsilon / spec.dim.l
        assert_within_4se(emp, [tail_ci(a, eta) for eta in emp.etas])

    def test_default_table_cell_checkable(self):
        # the default table's eps = 2.5, N' = 1 cell against a network reducing to it
        epsilons, nprimes, etas = default_table_grids(2)
        assert 2.5 in epsilons and 1.0 in nprimes
        table = build_lookup_table(2, [2.5], [1.0], etas)
        spec = canonical(eps=2.5, noise=1.0)
        assert canonicalize(spec) == CanonicalSystem(D2, 2.5, 1.0)
        emp = empirical_tail_cin(spec, etas, 50_000, 23)
        assert_within_4se(emp, table.values.ravel())

    def test_fading_leaves_ci_unchanged(self):
        # the single-tier C/I law is blind to i.i.d. shadow fading
        etas = [0.5, 1.0, 2.0]
        plain = empirical_tail_ci(canonical(), etas, 100_000, 14)
        faded_spec = dataclasses.replace(canonical(), fading=LogNormalFading(1.0))
        faded = empirical_tail_ci(faded_spec, etas, 100_000, 15)
        for t1, h1, t2, h2 in zip(plain.tails, plain.halfwidths,
                                  faded.tails, faded.halfwidths):
            assert abs(t1 - t2) <= math.hypot(h1, h2)

    def test_two_tier_equals_collapsed_single_tier(self):
        # mixed powers versus the equivalent plain field, both simulated
        two = NetworkSpec(dim=D2, epsilon=4.0,
                          tiers=(Tier(1.0, 10.0), Tier(3.0, 1.0)))
        e_k = 0.25 * 10.0**0.5 + 0.75 * 1.0
        collapsed = canonical(lam=4.0 * e_k)
        etas = [0.5, 1.0, 2.0]
        mc_two = empirical_tail_ci(two, etas, 100_000, 41)
        mc_one = empirical_tail_ci(collapsed, etas, 100_000, 42)
        for t1, h1, t2, h2 in zip(mc_two.tails, mc_two.halfwidths,
                                  mc_one.tails, mc_one.halfwidths):
            assert abs(t1 - t2) <= math.hypot(h1, h2)

    def test_scaled_system_equals_normalized_system(self):
        # (lambda, eps, K, N) and (1, eps, 1, N') share the C/(I+N) law
        lam, kpow, noise = 3.0, 2.0, 4.0
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(lam, kpow),),
                           noise=noise)
        nprime = noise / (lam**2.0 * kpow)
        unit = canonical(noise=nprime)
        etas = [0.5, 1.0, 2.0]
        mc_full = empirical_tail_cin(spec, etas, 100_000, 43)
        mc_unit = empirical_tail_cin(unit, etas, 100_000, 44)
        for t1, h1, t2, h2 in zip(mc_full.tails, mc_full.halfwidths,
                                  mc_unit.tails, mc_unit.halfwidths):
            assert abs(t1 - t2) <= math.hypot(h1, h2)

    def test_unsorted_etas_rejected(self):
        with pytest.raises(ValueError):
            empirical_tail_ci(canonical(), [2.0, 1.0], 1_000, 0)

    @pytest.mark.parametrize("entry", [empirical_tail_ci, empirical_tail_cin,
                                       empirical_tail_fewbs])
    @pytest.mark.parametrize("n,seed,name", [(1e4, 0, "n"), (1000, 1.5, "seed"),
                                             ("1000", 0, "n"), (1000, None, "seed")])
    def test_non_integer_n_or_seed_refused_before_any_draw(self, monkeypatch, entry,
                                                           n, seed, name):
        draws = []
        monkeypatch.setattr(montecarlo, "substream",
                            lambda *args: draws.append(args) or substream(*args))
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            entry(canonical(noise=0.1), [1.0], n, seed)
        assert draws == []

    def test_numpy_integer_n_and_seed_accepted(self):
        want = empirical_tail_cin(canonical(noise=0.1), [1.0], 1_000, 5)
        got = empirical_tail_cin(canonical(noise=0.1), [1.0], np.int64(1_000),
                                 np.uint32(5))
        assert got.tails == want.tails

    def test_csv_format(self, tmp_path):
        emp = empirical_tail_ci(canonical(), [1.0], 2_000, 3)
        path = tmp_path / "tail.csv"
        emp.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eta,tail,ci_halfwidth,n,seed,method"
        eta, tail, hw, n, seed, method = lines[1].split(",")
        assert float(tail) == emp.tails[0]
        assert int(n) == 2_000 and method == "mc-ci"


class TestFewBs:
    def test_eta_zero(self):
        emp = empirical_tail_fewbs(canonical(), [0.0, 1.0], 2_000, 1)
        assert emp.tails[0] == 1.0

    def test_requires_plain_single_tier(self):
        two = NetworkSpec(dim=D2, epsilon=4.0,
                          tiers=(Tier(1.0, 1.0), Tier(1.0, 2.0)))
        with pytest.raises(UnsupportedSettingError):
            empirical_tail_fewbs(two, [1.0], 1_000, 0)
        faded = dataclasses.replace(canonical(), fading=LogNormalFading(1.0))
        with pytest.raises(UnsupportedSettingError):
            empirical_tail_fewbs(faded, [1.0], 1_000, 0)
        sect = NetworkSpec(
            dim=D2, epsilon=4.0,
            tiers=(Tier(1.0, 1.0, Sector(gain=2.0, beamwidth=1.0)),),
        )
        with pytest.raises(UnsupportedSettingError):
            empirical_tail_fewbs(sect, [1.0], 1_000, 0)

    def test_stays_close_to_full_field(self):
        # Measured regression bound: the strongest-two tail tracks the full
        # field within 0.016 everywhere on this grid.  Above eta = 1 the
        # exact tail sits strictly higher (the tail ratio K/C is 1.025 at
        # ratio 2), so closeness rather than one-sided dominance is the
        # property that actually holds.
        etas = [0.25, 0.5, 1.0, 2.0]
        full = empirical_tail_ci(canonical(), etas, 100_000, 21)
        few = empirical_tail_fewbs(canonical(), etas, 100_000, 21)
        for t_full, h_full, t_few, h_few in zip(
            full.tails, full.halfwidths, few.tails, few.halfwidths
        ):
            assert abs(t_few - t_full) <= 0.016 + 2.0 * math.hypot(h_full, h_few)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be"):
            empirical_tail_fewbs(canonical(), [1.0], 0, 1)

    def test_requires_positive_power(self):
        silent = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 0.0),))
        with pytest.raises(UnsupportedSettingError, match="tier power must be positive"):
            empirical_tail_fewbs(silent, [1.0], 1_000, 0)


class TestSeeding:
    def test_streams_differ(self):
        assert substream(7, 0).random() != substream(7, 1).random()

    def test_each_block_depends_only_on_seed_and_index(self):
        # block k of a run is, bitwise, the first block of a run started at
        # stream k: no block reads another's stream, and the reused draw
        # buffer carries nothing over, though the second tier grows it and
        # empty rows are redrawn from it
        spec = NetworkSpec(dim=D2, epsilon=4.0, fading=LogNormalFading(1.0),
                           tiers=(Tier(0.5, 1.0), Tier(4.0, 0.1)))
        r_max, n, seed = 0.6, 3 * BLOCK_SIZE + 17, 13
        blocks = list(_simulate_blocks(spec, r_max, n, seed))
        assert [p_s.size for p_s, _, _ in blocks] == [BLOCK_SIZE] * 3 + [17]
        assert all(rej > 0 for _, _, rej in blocks[:3])
        for k, (p_s, p_i, rej) in enumerate(blocks):
            alone = next(_simulate_blocks(spec, r_max, p_s.size, seed, stream_base=k))
            np.testing.assert_array_equal(p_s, alone[0])
            np.testing.assert_array_equal(p_i, alone[1])
            assert rej == alone[2]
        assert substream(seed, 0).random() != substream(seed, 1).random()

    def test_no_audible_station_fails_fast(self):
        # every row would be rejected and redrawn forever
        spec = NetworkSpec(dim=D2, epsilon=4.0, tiers=(Tier(1.0, 0.0),))
        with pytest.raises(UnsupportedSettingError, match="no station"):
            empirical_tail_ci(spec, [1.0], 10, 0, r_max=3.0)
        with pytest.raises(UnsupportedSettingError, match="no station"):
            default_r_max(spec)

    @pytest.mark.parametrize("sigma,r_max", [(20.0, None), (40.0, 3.0)])
    def test_fading_past_float_range_is_refused(self, sigma, r_max):
        # E[Psi^2] = e^800 at sigma = 20, and the far-field mean's E[Psi] = e^800
        # at sigma = 40, were OverflowErrors
        spec = dataclasses.replace(canonical(), fading=LogNormalFading(sigma))
        with pytest.raises(UnsupportedSettingError, match="float range"):
            empirical_tail_ci(spec, [1.0], 100, 0, r_max=r_max)

    def test_received_power_overflow_is_refused(self):
        # at eps = 200 on a line, a station at r < 0.03 is received above 1e308
        spec = canonical(l=1, eps=200.0)
        with pytest.raises(UnsupportedSettingError,
                           match="received powers at r_max=1 overflow the float range"):
            empirical_tail_ci(spec, [1.0], 1_000, 0, r_max=1.0)

    def test_radius_beyond_memory_budget_fails_fast(self):
        spec = canonical(eps=2.2)
        r = 5.5e9  # 1e20 expected stations per row
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedSettingError, match="r_max=.*stations"):
                empirical_tail_ci(spec, [1.0], 10_000, 0, r_max=r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # refused before any array was allocated

    @pytest.mark.parametrize("share", [0.9, 1.1])
    def test_station_limit_is_the_boundary(self, share, monkeypatch):
        # a block expecting share x the limit is answered below it and
        # refused above it, before any draw
        spec, r_max = canonical(), 3.5
        stations = BLOCK_SIZE * montecarlo._stations_per_row(spec, r_max)
        monkeypatch.setattr(montecarlo, "_MAX_BLOCK_STATIONS", stations / share)
        draws = []
        monkeypatch.setattr(montecarlo, "_block_ps_pi",
                            lambda *args: draws.append(args) or _block_ps_pi(*args))
        if share < 1.0:
            emp = empirical_tail_ci(spec, [1.0], BLOCK_SIZE, 0, r_max=r_max)
            assert emp.n == BLOCK_SIZE and draws
        else:
            with pytest.raises(UnsupportedSettingError, match="r_max=.*stations"):
                empirical_tail_ci(spec, [1.0], BLOCK_SIZE, 0, r_max=r_max)
            assert draws == []

    def test_epsilon_near_l_is_answered(self):
        # at l = 2, eps = 2.001 the far field's mean is huge but compensated,
        # and its fluctuation is small a few mean distances out
        spec = canonical(eps=2.001)
        start = time.perf_counter()
        emp = empirical_tail_ci(spec, [1.0, 2.0, 4.0], 50_000, 11)
        assert time.perf_counter() - start < 5.0
        assert emp.stations_per_row < 100
        assert_within_4se(emp, [tail_ci(2.001 / 2, eta) for eta in emp.etas])

    def test_result_reports_its_radius(self):
        spec = canonical()
        assert empirical_tail_ci(spec, [1.0], 100, 5, r_max=3.5).r_max == 3.5
        assert empirical_tail_ci(spec, [1.0], 100, 5).r_max == default_r_max(spec, seed=5)
        assert empirical_tail_fewbs(spec, [1.0], 100, 5).r_max is None

    @pytest.mark.parametrize("fading", [NoFading(), LogNormalFading(0.5)])
    def test_default_r_max_keeps_compensation_small(self, fading):
        spec = dataclasses.replace(canonical(), fading=fading)
        r = default_r_max(spec)
        p_i = np.concatenate(
            [pi for _, pi, _ in _simulate_blocks(spec, r, 10_000, 33)]
        )
        # what compensation misses is the far field's fluctuation; measure its
        # sd from stations drawn in the shell [r, 4r], which carries all but
        # 4^(l - 2 eps) = 4^-6 of its variance
        rng, rows = np.random.default_rng(34), 4000
        counts = rng.poisson(D2.b * 15.0 * r**2 / 2, size=rows)
        r2 = r**2 * (1.0 + 15.0 * rng.random(counts.sum()))  # R^2 uniform
        sigma = getattr(fading, "sigma", 0.0)
        rx = np.exp(sigma * rng.standard_normal(counts.sum())) * r2**-2.0
        far = np.bincount(np.repeat(np.arange(rows), counts), weights=rx,
                          minlength=rows)
        # the radius is solved so that sd ~ 1% of typical interference, and
        # not sized by the mean, which would make it ~20x smaller
        assert 0.005 <= far.std() / float(np.median(p_i)) <= 0.02


class TestThreadPool:
    # the README network: sectored, shadowed and noisy, two tiers
    README_SPEC = spec_from_json({
        "dimension": 2, "epsilon": 4.0, "noise": 1.0e-2,
        "fading": {"type": "lognormal", "sigma_db": 8.0},
        "tiers": [{"density": 1.0, "power": 10.0,
                   "sector": {"gain": 20.0, "beamwidth_deg": 120.0}},
                  {"density": 5.0, "power": 0.1}],
    })

    @pytest.mark.parametrize("case", ["default radius", "n=20,001", "redraws"])
    def test_thread_count_changes_no_output(self, monkeypatch, case):
        # blocks own their substreams and leave the pool in block order
        run = {
            # the pilot that sizes the radius runs on the pool too
            "default radius": lambda: empirical_tail_cin(
                self.README_SPEC, [0.1, 1.0, 10.0], 5_000, 2),
            "n=20,001": lambda: empirical_tail_ci(canonical(), [0.5, 1.0, 2.0],
                                                  20_001, 4),
            "redraws": lambda: empirical_tail_ci(
                dataclasses.replace(canonical(), fading=LogNormalFading(1.0)),
                [0.0, 1.0], 20_000, 3, r_max=0.3),
        }[case]
        results = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "sampler_threads", lambda t=threads: t)
            results.append(run())
        assert results[0] == results[1] == results[2]
        assert (results[0].n_rejected > 0) == (case == "redraws")

    def test_no_thread_is_left_behind(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "sampler_threads", lambda: 3)
        start = threading.active_count()
        blocks = _simulate_blocks(canonical(), 3.0, 20 * BLOCK_SIZE, 0)
        next(blocks)
        assert start < threading.active_count() <= start + 3
        blocks.close()  # with blocks still queued and running
        assert threading.active_count() == start
        # the refusal is raised in a worker and re-raised by the consumer
        with pytest.raises(UnsupportedSettingError,
                           match="received powers at r_max=1 overflow the float range"):
            empirical_tail_ci(canonical(l=1, eps=200.0), [1.0], 20_000, 0, r_max=1.0)
        assert threading.active_count() == start

    def test_draw_buffers_stay_within_the_station_limit(self, monkeypatch):
        # each thread's buffer holds a block's stations, so the pool shrinks
        # to keep all of them under the limit
        r_max = 10.0
        stations = BLOCK_SIZE * montecarlo._stations_per_row(canonical(), r_max)
        monkeypatch.setattr(montecarlo, "sampler_threads", lambda: 8)
        monkeypatch.setattr(montecarlo, "_MAX_BLOCK_STATIONS", int(2.5 * stations))
        start = threading.active_count()
        blocks = _simulate_blocks(canonical(), r_max, 40 * BLOCK_SIZE, 0)
        next(blocks)
        assert start < threading.active_count() <= start + 2
        blocks.close()
