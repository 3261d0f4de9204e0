"""Independent Monte Carlo oracle for signal-quality distributions.

Fields are drawn through the radial arrival representation: with
T = lambda b_l R^l / l, the ordered station distances map to the arrival
times of a unit-rate Poisson process, so a field is a cumulative sum of
Exp(1) increments inverted back to distances and truncated at r_max.  Each
station gets an i.i.d. power mark (tier mixing, then sector thinning) and an
i.i.d. fading mark; the serving station is the strongest received power, and
the interference beyond r_max is compensated by its exact conditional mean
so truncation leaves no first-order bias.

Reproducibility contract: realization j lives in block j // BLOCK_SIZE at
row j % BLOCK_SIZE, and block b draws from the counter-indexed Philox
substream (seed, b).  Results are bit-identical for a given (seed, spec, n),
and because blocks own disjoint substreams they are independent of any
scheduling, so a parallel driver that merges per-block counters reproduces
the sequential output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .network import (
    LogNormalFading,
    MomentFading,
    NetworkSpec,
    NoFading,
    power_pmf,
)

__all__ = [
    "BLOCK_SIZE",
    "Z99",
    "UnsupportedSettingError",
    "EmpiricalTail",
    "substream",
    "default_r_max",
    "empirical_tail_ci",
    "empirical_tail_cin",
    "empirical_tail_fewbs",
]

BLOCK_SIZE = 4096
Z99 = 2.5758293035489004  # two-sided 99% normal quantile


class UnsupportedSettingError(ValueError):
    """The requested simulation needs features outside the supported model."""


def substream(seed: int, stream: int) -> np.random.Generator:
    """Counter-indexed Philox substream: independent, reproducible, portable."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EmpiricalTail:
    """Empirical tail curve with a 99% confidence halfwidth per point."""

    etas: Tuple[float, ...]
    tails: Tuple[float, ...]
    halfwidths: Tuple[float, ...]
    n: int
    seed: int
    method: str
    n_rejected: int = 0

    def lower(self) -> np.ndarray:
        return np.maximum(np.asarray(self.tails) - np.asarray(self.halfwidths), 0.0)

    def upper(self) -> np.ndarray:
        return np.minimum(np.asarray(self.tails) + np.asarray(self.halfwidths), 1.0)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("eta,tail,ci_halfwidth,n,seed,method\n")
            for eta, t, hw in zip(self.etas, self.tails, self.halfwidths):
                fh.write(f"{eta!r},{t!r},{hw!r},{self.n},{self.seed},{self.method}\n")


# ---------------------------------------------------------------------------
# field sampling
# ---------------------------------------------------------------------------


def _arrival_matrix(rng, rows: int, t_max: float, mu: float) -> np.ndarray:
    """Unit-rate arrival times per row, padded so every row passes t_max."""
    cols = int(mu + 8.0 * math.sqrt(mu) + 16.0)
    t = rng.exponential(size=(rows, cols)).cumsum(axis=1)
    while t[:, -1].min() < t_max:
        extra = rng.exponential(size=(rows, 32)).cumsum(axis=1)
        t = np.hstack([t, t[:, -1:] + extra])
    return t


def _draw_marks(spec: NetworkSpec, rng, shape):
    """Power and fading marks for a matrix of stations.

    Draw order is fixed: tier mixing uniforms (only when there are several
    tiers), fading, then sector-facing uniforms last (only when some tier is
    sectored).  A fully omnidirectional sectored network therefore consumes
    the same pre-sector draws as its unsectored twin and produces identical
    realizations under the same seed.
    """
    tiers = spec.tiers
    if len(tiers) > 1:
        probs = np.array([t.density for t in tiers]) / spec.total_density
        edges = np.cumsum(probs)
        tier_idx = np.searchsorted(edges, rng.random(shape), side="right")
        tier_idx = np.minimum(tier_idx, len(tiers) - 1)
    else:
        tier_idx = np.zeros(shape, dtype=int)
    powers = np.array([t.power for t in tiers])[tier_idx]
    if isinstance(spec.fading, MomentFading):
        raise UnsupportedSettingError(
            "moment-only fading cannot be sampled; use the analytic path"
        )
    if isinstance(spec.fading, LogNormalFading):
        fad = np.exp(spec.fading.sigma * rng.standard_normal(shape))
    else:
        fad = np.ones(shape)
    if any(t.sector is not None for t in tiers):
        u = rng.random(shape)
        for i, t in enumerate(tiers):
            if t.sector is None:
                continue
            sel = tier_idx == i
            powers[sel] = np.where(
                u[sel] < t.sector.face_probability, t.sector.gain, 0.0
            )
    return powers, fad


def _far_field_mean(spec: NetworkSpec, r_max: float) -> float:
    """Expected interference from beyond r_max: the conditional-mean integrand
    integrated outward, with the mean power and fading marks."""
    mean_power = power_pmf(spec).mean
    mean_fading = spec.fading.mean if not isinstance(spec.fading, MomentFading) else None
    if mean_fading is None:
        raise UnsupportedSettingError(
            "moment-only fading cannot be sampled; use the analytic path"
        )
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    return (
        spec.total_density * mean_power * mean_fading
        * b * r_max ** (l - eps) / (eps - l)
    )


def _block_ps_pi(spec: NetworkSpec, r_max: float, rows: int, rng):
    """(p_s, p_i, accepted mask) for a block of realizations."""
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    lam = spec.total_density
    t_max = lam * b * r_max**l / l
    t = _arrival_matrix(rng, rows, t_max, t_max)
    powers, fad = _draw_marks(spec, rng, t.shape)
    radii = (l * t / (lam * b)) ** (1.0 / l)
    received = np.where(t < t_max, powers * fad * radii ** (-eps), 0.0)
    p_s = received.max(axis=1)
    p_i = received.sum(axis=1) - p_s + _far_field_mean(spec, r_max)
    return p_s, p_i, p_s > 0.0


# pilot runs (radius calibration) draw from streams far above any block index
_PILOT_STREAM_BASE = 1 << 48


def _simulate_blocks(spec: NetworkSpec, r_max: float, n: int, seed: int,
                     stream_base: int = 0):
    """Yield (p_s, p_i, n_rejected) arrays, BLOCK_SIZE realizations at a time.

    Degenerate rows (no positive received power within r_max) are redrawn
    from the continuation of the same substream, so acceptance conditioning
    is explicit and the whole stream stays a pure function of (seed, spec).
    """
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    for blk in range(n_blocks):
        rows = min(BLOCK_SIZE, n - blk * BLOCK_SIZE)
        rng = substream(seed, stream_base + blk)
        p_s, p_i, ok = _block_ps_pi(spec, r_max, rows, rng)
        rejected = 0
        while not ok.all():
            bad = ~ok
            rejected += int(bad.sum())
            ps2, pi2, ok2 = _block_ps_pi(spec, r_max, int(bad.sum()), rng)
            p_s[bad], p_i[bad] = ps2, pi2
            ok[bad] = ok2
        yield p_s, p_i, rejected


def default_r_max(spec: NetworkSpec, *, fraction: float = 0.01,
                  pilot_n: int = 1000, seed: int = 0) -> float:
    """Truncation radius making the far-field compensation a small fraction
    of the typical total interference.

    A pilot run at a provisional radius estimates the typical (median) total
    interference; the radius then solves
    lambda E[K] E[Psi] b r^(l-eps) / (eps - l) = fraction * typical.
    The median is used because the mean interference diverges for
    eps >= 2l and a sample mean would be dominated by rare close pairs.
    """
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    lam = spec.total_density
    r_pilot = (200.0 * l / (lam * b)) ** (1.0 / l)
    pilot = []
    for p_s, p_i, _ in _simulate_blocks(spec, r_pilot, pilot_n, seed,
                                        stream_base=_PILOT_STREAM_BASE):
        pilot.append(p_i)
    typical = float(np.median(np.concatenate(pilot)))
    mean_power = power_pmf(spec).mean
    mean_fading = spec.fading.mean
    target = fraction * typical * (eps - l) / (lam * mean_power * mean_fading * b)
    r = target ** (1.0 / (l - eps))
    return max(r, r_pilot * 0.25)


def _require_fewbs_setting(spec: NetworkSpec):
    if len(spec.tiers) != 1 or spec.tiers[0].sector is not None:
        raise UnsupportedSettingError(
            "the strongest-few approximation is derived for a single"
            " unsectored tier with constant power"
        )
    if not isinstance(spec.fading, NoFading):
        raise UnsupportedSettingError(
            "the strongest-few approximation is derived without fading"
        )
    if spec.tiers[0].power <= 0:
        raise UnsupportedSettingError("tier power must be positive")


def _empirical(etas, n, seed, method, blocks: Iterator) -> EmpiricalTail:
    """Count ratio values above each eta over ``blocks`` and assemble the tail.

    ``blocks`` is a lazy iterator of (ratio values, rejections) per block; it
    starts drawing only after etas and n have been checked.
    """
    etas = [float(e) for e in etas]
    if etas != sorted(etas):
        raise ValueError("etas must be sorted ascending")
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = np.zeros(len(etas), dtype=np.int64)
    rejected = 0
    eta_arr = np.asarray(etas)
    for vals, rej in blocks:
        counts += (vals[:, None] > eta_arr[None, :]).sum(axis=0)
        rejected += rej
    tails = counts / n
    hw = Z99 * np.sqrt(tails * (1.0 - tails) / n)
    return EmpiricalTail(
        etas=tuple(etas), tails=tuple(float(t) for t in tails),
        halfwidths=tuple(float(h) for h in hw),
        n=n, seed=seed, method=method, n_rejected=rejected,
    )


def _field_ratios(spec: NetworkSpec, n: int, seed: int, r_max: Optional[float],
                  noise: float):
    """C/(I+noise) of the block sampler's realizations, block by block."""
    if r_max is None:
        r_max = default_r_max(spec, seed=seed)
    elif not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max}")
    for p_s, p_i, rej in _simulate_blocks(spec, r_max, n, seed):
        yield p_s / (p_i + noise), rej


def empirical_tail_ci(spec: NetworkSpec, etas: Sequence[float], n: int,
                      seed: int, *, r_max: Optional[float] = None) -> EmpiricalTail:
    """Empirical tail of C/I; realizations are shared across all etas."""
    return _empirical(etas, n, seed, "mc-ci", _field_ratios(spec, n, seed, r_max, 0.0))


def empirical_tail_cin(spec: NetworkSpec, etas: Sequence[float], n: int,
                       seed: int, *, r_max: Optional[float] = None) -> EmpiricalTail:
    """Empirical tail of C/(I+N); same realizations as the C/I run at equal seed."""
    return _empirical(etas, n, seed, "mc-cin",
                      _field_ratios(spec, n, seed, r_max, spec.noise))


def _fewbs_ratios(spec: NetworkSpec, n: int, seed: int, k: int):
    """C/I_k block by block: the k nearest stations drawn exactly."""
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    lam = spec.tiers[0].density
    kpow = spec.tiers[0].power
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    for blk in range(n_blocks):
        rows = min(BLOCK_SIZE, n - blk * BLOCK_SIZE)
        rng = substream(seed, blk)
        t = rng.exponential(size=(rows, k)).cumsum(axis=1)
        radii = (l * t / (lam * b)) ** (1.0 / l)
        p_s = kpow * radii[:, 0] ** (-eps)
        exact = (kpow * radii[:, 1:k] ** (-eps)).sum(axis=1) if k >= 2 else 0.0
        r_k = radii[:, k - 1]
        mean_rest = lam * b * kpow * r_k ** (l - eps) / (eps - l)
        yield p_s / (exact + mean_rest), 0


def empirical_tail_fewbs(spec: NetworkSpec, etas: Sequence[float], n: int,
                         seed: int, k: int = 2) -> EmpiricalTail:
    """Empirical tail of the strongest-few approximation C/I_k.

    Per realization the k nearest stations are sampled exactly (no field
    truncation is needed) and interference is the exact sum of stations
    2..k plus the conditional mean beyond station k.  Only the constant
    power, unfaded single-tier setting is supported; k defaults to the one
    value with a closed-form counterpart.
    """
    _require_fewbs_setting(spec)
    if k < 1:
        raise ValueError("k must be >= 1")
    return _empirical(etas, n, seed, f"mc-fewbs{k}", _fewbs_ratios(spec, n, seed, k))
