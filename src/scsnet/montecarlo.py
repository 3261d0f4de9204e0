"""Independent Monte Carlo oracle for signal-quality distributions.

Each heard tier (``network.heard_tiers``: a sectored tier thinned to the
theta/(2 pi) share of its stations facing the receiver, at the sector gain)
is drawn as its own Poisson field; superposed, they are the network.  Within
r_max a tier has a Poisson(lambda' b r_max^l / l) count of stations, uniform
in the ball.  Each station carries an i.i.d. fading mark; the serving
station is the strongest received power.  The interference beyond r_max is
compensated by its exact mean, so truncation drops only its fluctuation,
whose standard deviation falls as r_max^(l/2 - eps); the default radius is
sized by that.

Reproducibility contract: realization j lives in block j // BLOCK_SIZE at
row j % BLOCK_SIZE, and block b of seed s draws from
SFC64(SeedSequence(s, spawn_key=(b,))).  Results are bit-identical for a given
(seed, spec, n).  Blocks run on a thread pool, one thread per usable CPU
(sampler_threads); because they own disjoint substreams and are merged in
block order, the output is the same for any thread count.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .network import (
    LogNormalFading,
    MomentFading,
    NetworkSpec,
    NoFading,
    heard_tiers,
)

__all__ = [
    "BLOCK_SIZE",
    "Z99",
    "UnsupportedSettingError",
    "EmpiricalTail",
    "substream",
    "sampler_threads",
    "default_r_max",
    "empirical_tail_ci",
    "empirical_tail_cin",
    "empirical_tail_fewbs",
]

BLOCK_SIZE = 512  # rows; keeps a tier's draws near cache size
Z99 = 2.5758293035489004  # two-sided 99% normal quantile
# Expected stations per block, over all tiers, above which r_max is refused.
# A thread's draw buffer holds 2 doubles a station and the pool runs at most
# _MAX_BLOCK_STATIONS // stations threads, so all buffers stay within 512 MiB.
_MAX_BLOCK_STATIONS = 1 << 25


class UnsupportedSettingError(ValueError):
    """The requested simulation needs features outside the supported model."""


def substream(seed: int, stream: int) -> np.random.Generator:
    """SFC64 substream keyed by (seed, stream): independent, reproducible, portable."""
    seq = np.random.SeedSequence(operator.index(seed) % 2**64,
                                 spawn_key=(stream % 2**64,))
    return np.random.Generator(np.random.SFC64(seq))


def sampler_threads() -> int:
    """Threads the block sampler runs on: one per CPU this process may use."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # sched_getaffinity is not on every platform


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
    r_max: Optional[float] = None  # truncation radius; None for strongest-two
    stations_per_row: Optional[float] = None  # expected heard stations within r_max

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("eta,tail,ci_halfwidth,n,seed,method\n")
            for eta, t, hw in zip(self.etas, self.tails, self.halfwidths):
                fh.write(f"{eta!r},{t!r},{hw!r},{self.n},{self.seed},{self.method}\n")


# ---------------------------------------------------------------------------
# field sampling
# ---------------------------------------------------------------------------


def _far_field_mean(spec: NetworkSpec, r_max: float) -> float:
    """Expected interference from beyond r_max: the heard power density
    sum_i lambda'_i P_i E[Psi] integrated outward against r^-eps.  The field
    beyond the second-nearest station is fresh, so at r_max = its distance
    (an array works) this is also the strongest-two mean beyond it."""
    if isinstance(spec.fading, MomentFading):
        raise UnsupportedSettingError(
            "moment-only fading cannot be sampled; use the analytic path"
        )
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    power_density = (sum(lam * p for lam, p in heard_tiers(spec))
                     * spec.fading.moment(1.0))
    return power_density * b * r_max ** (l - eps) / (eps - l)


def _stations_per_row(spec: NetworkSpec, r_max: float) -> float:
    """Expected heard stations within r_max, sum_i lambda'_i b r_max^l / l."""
    if not (heard := heard_tiers(spec)):
        raise UnsupportedSettingError("no station can be heard: every tier has power 0")
    with np.errstate(over="ignore"):  # inf for a radius past float range
        lam = sum(lam for lam, _ in heard)
        return float(lam * spec.dim.b / spec.dim.l * np.float64(r_max)**spec.dim.l)


class _DrawBuffer(threading.local):
    """Per-station draw scratch (U, then Z), one per thread, reused across blocks."""
    buf = np.empty((2, 0))

    def take(self, stations: int):
        if stations > self.buf.shape[1]:
            self.buf = np.empty((2, stations))
        return self.buf[:, :stations]


def _tier_points(rng, rows: int, mu: float, buf: _DrawBuffer):
    """Per-row station counts, Poisson(mu), and the stations' volume fractions
    U in (0, 1] back to back row by row, in buf's row 0.  Given its
    count, a row's stations are uniform in the ball, station j at r_max U_j^(1/l).
    """
    counts = rng.poisson(mu, size=rows)
    u = buf.take(int(counts.sum()))[0]
    rng.random(out=u)
    return counts, np.subtract(1.0, u, out=u)


@np.errstate(over="raise", invalid="raise")
def _block_ps_pi(spec: NetworkSpec, r_max: float, rows: int, rng, buf: _DrawBuffer):
    """(p_s, p_i, accepted mask) for a block of realizations.

    Draw order is fixed: tiers in spec order, and per tier the station
    counts, then the positions, then (under log-normal fading with
    sigma > 0) one standard normal per station.  A full-beam sector
    therefore draws exactly what its unsectored twin draws.
    """
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    far = _far_field_mean(spec, r_max)
    sigma = spec.fading.sigma if isinstance(spec.fading, LogNormalFading) else 0.0
    p_s, total = np.zeros(rows), np.zeros(rows)
    for lam, power in heard_tiers(spec):
        counts, rx = _tier_points(rng, rows, lam * b * r_max**l / l, buf)
        # received power P Psi R^-eps = exp(log(P r_max^-eps) - eps/l log U [+ sigma Z])
        log_gain = math.log(power * r_max ** (-eps))
        np.log(rx, out=rx)
        rx *= -eps / l
        z = rng.standard_normal(out=buf.take(rx.size)[1]) if sigma > 0.0 else 0.0
        z *= sigma
        z += log_gain
        rx += z
        np.exp(rx, out=rx)
        # reduce over the nonempty rows only: reduceat would give an empty
        # row the next row's first station
        heard = counts > 0
        starts = (np.cumsum(counts) - counts)[heard]
        p_s[heard] = np.maximum(p_s[heard], np.maximum.reduceat(rx, starts))
        total[heard] += np.add.reduceat(rx, starts)
    return p_s, total - p_s + far, p_s > 0.0


def _blocks(n: int, seed: int, stream_base: int = 0):
    """(rows, rng) per block, block k on substream(seed, stream_base + k)."""
    for k in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        yield min(BLOCK_SIZE, n - k * BLOCK_SIZE), substream(seed, stream_base + k)


# pilot runs (radius calibration) draw from streams far above any block index
_PILOT_STREAM_BASE = 1 << 48
_PILOT_N = 1000
_FAR_FIELD_SD_FRACTION = 0.01  # of the pilot's median interference


def _simulate_blocks(spec: NetworkSpec, r_max: float, n: int, seed: int,
                     stream_base: int = 0):
    """Yield (p_s, p_i, n_rejected) arrays, BLOCK_SIZE realizations at a time.

    Degenerate rows (no positive received power within r_max) are redrawn
    from the continuation of the same substream, so acceptance conditioning
    is explicit and the whole stream stays a pure function of (seed, spec).
    A field with no audible station, a tier whose power scale P r_max^-eps is
    not a normal float (all-zero rows would be redrawn forever), a far-field
    mean past the float range, or a block expecting over _MAX_BLOCK_STATIONS
    stations is refused before any draw.
    """
    rows = min(BLOCK_SIZE, n)
    stations = rows * _stations_per_row(spec, r_max)  # refuses an inaudible field
    try:  # each tier's power scale, as _block_ps_pi computes it
        gains = [power * r_max ** (-spec.epsilon) for _, power in heard_tiers(spec)]
    except OverflowError:
        gains = [math.inf]
    if not (sys.float_info.min <= min(gains) <= max(gains) < math.inf
            and math.isfinite(_far_field_mean(spec, r_max))):
        raise UnsupportedSettingError(f"received power P r_max^-eps or its far-field mean"
                                      f" at r_max={r_max:.6g} is outside the float range")
    if stations > _MAX_BLOCK_STATIONS:
        raise UnsupportedSettingError(
            f"r_max={r_max:.6g} expects {stations:.3g} stations in a block of {rows}"
            f" rows, above the limit of {_MAX_BLOCK_STATIONS}; pass a smaller r_max")
    buf = _DrawBuffer()

    def block(rows, rng):
        p_s, p_i, ok = _block_ps_pi(spec, r_max, rows, rng, buf)
        rejected = 0
        while not ok.all():
            bad = ~ok
            rejected += (redrawn := int(bad.sum()))
            p_s[bad], p_i[bad], ok[bad] = _block_ps_pi(spec, r_max, redrawn, rng, buf)
        return p_s, p_i, rejected

    # at most 2 blocks a thread in flight; substreams are made in this thread
    threads = min(sampler_threads(), int(_MAX_BLOCK_STATIONS // max(stations, 1.0)))
    pool, pending = ThreadPoolExecutor(max_workers=threads), []
    try:
        for rows, rng in _blocks(n, seed, stream_base):
            pending.append(pool.submit(block, rows, rng))
            if len(pending) == 2 * threads:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    except FloatingPointError as exc:
        raise UnsupportedSettingError(
            f"received powers at r_max={r_max:.6g} overflow the float range") from exc
    finally:  # a closed or failed run leaves no thread behind
        pool.shutdown(cancel_futures=True)


def default_r_max(spec: NetworkSpec, *, seed: int = 0) -> float:
    """Truncation radius beyond which the far field's fluctuation is negligible.

    The far field's mean is compensated exactly; its standard deviation is
    c r^(l/2-eps), c = sqrt(sum_i lambda'_i P_i^2 E[Psi^2] b / (2 eps - l)).
    A pilot run at the radius holding 200 heard stations a row estimates the
    typical (median) total interference, and the radius solves
    c r^(l/2-eps) = 1% of it.  The median is used because the mean
    interference diverges for eps >= 2l and a sample mean would be dominated
    by rare close pairs.  The radius is at least the one holding 20 heard
    stations a row, so a row is empty with probability e^-20: redrawing empty
    rows would condition the field.
    """
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    unit = _stations_per_row(spec, 1.0)  # refuses an inaudible field first
    r_pilot = (200.0 / unit) ** (1.0 / l)
    pilot = [p_i for _, p_i, _ in _simulate_blocks(spec, r_pilot, _PILOT_N, seed,
                                                    stream_base=_PILOT_STREAM_BASE)]
    typical = float(np.median(np.concatenate(pilot)))
    # the pilot has refused MomentFading, whose moment(2) is not E[Psi^2]
    c = math.sqrt(sum(lam * p * p for lam, p in heard_tiers(spec))
                  * spec.fading.moment(2.0) * b / (2.0 * eps - l))
    for name, x in (("pilot median interference", typical), ("far-field scale c", c)):
        if not 0.0 < x < math.inf:
            raise UnsupportedSettingError(f"{name}={x:.3g} is out of float range")
    r = (_FAR_FIELD_SD_FRACTION * typical / c) ** (1.0 / (0.5 * l - eps))
    return max(r, (20.0 / unit) ** (1.0 / l))


def _require_fewbs_setting(spec: NetworkSpec):
    if len(spec.tiers) != 1 or spec.tiers[0].sector is not None:
        raise UnsupportedSettingError(
            "the strongest-two approximation is derived for a single"
            " unsectored tier with constant power"
        )
    if not isinstance(spec.fading, NoFading):
        raise UnsupportedSettingError(
            "the strongest-two approximation is derived without fading"
        )
    if spec.tiers[0].power <= 0:
        raise UnsupportedSettingError("tier power must be positive")


def _empirical(etas, n, seed, method, blocks: Iterator) -> EmpiricalTail:
    """Count ratio values above each eta over ``blocks`` and assemble the tail.

    ``blocks`` is a lazy iterator of (ratio values, rejections, truncation
    radius, expected stations per row) per block; it starts drawing only
    after etas, n and seed have been checked.
    """
    etas = [float(e) for e in etas]
    if not all(eta >= 0 for eta in etas):
        raise ValueError(f"every eta must be >= 0, got {etas}")
    if etas != sorted(etas):
        raise ValueError("etas must be sorted ascending")
    for name, value in (("n", n), ("seed", seed)):
        try:
            operator.index(value)  # numpy integers pass
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = np.zeros(len(etas), dtype=np.int64)
    rejected = 0
    eta_arr = np.asarray(etas)
    for vals, rej, r_max, stations in blocks:
        counts += (vals[:, None] > eta_arr[None, :]).sum(axis=0)
        rejected += rej
    tails = counts / n
    hw = Z99 * np.sqrt(tails * (1.0 - tails) / n)
    return EmpiricalTail(
        etas=tuple(etas), tails=tuple(float(t) for t in tails),
        halfwidths=tuple(float(h) for h in hw),
        n=n, seed=seed, method=method, n_rejected=rejected, r_max=r_max,
        stations_per_row=stations,
    )


def _field_ratios(spec: NetworkSpec, n: int, seed: int, r_max: Optional[float],
                  noise: float):
    """C/(I+noise) of the block sampler's realizations, block by block."""
    if r_max is None:
        r_max = default_r_max(spec, seed=seed)
    elif not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max}")
    for p_s, p_i, rej in _simulate_blocks(spec, r_max, n, seed):
        yield p_s / (p_i + noise), rej, r_max, _stations_per_row(spec, r_max)


def empirical_tail_ci(spec: NetworkSpec, etas: Sequence[float], n: int,
                      seed: int, *, r_max: Optional[float] = None) -> EmpiricalTail:
    """Empirical tail of C/I; realizations are shared across all etas."""
    return _empirical(etas, n, seed, "mc-ci", _field_ratios(spec, n, seed, r_max, 0.0))


def empirical_tail_cin(spec: NetworkSpec, etas: Sequence[float], n: int,
                       seed: int, *, r_max: Optional[float] = None) -> EmpiricalTail:
    """Empirical tail of C/(I+N); same realizations as the C/I run at equal seed."""
    return _empirical(etas, n, seed, "mc-cin",
                      _field_ratios(spec, n, seed, r_max, spec.noise))


def _fewbs_ratios(spec: NetworkSpec, n: int, seed: int):
    """C/I_2 block by block: the two nearest stations drawn exactly."""
    l, b, eps = spec.dim.l, spec.dim.b, spec.epsilon
    lam = spec.tiers[0].density
    kpow = spec.tiers[0].power
    for rows, rng in _blocks(n, seed):
        t = rng.exponential(size=(rows, 2)).cumsum(axis=1)
        radii = (l * t / (lam * b)) ** (1.0 / l)
        p_s, p_2 = (kpow * radii**-eps).T
        yield p_s / (p_2 + _far_field_mean(spec, radii[:, 1])), 0, None, None


def empirical_tail_fewbs(spec: NetworkSpec, etas: Sequence[float], n: int,
                         seed: int) -> EmpiricalTail:
    """Empirical tail of the strongest-two approximation C/I_2 (tail_ci2).

    Per realization the two nearest stations are sampled exactly (no field
    truncation is needed) and interference is the second station plus the
    conditional mean beyond it.  Only the constant power, unfaded
    single-tier setting is supported.
    """
    _require_fewbs_setting(spec)
    return _empirical(etas, n, seed, "mc-fewbs2", _fewbs_ratios(spec, n, seed))
