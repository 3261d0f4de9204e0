"""Analytic signal-quality laws for the canonical Poisson network.

With stations at unit density, unit power and no fading, write a = l/eps and
T_i for the unit-rate arrival times of the ordered station distances
(T = b_l R^l / l).  The module provides:

* the characteristic function of the total interference conditioned on the
  nearest-station distance, and of the reciprocal ratio (C/I)^-1, which is
  1 / 1F1(-a; 1-a; i*w) and depends on eps/l alone;
* exact tail probabilities P(C/I > eta) and P(C/(I+N') > eta).  Below
  eta = 1 they come from numerical inversion of those characteristic
  functions.  On [1, inf) at most one station can beat the threshold, and
  Campbell-Mecke gives exact forms: the power law
  P(C/I > eta) = sinc(pi a) eta^-a, and for C/(I+N') one smooth,
  non-oscillating quadrature.  ``tol`` bounds whichever quadrature runs;
  the C/I power law runs none;
* the strongest-two-interferer approximation C/I_2, whose tail is closed
  form on the whole range, built from the G integral;
* a lookup table of C/(I+N') tails over (epsilon, N', eta) grids, the
  reader's side of the "reduce then read out" workflow.

C/(I+N') genuinely depends on the dimension l (through the noise scale),
unlike C/I; the canonical system carries that information.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .network import CanonicalSystem, Dimension, NetworkSpec, canonicalize
from .numerics import (
    InversionError,
    g_integral,
    invert_tail,
    kummer_1f1_neg_a,
)

__all__ = [
    "TailCurve",
    "FewBsParams",
    "LookupTable",
    "LookupRangeError",
    "NumericDegeneracyError",
    "charfn_interference_given_r1",
    "charfn_inv_ci",
    "charfn_inv_cin",
    "tail_ci",
    "tail_ci_closed",
    "few_bs_params",
    "tail_ci2",
    "conditional_tail_mean",
    "tail_cin",
    "tail_cin_closed",
    "build_lookup_table",
    "default_table_grids",
    "lookup",
]


class LookupRangeError(ValueError):
    """A lookup query fell outside the table's grid hull (no extrapolation)."""


class NumericDegeneracyError(ArithmeticError):
    """A characteristic-function denominator lost all its magnitude."""


@dataclass(frozen=True)
class TailCurve:
    """Evaluated tail-probability points for one system and one method."""

    etas: Tuple[float, ...]
    probs: Tuple[float, ...]
    method: str
    meta: Optional[CanonicalSystem] = None

    def __post_init__(self):
        if len(self.etas) != len(self.probs):
            raise ValueError("etas and probs must align")
        if any(p < -1e-12 or p > 1 + 1e-12 for p in self.probs):
            raise ValueError("tail probabilities must lie in [0, 1]")
        pairs = sorted(zip(self.etas, self.probs))
        for (_, p0), (_, p1) in zip(pairs, pairs[1:]):
            if p1 > p0 + 1e-6:
                raise ValueError("tail probabilities must be nonincreasing in eta")


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def charfn_interference_given_r1(
    dim: Dimension, epsilon: float, lambda0: float, power: float, omega, r1: float
):
    """Charfn of total interference given nearest-station distance r1.

    E[e^{i w P_I} | R_1 = r1] =
        exp( (lambda0 b r1^l / l) * (1 - 1F1(-a; 1-a; i w K / r1^eps)) ),
    a characteristic function, so its modulus never exceeds 1.
    """
    if r1 <= 0:
        raise ValueError(f"r1 must be > 0, got {r1}")
    if epsilon <= dim.l:
        raise ValueError(f"epsilon={epsilon} must exceed l={dim.l}")
    a = dim.l / epsilon
    w = np.asarray(omega, dtype=float)
    arg = w * power / r1**epsilon
    f = kummer_1f1_neg_a(a, arg)
    return np.exp((lambda0 * dim.b * r1**dim.l / dim.l) * (1.0 - f))


def charfn_inv_ci(ratio: float, omega):
    """Charfn of (C/I)^-1: the reciprocal of 1F1(-1/ratio; 1-1/ratio; i*w).

    Depends on the system only through ratio = eps/l, which is why C/I is
    blind to density, power scale, and (after reduction) fading.
    """
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    denom = kummer_1f1_neg_a(1.0 / ratio, omega)
    if np.any(np.abs(denom) < 1e-300):
        raise NumericDegeneracyError("1F1 denominator magnitude below 1e-300")
    return 1.0 / denom


# Relative panel layout for the rotated-ray integral, shared by every omega:
# geometric panels of [0, 1] refined toward 0, 16-point Gauss each.
_RAY_EDGES = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 24)])
_GL_N, _GL_W = np.polynomial.legendre.leggauss(16)
_RAY_U = (
    0.5 * (_RAY_EDGES[1:] + _RAY_EDGES[:-1])[:, None]
    + 0.5 * np.diff(_RAY_EDGES)[:, None] * _GL_N[None, :]
).ravel()
_RAY_W = (0.5 * np.diff(_RAY_EDGES)[:, None] * _GL_W[None, :]).ravel()
_RAY_SPAN = 60.0  # e-foldings of decay covered along the ray


def charfn_inv_cin(canon: CanonicalSystem, omega):
    """Charfn of (C/(I+N'))^-1 for the canonical system.

    Conditioning on the nearest distance and substituting t = b_l r^l / l
    (so the nearest-distance law becomes e^-t dt) gives

        phi(w) = int_0^inf exp(-t F(w) + i w N' (l t / b_l)^(eps/l)) dt,

    with F(w) = 1F1(-a; 1-a; i*w).  The integrand is analytic in t and both
    exponential factors decay inside the sector 0 < arg t < a*pi/2 (Re(tF) > 0
    there because arg F lies in (-a*pi/2, 0], and Re(i w (..)^(eps/l) t^(eps/l))
    <= 0 up to arg t = a*pi), so the contour is rotated to the ray
    t = xi e^{i a pi/2} where the oscillation is tamed and the integrand
    decays like exp(-xi |F|) times a noise-phase damping factor.
    """
    l, b = canon.dim.l, canon.dim.b
    a, rho = canon.a, canon.ratio
    c = canon.nprime * (l / b) ** rho
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w1 = np.atleast_1d(w)
    out = np.empty(w1.shape, dtype=complex)
    zero = w1 == 0.0
    out[zero] = 1.0
    wa = np.abs(w1[~zero])
    if wa.size:
        ray = complex(np.exp(1j * a * math.pi / 2))
        vals = np.empty(wa.shape, dtype=complex)
        # chunk the omega axis: each chunk builds an (n_w, n_t) node matrix
        for lo in range(0, wa.size, 2048):
            wc = wa[lo:lo + 2048]
            F = np.atleast_1d(kummer_1f1_neg_a(a, wc))
            lam = (ray * F).real
            if np.any(lam <= 0):  # decay guard; unreachable for this family
                raise NumericDegeneracyError("rotated-ray decay rate not positive")
            L = _RAY_SPAN / lam
            t = (L[:, None] * _RAY_U[None, :]) * ray
            phase = -t * F[:, None]
            phase += (1j * c) * wc[:, None] * t**rho
            vals[lo:lo + 2048] = (np.exp(phase) @ _RAY_W) * ray * L
        neg = w1[~zero] < 0
        vals[neg] = np.conj(vals[neg])
        out[~zero] = vals
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def _decay_ci(a: float) -> Tuple[float, complex]:
    # Exact leading envelope of 1/1F1: phi(w) ~ w^-a e^{i a pi/2} / Gamma(1-a).
    return a, complex(np.exp(1j * a * math.pi / 2)) / math.gamma(1.0 - a)


def tail_ci(ratio: float, eta: float, *, tol: float = 1e-6) -> float:
    """P(C/I > eta); depends on eps/l only.

    eta = 0 returns 1 (the ratio is nonnegative).  On [1, inf) the answer is
    the exact closed form tail_ci_closed and ``tol`` is unused.  Below 1 the
    characteristic function is inverted to ``tol`` absolute, with the
    large-w tail of the inversion integral handled analytically from the
    known w^(-l/eps) envelope.
    """
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return 1.0
    if eta >= 1.0:
        return tail_ci_closed(ratio, eta)
    a = 1.0 / ratio
    return invert_tail(
        lambda w: charfn_inv_ci(ratio, w), eta, tol=tol, decay=_decay_ci(a)
    )


def tail_ci_closed(ratio: float, eta: float) -> float:
    """Exact tail sin(pi a)/(pi a) * eta^-a on [1, inf), a = l/eps.

    For eta >= 1 at most one station can beat eta times the rest, so the
    tail is the mean number that do.  By Campbell-Mecke and Slivnyak that is
    (b/l) eta^-a E[I^-a], with I the interference of the unit field, which
    is positive stable: E[e^-sI] = exp(-(b/l) Gamma(1-a) s^a).  Hence
    E[I^-a] = 1 / ((b/l) Gamma(1-a) Gamma(1+a)) and the sinc constant.
    """
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if eta < 1.0:
        raise ValueError(f"the closed form holds only on [1, inf), got eta={eta}")
    pa = math.pi / ratio
    return math.sin(pa) / pa * eta ** (-1.0 / ratio)


def tail_cin_closed(canon: CanonicalSystem, eta: float, *, tol: float = 1e-5) -> float:
    """Exact P(C/(I+N') > eta) on [1, inf) by one smooth quadrature.

    The argument of tail_ci_closed with the noise added to the
    interference gives

        P = eta^-a (b/l)/Gamma(1+a) int_0^inf exp(-k u - N' u^(1/a)) du,

    k = (b/l) Gamma(1-a).  Substituting u = v/k leaves
    tail_ci_closed(eps/l, eta) * int_0^inf exp(-v - c v^(eps/l)) dv with
    c = N' k^(-eps/l): a positive, monotone integrand without oscillation.
    Its width is about s = 1 / (1 + c^(l/eps)); v = s x puts it on a unit
    scale for any noise level, where quad on [0, inf) would otherwise miss
    the narrow peak of a very noisy system.  Raises InversionError if quad's
    error estimate, scaled like the value, exceeds ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rho = canon.ratio
    k = canon.dim.b / canon.dim.l * math.gamma(1.0 - canon.a)
    c_root = canon.nprime ** (1.0 / rho) / k  # c^(l/eps)
    s = 1.0 / (1.0 + c_root)
    q = (c_root * s) ** rho  # c s^(eps/l), at most 1
    scale = tail_ci_closed(rho, eta) * s
    val, err, info = quad(lambda x: math.exp(-s * x - q * x**rho), 0.0, math.inf,
                          epsabs=1e-14, epsrel=1e-12, limit=200,
                          full_output=1)[:3]
    if scale * err > tol:
        raise InversionError(
            f"closed-form quadrature missed its tolerance "
            f"(estimated error {scale * err:.2e})",
            scale * val, scale * err, info["neval"],
        )
    return scale * val


@dataclass(frozen=True)
class FewBsParams:
    """Constants of the strongest-two-interferer tail for one ratio.

    u(1) = 0, so d(1) = c_const and the two branches meet continuously.
    """

    ratio: float
    c_const: float

    def u(self, eta: float) -> float:
        return (self.ratio - 1.0) * (1.0 / eta - 1.0)

    def d(self, eta: float) -> float:
        return g_integral(self.u(eta), self.ratio)


_FEWBS_CACHE: dict = {}


def few_bs_params(ratio: float) -> FewBsParams:
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if ratio not in _FEWBS_CACHE:
        _FEWBS_CACHE[ratio] = FewBsParams(ratio=ratio, c_const=g_integral(0.0, ratio))
    return _FEWBS_CACHE[ratio]


def tail_ci2(ratio: float, eta: float) -> float:
    """Closed-form tail of the strongest-two approximation C/I_2.

    The second-nearest interferer is kept exactly and everything beyond it
    is replaced by its conditional mean, which yields

        P(C/I_2 > eta) = eta^-a C                      for eta >= 1,
                         1 - (1+u) e^-u + eta^-a D(eta) for eta < 1,

    with u = (ratio-1)(1/eta - 1), C = G(0), D(eta) = G(u(eta)); continuous
    at eta = 1 and approaching 1 as eta -> 0.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return 1.0
    p = few_bs_params(ratio)
    a = 1.0 / ratio
    if eta >= 1.0:
        return eta ** (-a) * p.c_const
    u = p.u(eta)
    if u > 745.0:  # exp underflow: both corrections vanish
        return 1.0
    return 1.0 - (1.0 + u) * math.exp(-u) + eta ** (-a) * p.d(eta)


def conditional_tail_mean(
    lambda0: float, power: float, dim: Dimension, epsilon: float, r_k: float
) -> float:
    """Mean interference from stations beyond distance r_k, given r_k.

    E[ sum_{R_i > r_k} K R_i^-eps | R_k = r_k ] =
        lambda0 b_l K r_k^(l - eps) / (eps - l),
    the mean of the Poisson far field integrated from r_k.
    """
    if r_k <= 0:
        raise ValueError(f"r_k must be > 0, got {r_k}")
    if epsilon <= dim.l:
        raise ValueError(f"epsilon={epsilon} must exceed l={dim.l}")
    return lambda0 * dim.b * power * r_k ** (dim.l - epsilon) / (epsilon - dim.l)


def _cin_char_scale(canon: CanonicalSystem) -> float:
    # Dominant oscillation frequency of the C/(I+N') charfn: the unit mode
    # plus the noise term's typical scale N' * E[(l T / b)^(eps/l)].
    l, b = canon.dim.l, canon.dim.b
    rho = canon.ratio
    return 1.0 + canon.nprime * (l / b) ** rho * math.gamma(rho + 1.0)


def tail_cin(canon: CanonicalSystem, eta: float, *, tol: float = 1e-5) -> float:
    """P(C/(I+N') > eta) for the canonical system.

    eta = 0 returns 1, and N' = 0 is tail_ci at the same ratio.  On
    [1, inf) the answer is the exact tail_cin_closed.  Below 1 the
    reciprocal ratio's charfn (charfn_inv_cin) is inverted; its w^(-l/eps)
    envelope coefficient is fitted from period-averaged samples, since noise
    damps the envelope below the closed-form C/I value.  ``tol`` is the
    absolute accuracy of whichever quadrature runs.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return 1.0
    if canon.nprime == 0.0:
        return tail_ci(canon.ratio, eta, tol=tol)
    if eta >= 1.0:
        return tail_cin_closed(canon, eta, tol=tol)
    return invert_tail(
        lambda w: charfn_inv_cin(canon, w),
        eta,
        tol=tol,
        decay=canon.a,
        char_scale=_cin_char_scale(canon),
    )


# ---------------------------------------------------------------------------
# lookup table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LookupTable:
    """Tail probabilities of C/(I+N') tabulated over (epsilon, N', eta)."""

    l: int
    epsilons: Tuple[float, ...]
    nprimes: Tuple[float, ...]
    etas: Tuple[float, ...]
    values: np.ndarray = field(repr=False)  # shape (n_eps, n_nprime, n_eta)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.epsilons), len(self.nprimes), len(self.etas)):
            raise ValueError("values shape must match the grids")
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("table values must lie in [0, 1]")
        if any(n <= 0 for n in self.nprimes):
            raise ValueError("nprime grid must be positive")
        for name, grid in (("epsilons", self.epsilons),
                           ("nprimes", self.nprimes), ("etas", self.etas)):
            if list(grid) != sorted(grid):
                raise ValueError(f"{name} grid must be sorted ascending")
        object.__setattr__(self, "values", v)

    def to_csv(self, path) -> None:
        """Write `l,epsilon,nprime,eta,tail` rows at full float precision."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("l,epsilon,nprime,eta,tail\n")
            for i, eps in enumerate(self.epsilons):
                for j, npr in enumerate(self.nprimes):
                    for k, eta in enumerate(self.etas):
                        fh.write(
                            f"{self.l},{eps!r},{npr!r},{eta!r},"
                            f"{float(self.values[i, j, k])!r}\n"
                        )

    @classmethod
    def from_csv(cls, path) -> "LookupTable":
        """Reload a table written by to_csv; the round trip is exact."""
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "l,epsilon,nprime,eta,tail":
                raise ValueError(f"unexpected lookup-table header: {header!r}")
            for line in fh:
                l_s, eps_s, npr_s, eta_s, tail_s = line.strip().split(",")
                rows.append((int(l_s), float(eps_s), float(npr_s),
                             float(eta_s), float(tail_s)))
        if not rows:
            raise ValueError("empty lookup table")
        ls = {r[0] for r in rows}
        if len(ls) != 1:
            raise ValueError("lookup table must describe a single dimension")
        epsilons = tuple(sorted({r[1] for r in rows}))
        nprimes = tuple(sorted({r[2] for r in rows}))
        etas = tuple(sorted({r[3] for r in rows}))
        values = np.full((len(epsilons), len(nprimes), len(etas)), np.nan)
        ei = {e: i for i, e in enumerate(epsilons)}
        nj = {n: j for j, n in enumerate(nprimes)}
        ek = {t: k for k, t in enumerate(etas)}
        for l_, eps, npr, eta, tail in rows:
            values[ei[eps], nj[npr], ek[eta]] = tail
        if np.any(np.isnan(values)):
            raise ValueError("lookup table grid is not complete")
        return cls(l=ls.pop(), epsilons=epsilons, nprimes=nprimes,
                   etas=etas, values=values)


def default_table_grids(l: int = 2):
    """Default grids: epsilon 2.5..5, N' log-spaced 1e-6..1e2, eta 0.1..10."""
    epsilons = tuple(2.5 + 0.5 * i for i in range(6) if 2.5 + 0.5 * i > l)
    nprimes = tuple(float(x) for x in np.logspace(-6, 2, 33))
    etas = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
    return epsilons, nprimes, etas


def build_lookup_table(
    l: int,
    epsilon_grid: Sequence[float],
    nprime_grid: Sequence[float],
    eta_grid: Sequence[float],
    *,
    tol: float = 1e-5,
    threads: Optional[int] = None,
) -> LookupTable:
    """Tabulate tail_cin over the grid; cells are independent computations.

    Parallelism (capped by ``threads`` or the SCS_THREADS environment
    variable) distributes cells over a thread pool; results land by index,
    so the output is identical for any schedule.
    """
    if not (len(epsilon_grid) and len(nprime_grid) and len(eta_grid)):
        raise ValueError("all grids must be nonempty")
    nprimes = list(nprime_grid)
    if nprimes != sorted(nprimes) or nprimes[0] <= 0:
        raise ValueError("nprime grid must be positive and sorted")
    if threads is None:
        threads = int(os.environ.get("SCS_THREADS", "1"))
    dim = Dimension(l)
    eps_list = list(epsilon_grid)
    eta_list = list(eta_grid)
    values = np.empty((len(eps_list), len(nprimes), len(eta_list)))

    def cell(ij):
        i, j = ij
        canon = CanonicalSystem(dim=dim, epsilon=eps_list[i], nprime=nprimes[j])
        return [tail_cin(canon, eta, tol=tol) for eta in eta_list]

    pairs = [(i, j) for i in range(len(eps_list)) for j in range(len(nprimes))]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for (i, j), row in zip(pairs, pool.map(cell, pairs)):
                values[i, j, :] = row
    else:
        for i, j in pairs:
            values[i, j, :] = cell((i, j))
    return LookupTable(l=l, epsilons=tuple(eps_list), nprimes=tuple(nprimes),
                       etas=tuple(eta_list), values=values)


def lookup(table: LookupTable, spec: NetworkSpec, eta: float) -> float:
    """Read the C/(I+N) tail for a full network spec out of the table.

    The spec is first reduced to (epsilon, N'); the value is bilinearly
    interpolated in (epsilon, log N') at the requested eta, which must be a
    grid value.  Queries outside the grid hull raise rather than extrapolate.
    """
    canon = canonicalize(spec)
    if canon.dim.l != table.l:
        raise LookupRangeError(
            f"table is for l={table.l}, spec has l={canon.dim.l}"
        )
    eta_idx = None
    for k, e in enumerate(table.etas):
        if math.isclose(eta, e, rel_tol=1e-12, abs_tol=0.0):
            eta_idx = k
            break
    if eta_idx is None:
        raise LookupRangeError(f"eta={eta} is not a grid value of the table")
    eps, npr = canon.epsilon, canon.nprime
    eps_g, npr_g = table.epsilons, table.nprimes
    if not (eps_g[0] <= eps <= eps_g[-1]):
        raise LookupRangeError(f"epsilon={eps} outside table hull "
                               f"[{eps_g[0]}, {eps_g[-1]}]")
    if not (npr_g[0] <= npr <= npr_g[-1]):
        raise LookupRangeError(f"N'={npr} outside table hull "
                               f"[{npr_g[0]}, {npr_g[-1]}]")
    i = min(int(np.searchsorted(eps_g, eps, side="right")) - 1, len(eps_g) - 2)
    j = min(int(np.searchsorted(npr_g, npr, side="right")) - 1, len(npr_g) - 2)
    i = max(i, 0)
    j = max(j, 0)
    if len(eps_g) == 1:
        wi = 0.0
        i1 = i
    else:
        wi = (eps - eps_g[i]) / (eps_g[i + 1] - eps_g[i])
        i1 = i + 1
    if len(npr_g) == 1:
        wj = 0.0
        j1 = j
    else:
        # noise spans orders of magnitude: interpolate in log N'
        wj = (math.log(npr) - math.log(npr_g[j])) / (
            math.log(npr_g[j + 1]) - math.log(npr_g[j])
        )
        j1 = j + 1
    v = table.values
    return float(
        (1 - wi) * (1 - wj) * v[i, j, eta_idx]
        + (1 - wi) * wj * v[i, j1, eta_idx]
        + wi * (1 - wj) * v[i1, j, eta_idx]
        + wi * wj * v[i1, j1, eta_idx]
    )
