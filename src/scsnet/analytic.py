"""Analytic signal-quality laws for the canonical Poisson network.

With stations at unit density, unit power and no fading, write a = l/eps and
T_i for the unit-rate arrival times of the ordered station distances
(T = b_l R^l / l).  The module provides:

* the characteristic functions of the reciprocal ratios: (C/I)^-1, which is
  1 / 1F1(-a; 1-a; i*w) and depends on eps/l alone, and (C/(I+N'))^-1, an
  average of the charfn conditioned on the nearest-station distance;
* exact tail probabilities P(C/I > eta) and P(C/(I+N') > eta).  Below
  eta = 1/4 they come from numerical inversion of those characteristic
  functions.  On [1/4, inf) at most ceil(1/eta) <= 4 stations can beat the
  threshold, and an exact sum of that many factorial moments gives the
  tail; on [1, inf) it is the power law P(C/I > eta) = sinc(pi a) eta^-a,
  times one smooth noise quadrature for C/(I+N').  ``tol`` bounds the route;
* the strongest-two-interferer approximation C/I_2, whose tail is one
  closed-form expression on the whole range, built from the G integral;
* a lookup table of C/(I+N') tails over (epsilon, N', eta) grids, the
  reader's side of the "reduce then read out" workflow.

C/(I+N') genuinely depends on the dimension l (through the noise scale),
unlike C/I; the canonical system carries that information.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .network import CanonicalSystem, Dimension, NetworkSpec, SpecError, canonicalize
from .numerics import (
    InversionError,
    check_ratio,
    g_integral,
    gauss_legendre_panels,
    invert_tail,
    kummer_1f1_neg_a,
    simplex_rule,
)

__all__ = [
    "LookupTable",
    "LookupRangeError",
    "charfn_inv_ci",
    "charfn_inv_cin",
    "tail_ci",
    "tail_ci_closed",
    "tail_ci2",
    "tail_cin",
    "tail_cin_closed",
    "build_lookup_table",
    "default_table_grids",
    "lookup",
]


class LookupRangeError(ValueError):
    """A lookup query fell outside the table's grid hull (no extrapolation)."""


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def charfn_inv_ci(ratio: float, omega):
    """Charfn of (C/I)^-1: the reciprocal of 1F1(-1/ratio; 1-1/ratio; i*w).

    Depends on the system only through ratio = eps/l, which is why C/I is
    blind to density, power scale, and (after reduction) fading.
    """
    check_ratio(ratio)
    return 1.0 / kummer_1f1_neg_a(1.0 / ratio, omega)


def _noise_scale(canon: CanonicalSystem) -> float:
    """g = N'^(l/eps) l/b_l, the noise scale: N' (l T/b_l)^(eps/l) = (g T)^(eps/l).

    g stays in range where N' (l/b_l)^(eps/l) would underflow or overflow.
    """
    return canon.nprime ** (1.0 / canon.ratio) * canon.dim.l / canon.dim.b


# Relative panel layout for the rotated-ray integral, shared by every omega:
# geometric panels of [0, 1] refined toward 0, 16-point Gauss each.
_RAY_U, _RAY_W = gauss_legendre_panels(
    np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 24)]))
_RAY_SPAN = 60.0  # e-foldings of decay covered along the ray
_RAY_ARG_MAX = 0.4 * math.pi  # cap on arg(e^{i psi} F), never met at eps/l >= 1.25


def charfn_inv_cin(canon: CanonicalSystem, omega):
    """Charfn of (C/(I+N'))^-1 for the canonical system.

    Given the nearest station at r, the stations beyond it are a fresh
    Poisson field: E[e^{i w I} | R_1 = r] = exp(t (1 - 1F1(-a; 1-a; i w r^-eps)))
    with t = b_l r^l / l.  Scaling by C = r^-eps and averaging over the
    nearest-distance law e^-t dt gives

        phi(w) = int_0^inf exp(-t F(w) + i w N' (l t / b_l)^(eps/l)) dt,

    with F(w) = 1F1(-a; 1-a; i*w).  The integrand is analytic in t and both
    exponential factors decay inside the sector 0 < arg t < a*pi/2 (Re(tF) > 0
    there because arg F lies in (-a*pi/2, 0], and Re(i w (..)^(eps/l) t^(eps/l))
    <= 0 up to arg t = a*pi), so the contour is rotated to the ray
    t = L u e^{i psi}, u in [0, 1], L = 60 / Re(e^{i psi} F), psi = a*pi/2.
    There t^(eps/l) = i (L u)^(eps/l): the noise phase is the real decay
    -w (g L)^(eps/l) u^(eps/l), g = _noise_scale(canon), and the exponent is
    real outer products plus i times -L Im(e^{i psi} F) u.  That last factor
    turns 60 tan(psi + arg F) radians, which near eps/l = 1 and at small w
    outruns the panels, so there psi is capped at _RAY_ARG_MAX - arg F.
    """
    a, rho = canon.a, canon.ratio
    g = _noise_scale(canon)
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w1 = np.atleast_1d(w)
    out = np.empty(w1.shape, dtype=complex)
    zero = w1 == 0.0
    out[zero] = 1.0
    wa = np.abs(w1[~zero])
    psi_max = a * math.pi / 2
    u_rho = _RAY_U**rho
    vals = np.empty(wa.shape, dtype=complex)
    # chunk the omega axis: each chunk builds an (n_w, n_t) node matrix
    for lo in range(0, wa.size, 2048):
        wc = wa[lo:lo + 2048]
        F = np.atleast_1d(kummer_1f1_neg_a(a, wc))
        psi = np.minimum(psi_max, _RAY_ARG_MAX - np.angle(F))
        capped, ray = psi < psi_max, np.exp(1j * psi)
        rF = ray * F
        L = _RAY_SPAN / rF.real
        decay = wc * (g * L)**rho * np.where(capped, np.sin(rho * psi), 1.0)
        phase = np.empty((wc.size, _RAY_U.size), dtype=complex)
        np.multiply.outer(-decay, u_rho, out=phase.real)
        phase.real -= _RAY_SPAN * _RAY_U
        np.multiply.outer(-L * rF.imag, _RAY_U, out=phase.imag)
        # a capped ray's noise phase has the imaginary part w (g L u)^rho cos(rho psi)
        phase.imag[capped] += np.multiply.outer(
            decay[capped] / np.tan(rho * psi[capped]), u_rho)
        # weight in place and sum rows: `@` would hand this to BLAS threads
        np.multiply(np.exp(phase, out=phase), _RAY_W, out=phase)
        vals[lo:lo + 2048] = phase.sum(axis=1) * ray * L
    neg = w1[~zero] < 0
    vals[neg] = np.conj(vals[neg])
    out[~zero] = vals
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def tail_ci(ratio: float, eta: float, *, tol: float = 1e-6) -> float:
    """P(C/I > eta); depends on eps/l only.

    C/I is C/(I+N') without noise, so this is tail_cin at N' = 0 on the
    system with l = 1 and eps = ratio: 1 at eta = 0, the sinc law
    tail_ci_closed on [1, inf), the factorial-moment sum on [1/4, 1), and
    below 1/4 charfn_inv_ci inverted; to ``tol`` absolute, clamped to [0, 1].
    """
    check_ratio(ratio)
    return tail_cin(CanonicalSystem(Dimension(1), ratio, 0.0), eta, tol=tol)


def tail_ci_closed(ratio: float, eta: float) -> float:
    """Exact tail sin(pi a)/(pi a) * eta^-a on [1, inf): tail_cin_closed at N' = 0.

    For eta >= 1 at most one station can beat eta times the rest, so the
    tail is the mean number that do.  By Campbell-Mecke and Slivnyak that is
    (b/l) eta^-a E[I^-a], with I the interference of the unit field, which
    is positive stable: E[e^-sI] = exp(-(b/l) Gamma(1-a) s^a).  Hence
    E[I^-a] = 1 / ((b/l) Gamma(1-a) Gamma(1+a)) and the sinc constant.
    """
    check_ratio(ratio)
    return tail_cin_closed(CanonicalSystem(Dimension(1), ratio, 0.0), eta)


def _noise_damping(canon: CanonicalSystem, n: int = 1):
    """int_0^inf v^(n-1) e^(-v - c v^(eps/l)) dv / Gamma(n): (value, error, evals).

    c = N' k^(-eps/l), k = (b/l) Gamma(1-a).  The integrand is positive and
    unimodal, without oscillation; its width is about s = 1 / (1 + c^(l/eps)),
    and v = s x puts it on a unit scale for any noise level, where quad on
    [0, inf) would otherwise miss the narrow peak of a very noisy system.
    Without noise the integral is 1 exactly, and no quadrature runs; with
    noise it is below 1, so quad's rounding above 1 at tiny N' is clamped.
    """
    if canon.nprime == 0.0:
        return 1.0, 0.0, 0
    rho = canon.ratio
    c_root = _noise_scale(canon) / math.gamma(1.0 - canon.a)  # c^(l/eps)
    s = 1.0 / (1.0 + c_root)
    q = (c_root * s) ** rho  # c s^(eps/l), at most 1

    def f(x):  # 0 where x^(eps/l) passes the float range: exp(-inf)
        try:
            return x ** (n - 1) * math.exp(-s * x - q * x**rho)
        except OverflowError:
            return 0.0
    val, err, info = quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-12,
                          limit=200, full_output=1)[:3]
    scale = s**n / math.gamma(n)
    return min(1.0, scale * val), scale * err, info["neval"]


def _factorial_tail(canon: CanonicalSystem, eta: float, tol: float) -> float:
    """Exact P(C/(I+N') > eta), eta >= 1/4: sum_{n=1}^N (-1)^(n+1) A_n D_n.

    Term n, the n-th factorial moment of the number of stations that beat
    eta, is 0 past N = ceil(1/eta) (Blaszczyszyn & Keeler, IEEE Trans. IT
    2015).  Slivnyak-Mecke and the stable law of I factor it into
    D_n = _noise_damping and, with k = Gamma(1-a) and m = 1/eta - (n-1),
    A_n = a^(n-1) m^(na+n-1) J_n / (Gamma(na+1) k^n), where J_n integrates
    (1 - sum z)^(na) prod_j (1 + m z_j)^(-a-1) over the (n-1)-simplex:
    simplex_rule's 16-node rule, less its 12-node rule for the error.  A_1
    is the sinc law.  Raises InversionError carrying the value if
    sum_n |dA_n| D_n + A_n dD_n exceeds ``tol``.
    """
    a = 1.0 / canon.ratio  # C/I's exponent, so that N' = 0 gives tail_ci's floats
    k = math.gamma(1.0 - a)
    value, error, evals = 0.0, 0.0, 0
    for n in range(1, math.ceil(1.0 / eta) + 1):
        if n == 1:
            pa = math.pi / canon.ratio
            A, dA = math.sin(pa) / pa * eta ** -a, 0.0
        else:
            m = 1.0 / eta - (n - 1)
            J, J12 = (float(np.sum(w * np.prod((1.0 + m * z) ** (-a - 1.0), axis=1)))
                      for z, w in (simplex_rule(n - 1, n * a, q) for q in (16, 12)))
            c = a ** (n - 1) * m ** (n * a + n - 1) / (math.gamma(n * a + 1.0) * k**n)
            A, dA = c * J, c * abs(J - J12)
            evals += 16 ** (n - 1) + 12 ** (n - 1)
        D, dD, neval = _noise_damping(canon, n)
        value += (-1) ** (n + 1) * A * D
        error += dA * D + A * dD
        evals += neval
    if error > tol:
        raise InversionError(f"factorial-moment sum missed its tolerance "
                             f"(estimated error {error:.2e})", value, error, evals)
    return value


def tail_cin_closed(canon: CanonicalSystem, eta: float, *, tol: float = 1e-5) -> float:
    """Exact P(C/(I+N') > eta) on [1, inf): _factorial_tail's one term,
    tail_ci_closed times _noise_damping.  Raises InversionError if quad's
    error estimate, scaled like the value, exceeds ``tol``."""
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if not (eta >= 1.0):
        raise ValueError(f"the closed form holds only on [1, inf), got eta={eta}")
    return _factorial_tail(canon, eta, tol)


def tail_ci2(ratio: float, eta: float) -> float:
    """Closed-form tail of the strongest-two approximation C/I_2.

    The second-nearest interferer is kept exactly and everything beyond it
    is replaced by its conditional mean, which yields one expression for
    every eta > 0,

        P(C/I_2 > eta) = 1 - (1+u) e^-u + eta^-a G(u),
        u = (ratio-1) max(0, 1/eta - 1),

    with G from g_integral.  On eta >= 1, u = 0 and the first two terms
    cancel exactly, leaving eta^-a G(0); as eta -> 0 the tail approaches 1.
    """
    check_ratio(ratio)
    if not (eta >= 0):
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return 1.0
    u = (ratio - 1.0) * max(0.0, 1.0 / eta - 1.0)
    if u > 745.0:  # exp underflow: both corrections vanish
        return 1.0
    return 1.0 - (1.0 + u) * math.exp(-u) + eta ** (-1.0 / ratio) * g_integral(u, ratio)


def _cin_char_scale(canon: CanonicalSystem) -> float:
    # Dominant oscillation frequency of the C/(I+N') charfn: the unit mode plus
    # E[(g T)^(eps/l)], in logs as Gamma(eps/l + 1) overflows past 171; g is 0
    # only for a subnormal N', whose noise term is 0.
    rho, g = canon.ratio, _noise_scale(canon)
    log_noise = rho * math.log(g) + math.lgamma(rho + 1.0) if g > 0.0 else -math.inf
    return 1.0 + (math.exp(log_noise) if log_noise < 709.0 else math.inf)


def tail_cin(canon: CanonicalSystem, eta: float, *, tol: float = 1e-5) -> float:
    """P(C/(I+N') > eta) for the canonical system; at N' = 0 this is C/I.

    The one place a tail's route is chosen, for tail_ci too.  eta = 0
    returns 1.  On [1/4, inf) the answer is the exact _factorial_tail, at
    most four terms, of which tail_cin_closed is the one-term case on
    [1, inf).  Below 1/4 the reciprocal ratio's charfn is inverted:
    charfn_inv_ci at N' = 0, else charfn_inv_cin.  Substituting t = tau w^-a
    in the latter's integral and rotating tau = u e^{i a pi/2} gives the
    exact envelope A_N w^-a: the C/I coefficient, which invert_tail
    derives from a, damped by _noise_damping.  Noise damps the next term
    likewise, so invert_tail's remainder bound holds.  ``tol`` is the
    absolute accuracy of whichever route runs; the value is clamped to
    [0, 1].
    """
    if not (eta >= 0):
        raise ValueError(f"eta must be >= 0, got {eta}")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if eta == 0:
        return 1.0
    if eta >= 0.25:
        return min(1.0, max(0.0, _factorial_tail(canon, eta, tol)))
    charfn = (functools.partial(charfn_inv_ci, canon.ratio) if canon.nprime == 0.0
              else functools.partial(charfn_inv_cin, canon))
    res = invert_tail(charfn, eta, p=1.0 / canon.ratio,
                      damping=_noise_damping(canon)[0], tol=tol,
                      char_scale=_cin_char_scale(canon))
    return min(1.0, max(0.0, res.value))


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
        grids = _grids(self.l, self.epsilons, self.nprimes, self.etas)
        v = np.asarray(self.values, dtype=float)
        if v.shape != tuple(len(g) for g in grids.values()):
            raise ValueError("values shape must match the grids")
        if not np.all((v >= 0) & (v <= 1)):
            raise ValueError("table values must lie in [0, 1]")
        for name, value in {**grids, "values": v}.items():
            object.__setattr__(self, name, value)

    def to_csv(self, path) -> None:
        """Write `l,epsilon,nprime,eta,tail` rows at full float precision."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("l,epsilon,nprime,eta,tail\n")
            cells = itertools.product(self.epsilons, self.nprimes, self.etas)
            for (eps, npr, eta), tail in zip(cells, self.values.ravel()):
                fh.write(f"{self.l},{eps!r},{npr!r},{eta!r},{float(tail)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "LookupTable":
        """Reload a table written by to_csv, in its layout: each cell of the
        sorted grids once, in itertools.product order.  The round trip is exact."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "l,epsilon,nprime,eta,tail":
                raise ValueError(f"unexpected lookup-table header: {header!r}")
            rows = []
            for k, line in enumerate(fh, 2):
                if len(fields := line.split(",")) != 5:
                    raise ValueError(f"{path} line {k}: expected 5 comma-separated fields")
                try:
                    rows.append((int(fields[0]), *map(float, fields[1:])))
                except ValueError:
                    raise ValueError(f"{path} line {k}: expected an integer l and four "
                                     f"numbers, got {line.strip()!r}") from None
        if not rows:
            raise ValueError(f"{path}: lookup table has no cells")
        ls, *grids = [tuple(sorted({r[c] for r in rows})) for c in range(4)]
        if len(ls) != 1:
            raise ValueError(f"lookup table must have one l, got {list(ls)}")
        cells = itertools.product(*grids)
        for k, (row, cell) in enumerate(itertools.zip_longest(rows, cells), 2):
            if row is None:
                raise ValueError("lookup table grid is not complete")
            if row[1:4] != cell:
                raise ValueError("lookup table line {} lists epsilon={!r}, nprime={!r}, "
                                 "eta={!r} twice or out of order".format(k, *row[1:4]))
        return cls(ls[0], *grids, np.reshape([r[4] for r in rows],
                                                tuple(map(len, grids))))


def _grids(l: int, epsilons, nprimes, etas):
    """The grids by name as float tuples, each nonempty, finite, strictly
    increasing and in its domain: eps > l, N' > 0, eta >= 0.  A dimension
    that Dimension refuses raises ValueError: a table is not a spec."""
    try:
        Dimension(l)
    except SpecError as e:
        raise ValueError(f"lookup table {e}") from None
    grids = {}
    for name, grid, in_domain, domain in (
        ("epsilons", epsilons, lambda x: x > l, f"> l={l}"),
        ("nprimes", nprimes, lambda x: x > 0, "> 0"),
        ("etas", etas, lambda x: x >= 0, ">= 0"),
    ):
        g = grids[name] = tuple(map(float, grid))
        # a strictly increasing grid lies between its ends
        if not (g and in_domain(g[0]) and math.isfinite(g[-1])
                and all(x < y for x, y in zip(g, g[1:]))):
            raise ValueError(f"{name} must be nonempty, finite, strictly "
                             f"increasing and {domain}, got {list(g)}")
    return grids


def default_table_grids(l: int = 2):
    """Default grids: epsilon 2.5..5, N' log-spaced 1e-6..1e2, eta 0.1..10."""
    epsilons = tuple(2.5 + 0.5 * i for i in range(6) if 2.5 + 0.5 * i > l)
    nprimes = tuple(float(x) for x in np.logspace(-6, 2, 33))
    etas = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
    return epsilons, nprimes, etas


def build_lookup_table(l: int, epsilon_grid: Sequence[float],
                       nprime_grid: Sequence[float],
                       eta_grid: Sequence[float]) -> LookupTable:
    """Tabulate tail_cin, at its default tol, over the grid.

    The grids are checked as LookupTable checks them, before any cell is
    computed.  The cells are then computed one after another in the calling
    thread, in row-major (epsilon, N', eta) order; only the Monte Carlo
    sampler uses several threads.
    """
    grids = _grids(l, epsilon_grid, nprime_grid, eta_grid)
    epsilons, nprimes, etas = grids.values()
    dim = Dimension(l)
    values = np.array([[[tail_cin(CanonicalSystem(dim=dim, epsilon=eps, nprime=npr), eta)
                         for eta in etas] for npr in nprimes] for eps in epsilons])
    return LookupTable(l=l, values=values, **grids)


def lookup(table: LookupTable, spec: NetworkSpec, eta: float) -> float:
    """Read the C/(I+N) tail for a full network spec out of the table.

    The spec is first reduced to (epsilon, N'); the value is bilinearly
    interpolated in (epsilon, log N') at the requested eta, which must be in
    table.etas.  Queries outside the grid hull raise rather than extrapolate.
    """
    return _read_out(table, canonicalize(spec), eta)


def _read_out(table: LookupTable, canon: CanonicalSystem, eta: float) -> float:
    """lookup's read-out, for a spec already reduced to canon."""
    if canon.dim.l != table.l:
        raise LookupRangeError(
            f"table is for l={table.l}, spec has l={canon.dim.l}"
        )
    if eta not in table.etas:
        raise LookupRangeError(f"eta={eta} is not a grid value of the table")
    eps, npr = canon.epsilon, canon.nprime
    eps_g, npr_g = table.epsilons, table.nprimes
    if not (eps_g[0] <= eps <= eps_g[-1]):
        raise LookupRangeError(f"epsilon={eps} outside table hull "
                               f"[{eps_g[0]}, {eps_g[-1]}]")
    if not (npr_g[0] <= npr <= npr_g[-1]):
        raise LookupRangeError(f"N'={npr} outside table hull "
                               f"[{npr_g[0]}, {npr_g[-1]}]")
    # bilinear is separable: along log N' in each epsilon row, then across
    # epsilon; one log for query and grid keeps grid points exact
    log_npr = [math.log(x) for x in npr_g]
    rows = [np.interp(math.log(npr), log_npr, r)
            for r in table.values[:, :, table.etas.index(eta)]]
    return float(np.interp(eps, eps_g, rows))
