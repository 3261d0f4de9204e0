"""Special-function and quadrature kernels for signal-quality tail computations.

Four numerical primitives live here:

* ``kummer_1f1_neg_a`` evaluates the confluent hypergeometric function
  1F1(-a; 1-a; i*w) for a in (0, 1) and real w.  This is the only 1F1 family
  the interference model needs; the parameter pair (-a, 1-a) makes the series
  coefficients collapse to -a/(k-a) and ties the function to the lower
  incomplete gamma function, 1F1(-a; 1-a; z) = (-a) (-z)^a gamma(-a, -z).
  Two exact integral forms of that function are each integrated by one
  fixed Gauss rule: Gauss-Jacobi for |w| <= 30, Gauss-Laguerre above.

* ``g_integral`` computes G(lower) = int_lower^inf v e^-v
  (1 + v/(ratio-1))^(-1/ratio) dv by one quadrature over [lower, inf), the
  building block of the strongest-two interferer closed form.

* ``invert_tail`` recovers P(Y > eta) for a nonnegative ratio Y from the
  characteristic function of 1/Y in the 1F1 family, by folding the
  inversion integral onto [0, inf).  The exponent p fixes the family's
  exact envelope A w^-p, A = e^{i p pi/2} / Gamma(1-p) times a damping in
  (0, 1], and its remainder, at most |B| w^(-1-2p) with |B| = p /
  Gamma(1-p)^2, oscillating as e^{iw}.  Beyond a cutoff Omega the envelope's
  tail is subtracted exactly and the remainder's bounded; Omega climbs a
  geometric ladder until the bound meets tol/2, within a fixed evaluation
  budget.  A bound that cannot meet tol within the budget is refused
  before the charfn is evaluated; any other miss of tol raises
  InversionError carrying the partial value.

* ``simplex_rule`` is a collapsed (Duffy) Gauss-Jacobi rule on the simplex.

Every function is pure.  The only process-wide state is ``_jacobi_rule``'s
cache of the last 256 Gauss-Jacobi rules, which changes no value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_laguerre

__all__ = [
    "QuadratureResult",
    "InversionError",
    "kummer_1f1_neg_a",
    "g_integral",
    "invert_tail",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a numerical integration: value, error estimate, work done."""

    value: Union[float, complex]
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")


class InversionError(RuntimeError):
    """A tail quadrature missed its tolerance or ran out of its budget.

    Raised by the inversion here and by the factorial-moment tail sum.
    Carries the best partial value, its estimated error and the work done.
    """

    def __init__(self, message, partial_value, error_estimate, evaluations):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


# ---------------------------------------------------------------------------
# 1F1(-a; 1-a; i*w): two exact integral forms (DLMF 8.6), one fixed Gauss
# rule each, summed node by node so memory stays a few values per omega.
# ---------------------------------------------------------------------------

_SWITCH = 30.0  # |omega| above which the Laguerre branch takes over
_LAGUERRE_U, _LAGUERRE_W = roots_laguerre(8)


@functools.lru_cache(maxsize=256)
def _jacobi_rule(nodes: int, power: float):
    """Gauss rule for int_0^1 t^power f(t) dt, power > -1: nodes t, weights.

    roots_jacobi(nodes, power, 0) has weight (1-x)^power on [-1, 1];
    t = (1-x)/2.  Mapping the other end, roots_jacobi(24, 0, -a) with
    t = (1+x)/2, loses accuracy to ~2e-12 at a near 1 through scipy's weights.
    """
    x, w = roots_jacobi(nodes, power, 0.0)
    return (1.0 - x) / 2.0, w * 2.0 ** (-power - 1.0)


def _jacobi_1f1(a, w):
    """1F1 = 1 - a int_0^1 t^-a expm1(i w t)/t dt for w >= 0.

    The series coefficients (-a)_k/(1-a)_k = -a/(k-a) = -a int_0^1 t^(k-a-1)
    dt give this form; the integrand is entire against the weight t^-a.
    """
    t, wt = _jacobi_rule(24, -a)
    acc = np.zeros(w.shape, dtype=complex)
    for tj, wj in zip(t, wt):
        acc += (wj / tj) * np.expm1((1j * tj) * w)
    return 1.0 - a * acc


def _laguerre_1f1(a, w):
    """1F1 = Gamma(1-a) (-i w)^a - (a/(i w)) e^{i w} S(w) for w > 0.

    S(w) = int_0^inf e^-u (1 + i u/w)^(-a-1) du, whose singularity at
    u = i w lies at least 30 away from the Laguerre nodes.
    """
    s = np.zeros(w.shape, dtype=complex)
    for uj, wj in zip(_LAGUERRE_U, _LAGUERRE_W):
        s += wj * (1.0 + (1j * uj) / w) ** (-a - 1.0)
    z = 1j * w
    return math.gamma(1.0 - a) * np.power(-z, a) - (a / z) * np.exp(z) * s


def kummer_1f1_neg_a(a: float, omega):
    """1F1(-a; 1-a; i*omega) for a in (0, 1) and real omega.

    Accepts a scalar or array omega and returns complex values.  Against
    mpmath the relative error is at most 4e-13 over a in [0.01, 0.99],
    largest at a near 1 where the Jacobi branch ends (|omega| = 30); above
    30 it measured below 3e-15 up to |omega| = 1e12.  F(0) is exactly 1 and
    F(-omega) is exactly conj F(omega).
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0, 1), got {a}")
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    scalar = w.ndim == 0
    w1 = np.atleast_1d(w)
    out = np.empty(w1.shape, dtype=complex)
    wa = np.abs(w1)
    small = wa <= _SWITCH
    out[small] = _jacobi_1f1(a, wa[small])
    out[~small] = _laguerre_1f1(a, wa[~small])
    neg = w1 < 0
    out[neg] = np.conj(out[neg])  # real series coefficients: F(-w) = conj F(w)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# G integral
# ---------------------------------------------------------------------------

def check_ratio(ratio: float) -> None:
    """Raise ValueError naming ``ratio`` unless 1 < ratio = eps/l < inf."""
    if not (1.0 < ratio < math.inf):
        raise ValueError(f"ratio must lie in (1, inf), got {ratio}")


def g_integral(lower: float, ratio: float) -> float:
    """G(lower) = int_lower^inf v e^-v (1 + v/(ratio-1))^(-1/ratio) dv.

    One adaptive quadrature over [lower, inf).  Against a 40-digit mpmath
    quadrature on 326 points, ratio in [1.001, 1e6] and lower in [0, 700],
    the absolute error was at most 2.7e-16.  Monotone decreasing in
    ``lower`` and increasing in ``ratio`` (towards 1, the ratio -> inf limit
    of Gamma(2)).
    """
    check_ratio(ratio)
    if not (lower >= 0):
        raise ValueError(f"lower must be >= 0, got {lower}")
    inv = 1.0 / (ratio - 1.0)
    expo = 1.0 / ratio

    def f(v):
        return v * math.exp(-v) / (1.0 + v * inv) ** expo

    val, _ = quad(f, lower, math.inf, epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


def simplex_rule(dim: int, power: float, nodes: int):
    """Product Gauss rule for int over {z >= 0, sum z <= 1} of
    (1 - sum z)^power f(z) dz, power > -1: nodes (nodes^dim, dim), weights.

    Collapsed (Duffy) coordinates z_i = t_1 ... t_{i-1} (1 - t_i) map the
    unit cube onto the simplex with 1 - sum z = t_1 ... t_dim and Jacobian
    prod_i t_i^(dim-i), so axis i carries the Jacobi weight
    t_i^(power + dim - i) and only f meets the nodes.
    """
    axes = [_jacobi_rule(nodes, power + dim - i) for i in range(1, dim + 1)]
    t = np.stack(np.meshgrid(*[x for x, _ in axes], indexing="ij"), -1).reshape(-1, dim)
    w = functools.reduce(np.multiply.outer, [w for _, w in axes]).ravel()
    lead = np.cumprod(np.concatenate([np.ones((len(t), 1)), t[:, :-1]], axis=1), axis=1)
    return lead * (1.0 - t), w


# ---------------------------------------------------------------------------
# tail inversion
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GRADING = 12  # halvings of the first panel toward w = 0


def gauss_legendre_panels(edges):
    """16-point Gauss-Legendre nodes and weights on each panel, flattened."""
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _integrate_panels(charfn, x, hi, panel_w):
    """Gauss-Legendre panels for int_0^hi Re[phi(w) (1 - e^{-iwx})/(iw)] dw.

    Panels are about panel_w wide, except the first, which is split
    geometrically toward 0: the charfn's singularity nearest the real axis
    sits at w = -i z0, with z0 the abscissa of E[e^{zX}] (0.2 at eps/l = 1.2,
    0.01 at a = 0.99), and a uniform panel next to it would lose ~1e-7.
    """
    n_panels = max(1, int(math.ceil(hi / panel_w)))
    edges = np.linspace(0.0, hi, n_panels + 1)
    nodes, weights = gauss_legendre_panels(np.concatenate(
        [[0.0], edges[1] * 0.5 ** np.arange(_GRADING, 0, -1), edges[1:]]))
    # Gauss nodes are interior, so the kernel never meets w = 0
    kernel = -np.expm1(-1j * x * nodes) / (1j * nodes)
    vals = np.real(np.asarray(charfn(nodes)) * kernel)
    # an elementwise sum: `@` hands large products to BLAS threads
    return float(np.sum(vals * weights)), nodes.size


def _envelope_tail(Omega, x, p, A):
    """int_Omega^inf Re[A w^-p (1 - e^{-iwx})/(iw)] dw, exactly.

    From int_W^inf e^{is} s^(-1-p) ds = (F(W) - Gamma(1-p)(-iW)^p) W^-p / p,
    F = kummer_1f1_neg_a(p, .), at W = x Omega, and conj F(W) = F(-W).
    """
    W = x * Omega
    F = complex(kummer_1f1_neg_a(p, -W))
    s = 1.0 - F + math.gamma(1.0 - p) * (1j * W) ** p
    return (A * s / (1j * p * Omega**p)).real


def _remainder_bound(Omega, x, p):
    """Bound on int_Omega^inf of the charfn's remainder against the kernel.

    The remainder B e^{iw} w^(-1-2p), |B| = p / Gamma(1-p)^2, meets the
    kernel at frequencies 1 and 1 - x; |int_Omega^inf e^{i nu w} w^-s dw|,
    s = 2 + 2p, is at most min(Omega^(1-s)/(s-1), 2 Omega^-s/|nu|).
    """
    s = 2.0 + 2.0 * p

    def J(nu):
        flat = Omega ** (1.0 - s) / (s - 1.0)
        return min(flat, 2.0 * Omega**-s / abs(nu)) if nu else flat

    return p / math.gamma(1.0 - p) ** 2 * (J(1.0) + J(1.0 - x))


_MAX_EVALS = 1_000_000  # charfn evaluations one inversion may spend


def invert_tail(
    charfn: Callable[[np.ndarray], np.ndarray],
    eta: float,
    *,
    p: float,
    damping: float = 1.0,
    tol: float = 1e-4,
    char_scale: float = 1.0,
) -> QuadratureResult:
    """Unclamped tail probability P(Y > eta) from the charfn of 1/Y.

    For a nonnegative Y with X = 1/Y, conjugate symmetry folds the inversion
    integral onto [0, inf):

        P(Y > eta) = P(X < 1/eta)
                   = (1/pi) int_0^inf Re[phi_X(w) (1 - e^{-i w/eta})/(i w)] dw.

    ``charfn`` must accept an ndarray of w values and belong to the 1F1
    family: phi_X(w) = A w^-p + R(w) with p in (0, 1), A = e^{i p pi/2} /
    Gamma(1-p) * ``damping`` (the caller's factor in (0, 1], 1 for C/I),
    and |R(w)| <= |B| w^(-1-2p) oscillating as e^{iw}.  Gauss-Legendre
    panels, sized by ``char_scale`` (the charfn's own oscillation frequency),
    cover [0, Omega]; the envelope's tail beyond Omega is subtracted exactly
    (_envelope_tail) and R's is bounded (_remainder_bound).  Omega is the
    first rung of 30 * 1.4^k whose bound is within tol/2.  The error
    estimate is that bound plus 1e-13 of the panel sum.  InversionError is
    raised before any evaluation, with a NaN partial value and the bound as
    its estimate, if even Omega = 30 needs over _MAX_EVALS evaluations or
    the bound at the largest affordable Omega exceeds ``tol``; afterwards,
    carrying the value, if the estimate exceeds ``tol`` or the value is not
    finite (an overflowing charfn).
    """
    if not (eta > 0):
        raise ValueError(f"eta must be > 0 for inversion, got {eta}; "
                         "the eta = 0 tail is 1 by definition")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if not (0.0 < p < 1.0):
        raise ValueError(f"envelope exponent p must lie in (0, 1), got {p}")
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    A = complex(np.exp(1j * p * math.pi / 2)) / math.gamma(1.0 - p) * damping
    x = 1.0 / eta
    panel_w = math.pi / (char_scale + x)
    Omega, Omega_max = 30.0, (_MAX_EVALS // 16 - _GRADING - 1) * panel_w
    while ((bound := _remainder_bound(Omega, x, p) / math.pi) > tol / 2.0
           and 1.4 * Omega <= Omega_max):
        Omega *= 1.4
    if Omega > Omega_max or bound > tol:
        raise InversionError(f"char_scale {char_scale:.3g} and tol {tol:.2e} "
                             f"need more than {_MAX_EVALS} evaluations",
                             math.nan, bound, 0)
    core, evals = _integrate_panels(charfn, x, Omega, panel_w)
    value = (core + _envelope_tail(Omega, x, p, A)) / math.pi
    err = bound + 1e-13 * max(1.0, abs(core))
    if not (err <= tol and math.isfinite(value)):
        raise InversionError(f"tail inversion gave {value:.6g}, estimated error "
                             f"{err:.2e} against tol {tol:.2e}", value, err, evals)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)
