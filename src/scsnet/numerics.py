"""Special-function and quadrature kernels for signal-quality tail computations.

Three numerical primitives live here:

* ``kummer_1f1_neg_a`` evaluates the confluent hypergeometric function
  1F1(-a; 1-a; i*w) for a in (0, 1) and real w.  This is the only 1F1 family
  the interference model needs; the parameter pair (-a, 1-a) makes the series
  coefficients collapse to -a/(k-a) and ties the function to the lower
  incomplete gamma function, 1F1(-a; 1-a; z) = (-a) (-z)^a gamma(-a, -z).
  Two exact integral forms of that function are each integrated by one
  fixed Gauss rule: Gauss-Jacobi for |w| <= 30, Gauss-Laguerre above.

* ``g_integral`` computes G(lower) = int_lower^inf v e^-v
  (1 + v/(ratio-1))^(-1/ratio) dv, the building block of the strongest-two
  interferer closed form.

* ``invert_tail`` recovers P(Y > eta) for a nonnegative ratio Y from the
  characteristic function of 1/Y, by folding the inversion integral onto
  [0, inf) and integrating the oscillatory kernel with analytic tail
  corrections.

Everything is a pure function; no global mutable state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_laguerre

__all__ = [
    "QuadratureResult",
    "InversionError",
    "kummer_1f1_neg_a",
    "g_integral",
    "invert_tail",
    "invert_tail_result",
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

    Raised by the inversion here and by the closed-form C/(I+N') integral.
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


@functools.cache
def _jacobi_rule(a: float):
    """24-node Gauss rule for int_0^1 t^-a f(t) dt: nodes t, weights.

    roots_jacobi(24, -a, 0) has weight (1-x)^-a on [-1, 1]; t = (1-x)/2.
    Mapping the other end, roots_jacobi(24, 0, -a) with t = (1+x)/2, loses
    accuracy to ~2e-12 at a near 1 through scipy's weights.
    """
    x, w = roots_jacobi(24, -a, 0.0)
    return (1.0 - x) / 2.0, w * 2.0 ** (a - 1.0)


def _jacobi_1f1(a, w):
    """1F1 = 1 - a int_0^1 t^-a expm1(i w t)/t dt for w >= 0.

    The series coefficients (-a)_k/(1-a)_k = -a/(k-a) = -a int_0^1 t^(k-a-1)
    dt give this form; the integrand is entire against the weight t^-a.
    """
    t, wt = _jacobi_rule(a)
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

# (1 + T) e^-T < 1e-12 decays below the requested remainder for T >= 33, and
# the integrand is bounded by v e^-v, so a fixed cutoff length suffices.
_G_CUTOFF = 33.0


def g_integral(lower: float, ratio: float) -> float:
    """G(lower) = int_lower^inf v e^-v (1 + v/(ratio-1))^(-1/ratio) dv.

    Adaptive quadrature on [lower, lower + 33] plus the analytic bound
    int_T^inf v e^-v dv = (1+T) e^-T < 1e-12 for the discarded tail; absolute
    accuracy ~1e-10.  Monotone decreasing in ``lower`` and increasing in
    ``ratio`` (towards 1, the ratio -> inf limit of Gamma(2)).
    """
    if not (ratio > 1.0):
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if not (lower >= 0):
        raise ValueError(f"lower must be >= 0, got {lower}")
    inv = 1.0 / (ratio - 1.0)
    expo = 1.0 / ratio

    def f(v):
        return v * math.exp(-v) / (1.0 + v * inv) ** expo

    val, _ = quad(f, lower, lower + _G_CUTOFF, epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


# ---------------------------------------------------------------------------
# tail inversion
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _kernel(omega, x):
    """(1 - exp(-i*w*x)) / (i*w), with the removable singularity at w=0.

    The w -> 0 limit is x; a short series keeps the evaluation stable where
    the direct formula would divide two near-zero quantities.
    """
    w = np.asarray(omega, dtype=float)
    out = np.empty(w.shape, dtype=complex)
    wx = w * x
    small = np.abs(wx) < 1e-6
    ws = wx[small]
    out[small] = x * (1.0 - 0.5j * ws - ws**2 / 6.0)
    wl = w[~small]
    out[~small] = (1.0 - np.exp(-1j * wl * x)) / (1j * wl)
    return out


def _integrate_panels(charfn, x, lo, hi, panel_w):
    """Gauss-Legendre panel integration of Re[phi(w) kernel(w, x)] on [lo, hi]."""
    n_panels = max(1, int(math.ceil((hi - lo) / panel_w)))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    vals = np.real(np.asarray(charfn(nodes)) * _kernel(nodes, x))
    total = float(np.sum(vals.reshape(n_panels, -1) @ _GL_WEIGHTS * half))
    return total, nodes.size


def _tail_correction(Omega, x, p, A):
    """Analytic tail int_Omega^inf of the folded integrand (before the 1/pi).

    Models phi(w) ~ A w^-p beyond Omega.  The non-oscillatory piece
    Im[phi]/w integrates to Im(A) Omega^-p / p; the kernel piece
    -Im[phi e^{-iwx}]/w is integrated by parts three times in the e^{-iwx}
    phase.  The returned error allows for the truncated by-parts series and
    for the charfn's own decaying oscillatory components around the model.
    """
    smooth = np.imag(A) * Omega ** (-p) / p
    ix = 1j * x
    series = (
        Omega ** (-1 - p) / ix
        - (1 + p) * Omega ** (-2 - p) / ix**2
        + (1 + p) * (2 + p) * Omega ** (-3 - p) / ix**3
    )
    osc = -np.imag(A * np.exp(-1j * Omega * x) * series)
    err = abs(A) * (
        (1 + p) * (2 + p) * (3 + p) * Omega ** (-3 - p) / x**3
        + 2.0 * Omega ** (-1 - 2 * p) / max(p, 1e-2)
    )
    return smooth + osc, err


def _fit_tail_coefficient(charfn, Omega, p, n_windows=8, pts=128):
    """Estimate A in phi(w) ~ A w^-p by averaging phi w^p over 2*pi windows.

    Averaging over whole periods suppresses the O(1)-frequency oscillatory
    components that ride on the power-law envelope.
    """
    lo = Omega - n_windows * 2.0 * math.pi
    wg = np.linspace(lo, Omega, n_windows * pts, endpoint=False)
    vals = np.asarray(charfn(wg)) * wg**p
    return complex(np.mean(vals)), wg.size


DecaySpec = Union[float, Tuple[float, Optional[complex]]]


def invert_tail_result(
    charfn: Callable[[np.ndarray], np.ndarray],
    eta: float,
    *,
    decay: DecaySpec,
    tol: float = 1e-4,
    char_scale: float = 1.0,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Unclamped tail probability P(Y > eta) from the charfn of 1/Y.

    For a nonnegative Y with X = 1/Y, conjugate symmetry folds the inversion
    integral onto [0, inf):

        P(Y > eta) = P(X < 1/eta)
                   = (1/pi) int_0^inf Re[phi_X(w) (1 - e^{-i w/eta})/(i w)] dw.

    ``charfn`` must accept an ndarray of w values.  ``decay`` describes the
    large-w envelope phi_X(w) ~ A w^-p: pass (p, A) when the coefficient is
    known analytically, or bare p to have A fitted from period-averaged
    samples; p must lie in (0, 1).  ``char_scale`` is the dominant internal
    oscillation frequency of the charfn, used to size quadrature panels.
    Raises InversionError (carrying the partial value and error estimate)
    if the budget is exhausted first.
    """
    if not (eta > 0):
        raise ValueError(f"eta must be > 0 for inversion, got {eta}; "
                         "the eta = 0 tail is 1 by definition")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    p, A = decay if isinstance(decay, tuple) else (float(decay), None)
    if not (0.0 < p < 1.0):
        raise ValueError(f"decay exponent must lie in (0, 1), got {p}")
    # panel core on [0, Omega] plus the analytic tail of phi(w) ~ A w^-p
    x = 1.0 / eta
    panel_w = math.pi / (char_scale + x)
    amag = abs(A) if A is not None else 1.0
    Omega = max(30.0, 15.0 / x)
    while _tail_correction(Omega, x, p, amag)[1] > tol / 3.0:
        Omega *= 1.4
        if Omega / panel_w * 16 > max_evals:
            break
    evals = 0
    if A is None:
        A, n = _fit_tail_coefficient(charfn, Omega, p)
        evals += n
    core, n = _integrate_panels(charfn, x, 0.0, Omega, panel_w)
    evals += n
    corr, err = _tail_correction(Omega, x, p, A)
    value = (core + corr) / math.pi
    err = err / math.pi + 1e-13 * max(1.0, abs(core))
    if evals > max_evals or err > tol:
        raise InversionError(
            f"tail inversion exceeded its budget (estimated error {err:.2e})",
            value, err, evals,
        )
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def invert_tail(charfn, eta: float, *, decay: DecaySpec, tol: float = 1e-4,
                char_scale: float = 1.0, max_evals: int = 4_000_000) -> float:
    """Tail probability P(Y > eta) in [0, 1]; see invert_tail_result.

    The raw quadrature value is clamped to [0, 1]; excursions beyond the
    interval stay within the quadrature error (order tol).
    """
    res = invert_tail_result(
        charfn, eta, tol=tol, decay=decay, char_scale=char_scale, max_evals=max_evals
    )
    return min(1.0, max(0.0, float(res.value)))
