"""Special-function and quadrature kernels for signal-quality tail computations.

Three numerical primitives live here:

* ``kummer_1f1_neg_a`` evaluates the confluent hypergeometric function
  1F1(-a; 1-a; i*w) for a in (0, 1) and real w.  This is the only 1F1 family
  the interference model needs; the parameter pair (-a, 1-a) makes the series
  coefficients collapse to -a/(k-a) and ties the function to the lower
  incomplete gamma function, 1F1(-a; 1-a; z) = (-a) (-z)^a gamma(-a, -z).

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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy.integrate import quad

__all__ = [
    "QuadratureResult",
    "InversionError",
    "kummer_1f1_neg_a",
    "g_integral",
    "g_integral_bounded",
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
# double-double helpers (error-free float transformations)
#
# The Maclaurin series of 1F1(-a; 1-a; i*w) suffers catastrophic cancellation
# for moderate |w|: terms grow to ~e^|w| while the sum stays O(|w|^a).  Plain
# float64 loses all accuracy beyond |w| ~ 12, so the series branch runs in
# double-double (~31 significant digits), which keeps the cancellation error
# near 1e-31 * e^|w|, i.e. harmless up to the branch switch point.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _quick_two_sum(s, e + xl + yl)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _quick_two_sum(p, e + xh * yl + xl * yh)


def _dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    ph, pl = _dd_mul(q1, 0.0, yh, yl)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    q2 = rh / yh
    ph, pl = _dd_mul(q2, 0.0, yh, yl)
    rh, rl = _dd_add(rh, rl, -ph, -pl)
    s, e = _quick_two_sum(q1, q2)
    return _dd_add(s, e, rh / yh, 0.0)


def _series_1f1(a, omega, max_terms=500):
    """Maclaurin series of 1F1(-a; 1-a; i*w), double-double accumulation.

    term_{k+1} = term_k * (i*w) * (k - a) / ((k + 1 - a) * (k + 1)), and both
    the recurrence and the accumulation run in double-double so the result is
    accurate to ~1e-14 relative even at the e^|w| cancellation peak.
    """
    w = np.asarray(omega, dtype=float)
    zeros = np.zeros_like(w)
    t_re_h, t_re_l = np.ones_like(w), zeros.copy()
    t_im_h, t_im_l = zeros.copy(), zeros.copy()
    s_re_h, s_re_l = np.ones_like(w), zeros.copy()
    s_im_h, s_im_l = zeros.copy(), zeros.copy()
    for k in range(max_terms):
        num_h, num_l = _two_sum(float(k), -a)
        den_h, den_l = _two_sum(float(k + 1), -a)
        den_h, den_l = _dd_mul(den_h, den_l, float(k + 1), 0.0)
        c_h, c_l = _dd_div(num_h, num_l, den_h, den_l)
        f_h, f_l = _dd_mul(w, zeros, c_h, c_l)
        # term *= i * f   (f real): (re, im) -> (-im*f, re*f)
        n_re_h, n_re_l = _dd_mul(t_im_h, t_im_l, -f_h, -f_l)
        t_im_h, t_im_l = _dd_mul(t_re_h, t_re_l, f_h, f_l)
        t_re_h, t_re_l = n_re_h, n_re_l
        s_re_h, s_re_l = _dd_add(s_re_h, s_re_l, t_re_h, t_re_l)
        s_im_h, s_im_l = _dd_add(s_im_h, s_im_l, t_im_h, t_im_l)
        if np.max(np.abs(t_re_h) + np.abs(t_im_h)) < 1e-26:
            break
    return s_re_h + 1j * s_im_h


def _asymptotic_1f1(a, omega, max_corr=120):
    """Large-|w| branch via the incomplete-gamma identity.

    1F1(-a; 1-a; i*w) = Gamma(1-a) (-i*w)^a - (a/(i*w)) e^{i*w} S(w), where S
    is the divergent large-argument correction series sum_m (a+1)_m (i*w)^-m,
    truncated per lane at its smallest term (optimal truncation).
    """
    w = np.asarray(omega, dtype=float)
    z = 1j * w
    lead = math.gamma(1.0 - a) * np.power(-z, a)
    term = np.ones_like(z)
    total = np.ones_like(z)
    frozen = np.zeros(w.shape, dtype=bool)
    last_mag = np.abs(term)
    for m in range(1, max_corr):
        term = term * (a + m) / z
        mag = np.abs(term)
        frozen |= mag >= last_mag
        total = np.where(frozen, total, total + term)
        last_mag = np.where(frozen, last_mag, mag)
        if frozen.all():
            break
    return lead - (a / z) * np.exp(z) * total


def kummer_1f1_neg_a(a: float, omega, switch: float = 30.0):
    """1F1(-a; 1-a; i*omega) for a in (0, 1) and real omega.

    Accepts a scalar or array omega and returns complex values with relative
    accuracy better than 1e-10 for |omega| <= 1e3 (in practice ~1e-13).
    ``switch`` is the |omega| above which the asymptotic branch takes over;
    both branches agree to ~1e-12 in a wide band around the default.
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
    small = wa <= switch
    if small.any():
        out[small] = _series_1f1(a, wa[small])
    if (~small).any():
        out[~small] = _asymptotic_1f1(a, wa[~small])
    neg = w1 < 0
    out[neg] = np.conj(out[neg])  # real series coefficients: F(-w) = conj F(w)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# G integral
# ---------------------------------------------------------------------------

# (1 + T) e^-T < 1e-12 decays below the requested remainder for T >= 33, and
# the integrand is bounded by v e^-v, so a fixed cutoff length suffices.
_G_CUTOFF = 33.0


def g_integral_bounded(lower: float, upper: float, ratio: float) -> float:
    """G over a finite interval [lower, upper]; building block of g_integral."""
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if lower < 0 or upper < lower:
        raise ValueError("need 0 <= lower <= upper")
    if upper == lower:
        return 0.0
    inv = 1.0 / (ratio - 1.0)
    expo = 1.0 / ratio

    def f(v):
        return v * math.exp(-v) / (1.0 + v * inv) ** expo

    val, _ = quad(f, lower, upper, epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


def g_integral(lower: float, ratio: float) -> float:
    """G(lower) = int_lower^inf v e^-v (1 + v/(ratio-1))^(-1/ratio) dv.

    Adaptive quadrature on [lower, lower + 33] plus the analytic bound
    int_T^inf v e^-v dv = (1+T) e^-T < 1e-12 for the discarded tail; absolute
    accuracy ~1e-10.  Monotone decreasing in ``lower`` and increasing in
    ``ratio`` (towards 1, the ratio -> inf limit of Gamma(2)).
    """
    return g_integral_bounded(lower, lower + _G_CUTOFF, ratio)


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


def _invert_known_decay(charfn, x, p, A, tol, char_scale, max_evals):
    """Core + analytic-tail path when phi(w) ~ A w^-p is known or fittable."""
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
    return value, err, evals


def _wynn_epsilon(seq):
    """Wynn's epsilon acceleration of a partial-sum sequence (even columns)."""
    e0 = np.zeros(len(seq) + 1)
    e1 = np.asarray(seq, dtype=float).copy()
    best = e1[-1]
    for k in range(1, len(seq)):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = e1[1:] - e1[:-1]
            e2 = e0[1 : len(d) + 1] + 1.0 / d
        e0, e1 = e1, e2
        if k % 2 == 0 and len(e1) and np.isfinite(e1[-1]):
            best = e1[-1]
        if len(e1) <= 1:
            break
    return best


def _fit_smooth_power(charfn, Omega, n_windows=6, pts=256):
    """Fit Im[phi]/w ~ c w^-q on period-averaged samples of [Omega/2, Omega].

    Returns (c, q) or None when the averaged data is not power-law-like
    (purely oscillatory characteristic functions average to ~0 here).
    """
    centers = np.linspace(Omega / 2, Omega, n_windows)
    means = []
    for c0 in centers:
        wg = np.linspace(c0 - math.pi, c0 + math.pi, pts, endpoint=False)
        means.append(np.mean(np.imag(np.asarray(charfn(wg))) / wg))
    means = np.asarray(means)
    if np.any(means <= 0):
        return None, n_windows * pts
    X, Y = np.log(centers), np.log(means)
    q = -np.polyfit(X, Y, 1)[0]
    c = math.exp(float(np.mean(Y + q * X)))
    if not (0.5 < q < 8.0) or np.max(np.abs(Y - (math.log(c) - q * X))) > 0.15:
        return None, n_windows * pts
    return (c, q), n_windows * pts


def _invert_generic(charfn, x, tol, char_scale, max_evals):
    """No decay model: doubling core + fitted smooth tail + Wynn acceleration."""
    panel_w = math.pi / (char_scale + x)
    Omega = max(40.0, 40.0 / x)
    core, evals = _integrate_panels(charfn, x, 0.0, Omega, panel_w)
    prev = None
    est = None
    err = math.inf
    while evals < max_evals:
        fit, n = _fit_smooth_power(charfn, Omega)
        evals += n
        smooth = 0.0
        if fit is not None:
            c, q = fit
            smooth = c * Omega ** (1.0 - q) / (q - 1.0)
        chunk_w = math.pi / max(1.0, x)
        partials = []
        total = 0.0
        lo = Omega
        for _ in range(32):
            v, n = _integrate_panels(charfn, x, lo, lo + chunk_w, min(panel_w, chunk_w / 2))
            evals += n
            total += v
            if fit is not None:
                c, q = fit
                total -= c * (lo ** (1 - q) - (lo + chunk_w) ** (1 - q)) / (q - 1)
            partials.append(total)
            lo += chunk_w
        osc = _wynn_epsilon(partials)
        est = (core + smooth + osc) / math.pi
        if prev is not None:
            err = abs(est - prev)
            if err < tol / 2:
                return est, max(err, 1e-12), evals
        prev = est
        v, n = _integrate_panels(charfn, x, Omega, 2 * Omega, panel_w)
        core += v
        evals += n
        Omega *= 2
    raise InversionError(
        "tail inversion did not converge within its evaluation budget",
        est if est is not None else core / math.pi, err, evals,
    )


DecaySpec = Union[None, float, Tuple[float, Optional[complex]]]


def invert_tail_result(
    charfn: Callable[[np.ndarray], np.ndarray],
    eta: float,
    *,
    tol: float = 1e-4,
    decay: DecaySpec = None,
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
    known analytically, bare p to have A fitted from period-averaged samples,
    or None for the fully empirical path (power-law fit plus Wynn epsilon
    acceleration of the oscillatory remainder).  ``char_scale`` is the
    dominant internal oscillation frequency of the charfn, used to size
    quadrature panels.  Raises InversionError (carrying the partial value and
    error estimate) if the budget is exhausted first.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0 for inversion; the eta = 0 tail is 1 by definition")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = 1.0 / eta
    if decay is None:
        value, err, evals = _invert_generic(charfn, x, tol, char_scale, max_evals)
    else:
        if isinstance(decay, tuple):
            p, A = decay
        else:
            p, A = float(decay), None
        if not (0.0 < p < 1.0):
            raise ValueError(f"decay exponent must lie in (0, 1), got {p}")
        value, err, evals = _invert_known_decay(charfn, x, p, A, tol, char_scale, max_evals)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def invert_tail(charfn, eta: float, *, tol: float = 1e-4, decay: DecaySpec = None,
                char_scale: float = 1.0, max_evals: int = 4_000_000) -> float:
    """Tail probability P(Y > eta) in [0, 1]; see invert_tail_result.

    The raw quadrature value is clamped to [0, 1]; excursions beyond the
    interval stay within the quadrature error (order tol).
    """
    res = invert_tail_result(
        charfn, eta, tol=tol, decay=decay, char_scale=char_scale, max_evals=max_evals
    )
    return min(1.0, max(0.0, float(res.value)))
