"""Special-function kernel.

Everything here is pure and reentrant. erfc on arrays and erfcx on floats are
Cody's rational approximations, so that no scipy module loads with the
package. The parabolic cylinder function is taken by a recurrence in its
order, with no quadrature. The Meijer G evaluator is one Bessel-K integral
taken by adaptive quadrature rather than a residue series, so
integer-coincident pole differences (which the default turbulence parameters
produce) need no case analysis.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import DomainError, UnsupportedDomainError

__all__ = ["erfc", "erfcx", "parabolic_cylinder_d", "meijer_g_1330"]

# Cody (1969), Math. Comp. 23(107), as in his CALERF: (numerator,
# denominator) coefficients of each range's rational function, highest power
# first, with a monic denominator. On |x| <= 0.46875, erf(x) = x R(x^2); on
# (0.46875, 4], erfcx(x) = R(x); past 4, erfcx(x) = (1/sqrt(pi) - t R(t)) / x
# with t = 1/x^2, which is 0 where x^2 overflows, leaving 1/(x sqrt(pi)). Past
# 26.543 erfc(x) is below the normal float range.
_ERF_SMALL = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERFCX_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFCX_BIG = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_ERF_SMALL_MAX, _ERFCX_MID_MAX, _ERFC_MAX = 0.46875, 4.0, 26.543
_INV_SQRT_PI = 5.6418958354775628695e-1


def _ratio(table, t):
    """Cody's rational function of t (a float or an array), in his order of operations."""
    num, den = table
    p, q = num[0] * t, t
    for a, b in zip(num[1:-1], den[1:-1]):
        p = (p + a) * t
        q = (q + b) * t
    return (p + num[-1]) / (q + den[-1])


def _erfcx_big(y):
    t = 1.0 / (y * y)
    return (_INV_SQRT_PI - t * _ratio(_ERFCX_BIG, t)) / y


def _times_exp_minus_square(y, r):
    """r e^(-y^2) for arrays, with y^2 split as ys^2 + (y - ys)(y + ys), ys = trunc(16 y)/16:
    ys^2 is exact, so the rounding of y^2 (up to 6e-14 of e^(-y^2) at y = 26) is not
    in the exponent. One exp of the summed exponent would put it back."""
    ys = np.trunc(16.0 * y) / 16.0
    return np.exp(-ys * ys) * np.exp(-(y - ys) * (y + ys)) * r


def erfc(x):
    """Complementary error function, vectorized: within 1e-15 relative of the
    exact value wherever that is a normal float, and 0 past x = 26.543, where it
    is not. nan gives nan, and x < 0 gives 2 - erfc(-x)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.where(y >= _ERFC_MAX, 0.0, np.nan)
    small = y <= _ERF_SMALL_MAX
    ys = y[small]
    out[small] = 1.0 - ys * _ratio(_ERF_SMALL, ys * ys)
    mid = (y > _ERF_SMALL_MAX) & (y <= _ERFCX_MID_MAX)
    ys = y[mid]
    out[mid] = _times_exp_minus_square(ys, _ratio(_ERFCX_MID, ys))
    big = (y > _ERFCX_MID_MAX) & (y < _ERFC_MAX)
    ys = y[big]
    out[big] = _times_exp_minus_square(ys, _erfcx_big(ys))
    neg = x < 0.0
    out[neg] = 2.0 - out[neg]
    return out[()]


def erfcx(x: float) -> float:
    """Scaled complementary error function e^(x^2) erfc(x) of a float x >= 0."""
    if x <= _ERF_SMALL_MAX:
        return math.exp(x * x) * (1.0 - x * _ratio(_ERF_SMALL, x * x))
    if x <= _ERFCX_MID_MAX:
        return _ratio(_ERFCX_MID, x)
    return _erfcx_big(float(x))  # a numpy float would warn where x * x overflows

# Implemented domain of parabolic_cylinder_d: the integer orders v = -n-1
# (n <= 11) and arguments z = -m/delta < 0 of the generalized moments.
PCD_V_RANGE = (-12.0, 0.0)
PCD_Z_RANGE = (-40.0, 0.0)

_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def parabolic_cylinder_d(v: float, z: float) -> float:
    """Parabolic cylinder function D_v(z) for integer v in [-12, 0], z in [-40, 0].

    Starts from D_0 = e^(-z^2/4) and D_{-1} = sqrt(pi/2) e^(z^2/4) erfc(z/sqrt 2)
    (DLMF 12.7(ii)) and steps D_{-j-1} = (D_{-j+1} - z D_{-j}) / j (DLMF 12.8(i)).
    Every term is positive for z <= 0, so nothing cancels. z^2 is split into its
    rounded value and the rounding error (Dekker), since the rounding alone moves
    e^(z^2/4) by up to 3e-14 at |z| = 40.
    """
    # The range test comes first: math.floor raises on nan and +-inf.
    if not (PCD_V_RANGE[0] <= v <= PCD_V_RANGE[1] and PCD_Z_RANGE[0] <= z <= PCD_Z_RANGE[1]
            and v == math.floor(v)):
        raise UnsupportedDomainError(
            f"parabolic_cylinder_d implemented for integer v in {PCD_V_RANGE}, "
            f"z in {PCD_Z_RANGE}; got v={v}, z={z}"
        )
    c = 134217729.0 * z  # 2^27 + 1
    hi = c - (c - z)
    lo = z - hi
    sq = z * z
    sq_lo = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo  # z^2 = sq + sq_lo exactly
    d_next = math.exp(-0.25 * sq) * (1.0 - 0.25 * sq_lo)
    if v == 0.0:
        return d_next
    d = _SQRT_HALF_PI * math.exp(0.25 * sq) * (1.0 + 0.25 * sq_lo) * math.erfc(z / math.sqrt(2.0))
    for j in range(1, int(-v)):
        d_next, d = d, (d_next - z * d) / j
    return d


def meijer_g_1330(a1: float, b: Tuple[float, float, float], x: float) -> float:
    """G^{3,0}_{1,3}(x | a1 ; b1, b2, b3) for real parameters, a1 > b1 and 0 < x < inf.

    Gamma(b1+s) / Gamma(a1+s) and Gamma(b2+s) Gamma(b3+s) are the Mellin transforms
    of a Beta kernel and of 2 y^((b2+b3)/2) K_{b2-b3}(2 sqrt(y)), so G is
        x^b1 / (2^(lam-1) Gamma(a1-b1)) int_{2 sqrt(x)}^inf (1 - 4x/u^2)^(a1-b1-1) f(u) du / u
    with lam = b2 + b3 - 2 b1 - 1 and f(u) = u^(lam+1) K_{b2-b3}(u). ln f is concave in
    ln u, peaks below u = lam + 1 and falls with slope below -1/2 past u = 2 (lam + 1),
    so one quadrature in s = ln(u / 2 sqrt(x)), relative to the peak of f, ends e^40 below it.
    """
    from scipy import integrate, optimize
    from scipy.special import kve

    if not 0.0 < x < math.inf:
        raise DomainError(f"meijer_g_1330 requires finite x > 0, got {x}")
    b1, b2, b3 = b
    if not a1 > b1:
        raise UnsupportedDomainError(f"meijer_g_1330 implemented for a1 > b1, got {a1} <= {b1}")
    lam = b2 + b3 - 2.0 * b1 - 1.0
    u0 = 2.0 * math.sqrt(x)
    log_u0, log_end = math.log(u0), math.log(max(u0, 2.0 * lam + 2.0) + 80.0)

    def log_f(log_u):
        return (lam + 1.0) * log_u - math.exp(log_u) + math.log(kve(b2 - b3, math.exp(log_u)))

    if not math.isfinite(log_f(log_u0) + log_f(log_end)):
        raise UnsupportedDomainError(f"meijer_g_1330: K_{b2 - b3:g} is out of range at x={x:g}")
    log_peak = log_u0
    if lam + 1.0 > u0:
        log_peak = optimize.minimize_scalar(lambda t: -log_f(t), method="bounded",
                                            bounds=(log_u0, math.log(lam + 1.0))).x
    ref = log_f(log_peak)

    def integrand(s):
        return math.exp(log_f(log_u0 + s) - ref) * (-math.expm1(-2.0 * s)) ** (a1 - b1 - 1.0)

    total, _ = integrate.quad(integrand, 0.0, log_end - log_u0, epsabs=0.0, epsrel=1e-12)
    log_scale = b1 * math.log(x) - (lam - 1.0) * math.log(2.0) - math.lgamma(a1 - b1) + ref
    return math.exp(log_scale) * total
