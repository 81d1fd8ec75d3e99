"""Special-function kernel and the package's one quadrature rule.

Everything here is pure and reentrant. erfc on arrays and erfcx on floats are
Cody's rational approximations, so that no scipy module loads with the
package. The parabolic cylinder function is taken by a recurrence in its
order, with no quadrature. integrate_qk21 is QUADPACK's globally adaptive
QK21 Gauss-Kronrod rule in numpy, over many integrals in one vectorized pass;
the oracles of analytic use it, and so does the Meijer G evaluator. That is
one Bessel-K integral rather than a residue series, so integer-coincident
pole differences (which the default turbulence parameters produce) need no
case analysis, and an array of arguments is one pass. Its Bessel K (kve) is
the one scipy function here, imported where it runs.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import DomainError, UnsupportedDomainError

__all__ = ["erfc", "erfcx", "parabolic_cylinder_d", "integrate_qk21", "meijer_g_1330"]

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
    """Cody's rational function of t (a float or an array), in his order of operations,
    in place on two values of t's size."""
    num, den = table
    p, q = num[0] * t, den[0] * t  # den[0] = 1, so q is t exactly
    for a, b in zip(num[1:-1], den[1:-1]):
        p += a
        p *= t
        q += b
        q *= t
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def _erfcx_big(y):
    t = 1.0 / (y * y)
    return (_INV_SQRT_PI - t * _ratio(_ERFCX_BIG, t)) / y


def _times_exp_minus_square(y, r):
    """r e^(-y^2) for arrays, with y^2 split as ys^2 + (y - ys)(y + ys), ys = trunc(16 y)/16:
    ys^2 is exact, so the rounding of y^2 (up to 6e-14 of e^(-y^2) at y = 26) is not
    in the exponent. One exp of the summed exponent would put it back. Computed in
    place, in two arrays of y's size beside a temporary."""
    ys = 16.0 * y
    np.trunc(ys, out=ys)
    ys /= 16.0
    lo = ys - y  # -(y - ys), exactly
    lo *= y + ys
    np.exp(lo, out=lo)
    ys *= ys
    np.negative(ys, out=ys)
    np.exp(ys, out=ys)
    ys *= lo
    ys *= r
    return ys


def erfc(x):
    """Complementary error function, vectorized: within 1e-15 relative of the
    exact value wherever that is a normal float, and 0 past x = 26.543, where it
    is not. nan gives nan, and x < 0 gives 2 - erfc(-x)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.where(y >= _ERFC_MAX, 0.0, np.nan)
    small = y <= _ERF_SMALL_MAX
    mid = (y > _ERF_SMALL_MAX) & (y <= _ERFCX_MID_MAX)
    big = (y > _ERFCX_MID_MAX) & (y < _ERFC_MAX)
    # The three subsets are disjoint, so together they hold at most y's size.
    ys, ym, yb = y[small], y[mid], y[big]
    del y
    out[small] = 1.0 - ys * _ratio(_ERF_SMALL, ys * ys)
    out[mid] = _times_exp_minus_square(ym, _ratio(_ERFCX_MID, ym))
    out[big] = _times_exp_minus_square(yb, _erfcx_big(yb))
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


# QUADPACK's 21-point Gauss-Kronrod rule QK21 on [-1, 1] (Piessens et al.,
# QUADPACK, Springer 1983): the non-negative Kronrod nodes in decreasing
# order, their weights, and the weights of the embedded 10-point Gauss rule,
# which uses the odd-numbered nodes only.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208467336170, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338, 0.0)
# The 21 nodes in increasing order, and their Kronrod and Gauss weights.
_QK21_X = np.array([*(-x for x in _XGK[:10]), *reversed(_XGK)])
_QK21_WK = np.array([*_WGK[:10], *reversed(_WGK)])
_QK21_WG = np.array([*_WG[:10], *reversed(_WG)])
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _qk21(f, lo, hi, owner) -> Tuple[np.ndarray, np.ndarray]:
    """QK21 value and QUADPACK error estimate of f on each panel [lo, hi]; f(y, owner)
    gives the integrand on the (panel, node) array y, whose rows are owned by owner.
    Row-wise sums keep each panel's bits independent of how many panels share the call."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(center[:, None] + half[:, None] * _QK21_X, owner)
    resk = (fx * _QK21_WK).sum(axis=1)
    resg = (fx * _QK21_WG).sum(axis=1)
    resabs = half * (np.abs(fx) * _QK21_WK).sum(axis=1)
    resasc = half * (np.abs(fx - 0.5 * resk[:, None]) * _QK21_WK).sum(axis=1)
    err = np.abs((resk - resg) * half)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def integrate_qk21(f, lo, hi, owner, n_cells: int, rel_tol: float, limit: int):
    """Globally adaptive QK21 (QUADPACK's QAG) of n_cells integrals at once.

    Cell c is the integral of f (as _qk21 takes it) over the panels [lo, hi]
    whose owner is c. Each round bisects, in one evaluation, every panel of an
    open cell whose error is above its share of rel_tol |value|. Returns per
    cell the value, the error estimate and None, or why the cell stopped short:
    its value or error is not finite, or limit panels do not reach rel_tol. A
    cell's bits do not depend on the other cells of the call.
    """
    value, error, why = np.zeros(n_cells), np.zeros(n_cells), [None] * n_cells
    with np.errstate(all="ignore"):
        val, err = _qk21(f, lo, hi, owner)
        while True:
            # Per cell: its panels, the sums of their values and errors (added
            # in panel order, which does not depend on the other cells), and
            # its panels whose error is above their share of the tolerance.
            count = np.bincount(owner, minlength=n_cells)
            total = np.bincount(owner, val, minlength=n_cells)
            total_err = np.bincount(owner, err, minlength=n_cells)
            tol = rel_tol * np.abs(total)
            split = err > (tol / np.maximum(count, 1))[owner]
            done = (count > 0) & (total_err <= tol)
            broken = (count > 0) & ~done & ~(np.isfinite(total) & np.isfinite(total_err))
            # A cell over its tolerance has a panel over its share, but for
            # rounding; without one it could not progress.
            full = (count > 0) & ~done & ~broken & (
                (count >= limit) | (np.bincount(owner, split, minlength=n_cells) == 0))
            ended = done | broken | full
            value[ended], error[ended] = total[ended], total_err[ended]
            for c in (broken | full).nonzero()[0]:
                why[c] = ("the integral is not finite" if broken[c] else
                          f"{limit} panels do not reach the relative tolerance {rel_tol:g}")
            # Bisect the open cells' panels over their share, in one evaluation.
            open_ = ~ended[owner]
            if not open_.any():
                return value, error, why
            split &= open_
            keep = open_ & ~split
            mid = 0.5 * (lo[split] + hi[split])
            new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
            new_owner = np.concatenate((owner[split], owner[split]))
            new_val, new_err = _qk21(f, new_lo, new_hi, new_owner)
            lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
            owner = np.concatenate((owner[keep], new_owner))
            val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))


def meijer_g_1330(a1: float, b: Tuple[float, float, float], x):
    """G^{3,0}_{1,3}(x | a1 ; b1, b2, b3) for real parameters, a1 > b1 and 0 < x < inf.

    Gamma(b1+s) / Gamma(a1+s) and Gamma(b2+s) Gamma(b3+s) are the Mellin transforms
    of a Beta kernel and of 2 y^((b2+b3)/2) K_{b2-b3}(2 sqrt(y)), so G is
        x^b1 / (2^(lam-1) Gamma(a1-b1)) int_{2 sqrt(x)}^inf (1 - 4x/u^2)^(a1-b1-1) f(u) du / u
    with lam = b2 + b3 - 2 b1 - 1 and f(u) = u^(lam+1) K_{b2-b3}(u). ln f is concave in
    ln u, peaks below u = lam + 1 and falls with slope below -1/2 past u = 2 (lam + 1),
    so one quadrature in s = ln(u / 2 sqrt(x)), relative to the peak of f, ends e^40 below it.

    x may be an array: every element is integrated in one vectorized pass, and
    gives the float call's value bit for bit.
    """
    from scipy.special import kve

    xs = np.asarray(x, dtype=float)
    bad = ~((xs > 0.0) & (xs < math.inf))
    if bad.any():
        raise DomainError(f"meijer_g_1330 requires finite x > 0, got {xs[bad][0]}")
    b1, b2, b3 = b
    if not a1 > b1:
        raise UnsupportedDomainError(f"meijer_g_1330 implemented for a1 > b1, got {a1} <= {b1}")
    lam = b2 + b3 - 2.0 * b1 - 1.0
    x = xs.ravel()
    u0 = 2.0 * np.sqrt(x)
    log_u0, log_end = np.log(u0), np.log(np.maximum(u0, 2.0 * lam + 2.0) + 80.0)

    def log_f(log_u):
        return (lam + 1.0) * log_u - np.exp(log_u) + np.log(kve(b2 - b3, np.exp(log_u)))

    with np.errstate(all="ignore"):
        out_of_range = ~np.isfinite(log_f(log_u0) + log_f(log_end))
        if out_of_range.any():
            raise UnsupportedDomainError(
                f"meijer_g_1330: K_{b2 - b3:g} is out of range at x={x[out_of_range][0]:g}")
        # The peak of f does not depend on x; past u0 it sets the scale and
        # splits the range in two panels. A grid point where K overflows is no peak.
        log_peak = log_u0
        if lam + 1.0 > 0.0:
            grid = math.log(lam + 1.0) + 0.625 * np.arange(-64.0, 1.0)  # 65 points, 40 wide
            at = log_f(grid)
            log_peak = np.maximum(log_u0, grid[np.argmax(np.where(np.isfinite(at), at, -np.inf))])
        ref = log_f(log_peak)

    def integrand(s, owner):
        return (np.exp(log_f(log_u0[owner][:, None] + s) - ref[owner][:, None])
                * (-np.expm1(-2.0 * s)) ** (a1 - b1 - 1.0))

    cut, width, two = log_peak - log_u0, log_end - log_u0, log_peak > log_u0
    lo = np.concatenate((np.zeros(len(x)), cut[two]))
    hi = np.concatenate((np.where(two, cut, width), width[two]))
    owner = np.concatenate((np.arange(len(x)), np.flatnonzero(two)))
    total, _, why = integrate_qk21(integrand, lo, hi, owner, len(x), 1e-12, 400)
    log_scale = b1 * np.log(x) - (lam - 1.0) * math.log(2.0) - math.lgamma(a1 - b1) + ref
    g = np.exp(log_scale) * total
    # Far past the peak the integrand keeps only the digits that ln u0 + s keeps, so
    # the quadrature can stop short; there the scale underflows and G is 0 anyway.
    for xi, w, gi in zip(x, why, g):
        if w is not None and gi != 0.0:
            raise UnsupportedDomainError(f"meijer_g_1330 quadrature at x={xi:g}: {w}")
    return g.reshape(xs.shape)[()]
