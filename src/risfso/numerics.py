"""Special-function kernel and the package's one quadrature rule.

Everything here is pure and reentrant. erfc on arrays and erfcx on floats are
Cody's rational approximations, so that no scipy module loads with the
package. The parabolic cylinder function is taken by a recurrence in its
order, with no quadrature. integrate_qk21 is QUADPACK's globally adaptive
QK21 Gauss-Kronrod rule in numpy, over many integrals in one vectorized pass;
the oracles of analytic use it, and so does the Meijer G evaluator. That is
one Bessel-K integral rather than a residue series, so integer-coincident
pole differences (which the default turbulence parameters produce) need no
case analysis, and an array of arguments is one pass. Its Bessel K is taken
in logs here too, by Temme's series and Steed's continued fraction, so no
module of the package imports scipy.
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

# Implemented orders of parabolic_cylinder_d: v = -n-1 (n <= 11) of the
# generalized moments, whose argument is z = -m/delta < 0.
PCD_V_RANGE = (-12.0, 0.0)

_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def parabolic_cylinder_d(v: float, z: float) -> float:
    """Scaled parabolic cylinder function e^(-z^2/4) D_v(z) for integer v in
    [-12, 0] and finite z <= 0.

    Starts from e^(-z^2/4) D_0 = e^(-z^2/2) and e^(-z^2/4) D_{-1} =
    sqrt(pi/2) erfc(z/sqrt 2) (DLMF 12.7(ii)) and steps the linear recurrence
    D_{-j-1} = (D_{-j+1} - z D_{-j}) / j (DLMF 12.8(i)), which holds for the
    scaled values too. Every term is positive for z <= 0, so nothing cancels,
    and the result grows like |z|^(-v-1), not like e^(z^2/4).
    """
    # The range test comes first: math.floor raises on nan and +-inf.
    if not (PCD_V_RANGE[0] <= v <= PCD_V_RANGE[1] and -math.inf < z <= 0.0
            and v == math.floor(v)):
        raise UnsupportedDomainError(
            f"parabolic_cylinder_d implemented for integer v in {PCD_V_RANGE}, "
            f"finite z <= 0; got v={v}, z={z}"
        )
    d_next = math.exp(-0.5 * z * z)
    if v == 0.0:
        return d_next
    d = _SQRT_HALF_PI * math.erfc(z / math.sqrt(2.0))
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

# The most panels integrate_qk21 splits one integral into, for the oracles of
# analytic and the Meijer G evaluator alike.
QK21_LIMIT = 400


# Panels that _qk21 evaluates at a time. Its (panel, node) temporaries then hold
# at most 42 KiB each, well below glibc's default 128 KiB mmap threshold, so they
# reuse heap memory: the closed-form sweep's oracles, 921 panels in their widest
# round, read 28 minor page faults a pass against 1262 when evaluated whole.
_QK21_ROWS = 256


def _qk21(f, lo, hi, owner) -> Tuple[np.ndarray, np.ndarray]:
    """QK21 value and QUADPACK error estimate of f on each panel [lo, hi]; f(y, owner)
    gives the integrand on the (panel, node) array y, whose rows are owned by owner.
    Row-wise sums keep each panel's bits independent of how many panels share the call,
    so it is evaluated _QK21_ROWS panels at a time."""
    if len(lo) > _QK21_ROWS:
        parts = [_qk21(f, lo[i:i + _QK21_ROWS], hi[i:i + _QK21_ROWS], owner[i:i + _QK21_ROWS])
                 for i in range(0, len(lo), _QK21_ROWS)]
        return tuple(np.concatenate(part) for part in zip(*parts))
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


def integrate_qk21(f, lo, hi, owner, n_cells: int, rel_tol: float):
    """Globally adaptive QK21 (QUADPACK's QAG) of n_cells integrals at once.

    Cell c is the integral of f (as _qk21 takes it) over the panels [lo, hi]
    whose owner is c. Each round bisects, in one evaluation, every panel of an
    open cell whose error is above its share of rel_tol |value|. Returns per
    cell the value, the error estimate and None, or why the cell stopped short:
    its value or error is not finite, or QK21_LIMIT panels do not reach rel_tol. A
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
                (count >= QK21_LIMIT) | (np.bincount(owner, split, minlength=n_cells) == 0))
            ended = done | broken | full
            value[ended], error[ended] = total[ended], total_err[ended]
            for c in (broken | full).nonzero()[0]:
                why[c] = ("the integral is not finite" if broken[c] else
                          f"{QK21_LIMIT} panels do not reach the relative tolerance {rel_tol:g}")
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


# Taylor coefficients of 1/Gamma(1 + x) about 0 (mpmath, 40 digits); on |x| <= 1/2 the
# next one moves the sum by below 4e-18. Their even and odd parts give 1/Gamma(1 +- mu)
# and Temme's Gamma_1(mu) = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu), which is
# minus the odd part over mu, so it does not cancel at small mu.
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973, 0.0072189432466631,
    -0.0011651675918590652, -0.00021524167411495098, 0.0001280502823881162,
    -2.013485478078824e-05, -1.2504934821426706e-06, 1.133027231981696e-06,
    -2.056338416977607e-07, 6.116095104481416e-09, 5.002007644469223e-09,
    -1.18127457048702e-09, 1.0434267116911005e-10, 7.782263439905071e-12,
    -3.696805618642206e-12, 5.100370287454476e-13)
# ln 2 as fdlibm splits it: an exponent times _LN2_HI is exact.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _horner(coeffs, t: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _temme(mu: float, u):
    """(ln K_mu(u), K_{mu+1}(u) / K_mu(u)) for |mu| <= 1/2 and 0 < u < 2: Temme's
    series (J. Comput. Phys. 19, 1975), summed as Numerical Recipes' bessik sums it.
    Every element takes 12 terms; below u = 2 the 13th is under the sums' rounding."""
    even = _horner(_RGAMMA_TAYLOR[0::2], mu * mu)
    odd = _horner(_RGAMMA_TAYLOR[1::2], mu * mu)
    log_half = np.log(0.5 * u)
    e = -mu * log_half
    ee = np.exp(e)
    sinhc = np.sinh(e) / e if mu else 1.0  # e is 0 only where mu is
    pi_mu = math.pi * mu
    f = (pi_mu / math.sin(pi_mu) if mu else 1.0) * (-odd * np.cosh(e) - even * sinhc * log_half)
    p = 0.5 * ee / (even + mu * odd)
    q = 0.5 / (ee * (even - mu * odd))
    k_mu, k_next = f.copy(), p.copy()
    c = 0.25 * u * u
    quarter = c.copy()
    for i in range(1, 13):
        f *= i
        f += p
        f += q
        f /= i * i - mu * mu
        p /= i - mu
        q /= i + mu
        k_mu += c * f
        k_next += c * (p - i * f)
        c *= quarter
        c /= i + 1
    return np.log(k_mu), k_next / k_mu / (0.5 * u)


def _steed(mu: float, u):
    """(ln K_mu(u), K_{mu+1}(u) / K_mu(u)) for |mu| < 1/2 and u >= 2: Steed's algorithm
    for Temme's continued fraction CF2 (Thompson and Barnett, J. Comput. Phys. 64,
    1986), as Numerical Recipes' bessik runs it. Each element stops at its own
    convergence, so its bits do not depend on the others. It takes up to 76 steps at
    u = 2 and fewer above; an element not converged in 100 steps is nan."""
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + u)
    d = 1.0 / b
    h, delta_h = d.copy(), d
    q_prev, q_cur, q = np.zeros_like(u), np.ones_like(u), np.full_like(u, a1)
    s = 1.0 + a1 * d
    c, a = a1, -a1
    s_out, h_out = np.full_like(u, np.nan), np.full_like(u, np.nan)
    live = np.arange(u.size)
    for i in range(2, 102):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q_prev, q_cur = q_cur, (q_prev - b * q_cur) / a
        q = q + c * q_cur
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delta_h = (b * d - 1.0) * delta_h
        h = h + delta_h
        ds = q * delta_h
        s = s + ds
        done = np.abs(ds) < _EPS * np.abs(s)
        if done.any():
            s_out[live[done]], h_out[live[done]] = s[done], h[done]
            keep = ~done
            live, b, d, h, delta_h, q_prev, q_cur, q, s = (
                v[keep] for v in (live, b, d, h, delta_h, q_prev, q_cur, q, s))
            if not live.size:
                break
    return (0.5 * np.log(0.5 * math.pi / u) - u - np.log(s_out),
            ((mu + 0.5) + u - a1 * h_out) / u)


def _log_bessel_k(nu: float, u):
    """ln K_nu(u), the modified Bessel function of the second kind, for a float nu and
    an array u in [1e-300, 1e300], where it is finite.

    K is even in nu. At mu = |nu| - round(|nu|), in [-1/2, 1/2], K_mu and K_{mu+1} come
    from Temme's series below u = 2 and from Steed's CF2 above; for mu = +-1/2 they are
    elementary (CF2 ends at its first term). The forward recurrence K_{mu+k+1} =
    K_{mu+k-1} + 2 (mu+k)/u K_{mu+k}, which is stable for K, climbs to nu in ratios,
    whose product is carried as a mantissa and a power of 2 so that no step overflows."""
    nu = abs(nu)
    n = round(nu)
    mu = nu - n
    if mu * mu == 0.25:  # K_{+-1/2}(u) = sqrt(pi / 2u) e^-u
        log_k, ratio = 0.5 * np.log(0.5 * math.pi / u) - u, ((mu + 0.5) + u) / u
    else:
        log_k, ratio = np.empty_like(u), np.empty_like(u)
        small = u < 2.0
        for part, kernel in ((small, _temme), (~small, _steed)):
            if part.any():
                log_k[part], ratio[part] = kernel(mu, u[part])
    if n:
        m, e = np.frexp(ratio)
        for k in range(1, n):
            ratio = 1.0 / ratio + 2.0 * (mu + k) / u
            m, step = np.frexp(m * ratio)
            e += step
        log_k += np.log(m) + e * _LN2_LO
        log_k += e * _LN2_HI
    return log_k


def meijer_g_1330(a1: float, b: Tuple[float, float, float], x, *, log_factor=0.0):
    """G^{3,0}_{1,3}(x | a1 ; b1, b2, b3) for real parameters, a1 > b1 and 0 < x < inf.

    Gamma(b1+s) / Gamma(a1+s) and Gamma(b2+s) Gamma(b3+s) are the Mellin transforms
    of a Beta kernel and of 2 y^((b2+b3)/2) K_{b2-b3}(2 sqrt(y)), so G is
        x^b1 / (2^(lam-1) Gamma(a1-b1)) int_{2 sqrt(x)}^inf (1 - 4x/u^2)^(a1-b1-1) f(u) du / u
    with lam = b2 + b3 - 2 b1 - 1 and f(u) = u^(lam+1) K_{b2-b3}(u). ln f is concave in
    ln u, peaks below u = lam + 1 and falls with slope below -1/2 past u = 2 (lam + 1),
    so one quadrature in s = ln(u / 2 sqrt(x)), relative to the peak of f, ends e^40 below it.

    x may be an array: every element is integrated in one vectorized pass, and
    gives the float call's value bit for bit. The result is e^log_factor G, with
    log_factor (a float or an array of x's shape) added to ln G inside the one final
    exp, so that a factor that takes G out of the float range can bring it back.
    """
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
        return (lam + 1.0) * log_u + _log_bessel_k(b2 - b3, np.exp(log_u))

    # The peak of f does not depend on x; past u0 it sets the scale and
    # splits the range in two panels.
    log_peak = log_u0
    if lam + 1.0 > 0.0:
        grid = math.log(lam + 1.0) + 0.625 * np.arange(-64.0, 1.0)  # 65 points, 40 wide
        log_peak = np.maximum(log_u0, grid[np.argmax(log_f(grid))])
    ref = log_f(log_peak)

    def integrand(s, owner):
        return (np.exp(log_f(log_u0[owner][:, None] + s) - ref[owner][:, None])
                * (-np.expm1(-2.0 * s)) ** (a1 - b1 - 1.0))

    cut, width, two = log_peak - log_u0, log_end - log_u0, log_peak > log_u0
    lo = np.concatenate((np.zeros(len(x)), cut[two]))
    hi = np.concatenate((np.where(two, cut, width), width[two]))
    owner = np.concatenate((np.arange(len(x)), np.flatnonzero(two)))
    total, _, why = integrate_qk21(integrand, lo, hi, owner, len(x), 1e-12)
    log_scale = (b1 * np.log(x) - (lam - 1.0) * math.log(2.0) - math.lgamma(a1 - b1) + ref
                 + np.ravel(log_factor))
    g = np.exp(log_scale) * total
    # Far past the peak the integrand keeps only the digits that ln u0 + s keeps, so
    # the quadrature can stop short; there the scale underflows and the value is 0 anyway.
    for xi, w, gi in zip(x, why, g):
        if w is not None and gi != 0.0:
            raise UnsupportedDomainError(f"meijer_g_1330 quadrature at x={xi:g}: {w}")
    return g.reshape(xs.shape)[()]
