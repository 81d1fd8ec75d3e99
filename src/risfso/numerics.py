"""Special-function and quadrature kernel.

Everything here is pure and reentrant. The Meijer G evaluator uses a
numeric Mellin-Barnes contour rather than a residue series so that
integer-coincident pole differences (which the default turbulence
parameters produce) need no case analysis.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy import special as sp

from .errors import AccuracyError, DomainError, UnsupportedDomainError

__all__ = [
    "parabolic_cylinder_d",
    "meijer_g_1330",
]

# Implemented domain of parabolic_cylinder_d; wide enough for every
# moment order the analytics need (v = -n-1, n <= 11).
PCD_V_RANGE = (-12.0, 0.0)
PCD_Z_RANGE = (-40.0, 40.0)


def _pcd_integral_log(v: float, z: float) -> float:
    """log of I = int_0^inf t^(-v-1) exp(-t^2/2 - z t) dt for v < 0.

    The integrand can overflow for z << 0, so it is evaluated relative
    to its maximum and rescaled in log space.
    """
    p = -v - 1.0  # power of t; > -1 (integrable) on the implemented domain

    def log_f(t):
        return p * math.log(t) - 0.5 * t * t - z * t

    # Reference point for log-space rescaling: the stationary point of
    # log_f when one exists, otherwise the peak of the exponential part.
    candidates = [1.0]
    if z < 0:
        candidates.append(-z)
    disc = z * z + 4.0 * p
    if disc > 0:
        root = 0.5 * (-z + math.sqrt(disc))
        if root > 0:
            candidates.append(root)
    t_star = max(candidates, key=log_f)
    f_max = log_f(t_star)

    def g(t):
        if t <= 0.0:
            return 0.0 if p > 0 else math.exp(-f_max)
        return math.exp(log_f(t) - f_max)

    upper = t_star + 40.0
    pts = [t_star] if 0.0 < t_star < upper else None
    val1, _ = integrate.quad(g, 0.0, upper, points=pts, limit=300, epsabs=1e-300, epsrel=1e-12)
    val2, _ = integrate.quad(g, upper, np.inf, limit=100, epsabs=1e-300, epsrel=1e-12)
    total = val1 + val2
    if total <= 0:
        raise AccuracyError("parabolic cylinder integral lost all precision", partial=0.0)
    return f_max + math.log(total)


def parabolic_cylinder_d(v: float, z: float) -> float:
    """Parabolic cylinder function D_v(z) on v in [-12, 0], z in [-40, 40].

    For v < 0 it is computed from the standard integral representation
    with adaptive quadrature; v = 0 reduces to exp(-z^2/4).
    """
    if not (PCD_V_RANGE[0] <= v <= PCD_V_RANGE[1]) or not (
        PCD_Z_RANGE[0] <= z <= PCD_Z_RANGE[1]
    ):
        raise UnsupportedDomainError(
            f"parabolic_cylinder_d implemented for v in {PCD_V_RANGE}, "
            f"z in {PCD_Z_RANGE}; got v={v}, z={z}"
        )
    if v == 0.0:
        return math.exp(-0.25 * z * z)
    log_i = _pcd_integral_log(v, z)
    return math.exp(-0.25 * z * z - math.lgamma(-v) + log_i)


_PANEL_NODES, _PANEL_WEIGHTS = leggauss(32)

# Mellin-Barnes contour quadrature: half-height of the vertical line,
# starting and largest node counts, and the relative tolerance at which
# two successive node doublings must agree.
_MB_HALF_HEIGHT = 40.0
_MB_NODES = 512
_MB_MAX_NODES = 1 << 16
_MB_REL_TOL = 1e-9


def _auto_shift(b: Sequence[float], a1: float, x: float) -> float:
    """Contour abscissa for the Mellin-Barnes integral.

    Poles sit at s = -b_j - n (n >= 0), so any sigma >= 0.5 - min(b)
    keeps a distance of at least 0.5 from all of them. For large x the
    contour is moved further right, to the saddle of the integrand
    (where sum psi(b_j + s) - psi(a1 + s) = ln x), which suppresses the
    oscillatory cancellation that otherwise drowns tiny tail values.
    """
    sigma_min = 0.5 - min(b)

    def slope(sigma):
        return float(
            sum(sp.digamma(bi + sigma) for bi in b) - sp.digamma(a1 + sigma)
        ) - math.log(x)

    if slope(sigma_min) >= 0.0:
        return sigma_min
    lo, hi = sigma_min, sigma_min + 1.0
    while slope(hi) < 0.0 and hi < sigma_min + 1e8:
        hi = sigma_min + 2.0 * (hi - sigma_min)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mb_integral(b: Sequence[float], a1: float, x: float, sigma: float, n: int) -> float:
    """(1/pi) * Re int_0^T of the Mellin-Barnes integrand on Re(s)=sigma,
    T = _MB_HALF_HEIGHT.

    Composite 32-point Gauss-Legendre panels; n is the total node count.
    """
    n_panels = max(n // 32, 1)
    edges = np.linspace(0.0, _MB_HALF_HEIGHT, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    t = (mid + half * _PANEL_NODES[None, :]).ravel()
    w = (half * _PANEL_WEIGHTS[None, :]).ravel()
    s = sigma + 1j * t
    log_num = sum(sp.loggamma(bi + s) for bi in b)
    log_vals = log_num - sp.loggamma(a1 + s) - s * math.log(x)
    # Rescale by the t = 0 magnitude so a saddle-shifted contour with
    # huge Gamma factors cannot overflow the elementwise exp.
    ref = sum(math.lgamma(bi + sigma) for bi in b) - math.lgamma(a1 + sigma) - sigma * math.log(x)
    vals = np.exp(log_vals - ref)
    try:
        scale = math.exp(ref)
    except OverflowError:
        return math.inf, math.inf
    value = scale * float(np.sum(w * np.real(vals))) / math.pi
    envelope = scale * float(np.sum(w * np.abs(vals))) / math.pi
    return value, envelope


def meijer_g_1330(a1: float, b: Tuple[float, float, float], x: float) -> float:
    """G^{3,0}_{1,3}(x | a1 ; b1, b2, b3) for real parameters and x > 0.

    Evaluated by quadrature of the Mellin-Barnes contour integral

        (1/2 pi i) int Gamma(b1+s) Gamma(b2+s) Gamma(b3+s) / Gamma(a1+s)
                        * x^(-s) ds

    on a vertical line right of every numerator pole. Node count is
    doubled until two successive evaluations agree to a relative
    tolerance of 1e-9.
    """
    if not x > 0:
        raise DomainError(f"meijer_g_1330 requires x > 0, got {x}")
    sigma = _auto_shift(b, a1, x)

    n = _MB_NODES
    prev, _ = _mb_integral(b, a1, x, sigma, n)
    while n < _MB_MAX_NODES:
        n *= 2
        cur, envelope = _mb_integral(b, a1, x, sigma, n)
        # Floor the stopping test at the roundoff level of the oscillatory
        # integrand so heavily cancelling (tiny) values can still converge.
        tol = max(_MB_REL_TOL * max(abs(cur), abs(prev)), 32.0 * np.finfo(float).eps * envelope)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    achieved = abs(cur - prev) / max(abs(cur), 1e-300)
    raise AccuracyError(
        f"Mellin-Barnes contour did not converge (achieved rel error {achieved:.2e})",
        partial=cur,
        err_estimate=achieved,
    )

