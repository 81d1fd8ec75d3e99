"""Special-function kernel.

Everything here is pure and reentrant. The parabolic cylinder function is
taken by a recurrence in its order, with no quadrature. The Meijer G
evaluator is one Bessel-K integral taken by adaptive quadrature rather than
a residue series, so integer-coincident pole differences (which the default
turbulence parameters produce) need no case analysis.
"""

from __future__ import annotations

import math
from typing import Tuple

from scipy import special as sp  # integrate/optimize load in meijer_g_1330, the one integrator

from .errors import DomainError, UnsupportedDomainError

__all__ = ["parabolic_cylinder_d", "meijer_g_1330"]

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

    if not 0.0 < x < math.inf:
        raise DomainError(f"meijer_g_1330 requires finite x > 0, got {x}")
    b1, b2, b3 = b
    if not a1 > b1:
        raise UnsupportedDomainError(f"meijer_g_1330 implemented for a1 > b1, got {a1} <= {b1}")
    lam = b2 + b3 - 2.0 * b1 - 1.0
    u0 = 2.0 * math.sqrt(x)
    log_u0, log_end = math.log(u0), math.log(max(u0, 2.0 * lam + 2.0) + 80.0)

    def log_f(log_u):
        return (lam + 1.0) * log_u - math.exp(log_u) + math.log(sp.kve(b2 - b3, math.exp(log_u)))

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
