"""Closed-form and asymptotic performance expressions, plus their
quadrature oracles over the Gaussian aggregate-SNR density.

The MGF here uses the completed-square form

    M(s) = (1/2) exp(s^2 g^2 d^2 / 2 - s g m) erfc(s g d / sqrt(2) - m / (sqrt(2) d))

(g = average SNR, m / d^2 = aggregate mean / variance), which is the
exact Laplace transform of the truncated Gaussian density; the BER and
capacity closed forms are its direct consequences.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import integrate
from scipy import special as sp

from .channel import PointingGeometry, TurbulenceParams, pdf_gamma_clt
from .errors import DegenerateParametersError, DomainError
from . import numerics

__all__ = [
    "MomentSummary",
    "AsymptoticProfile",
    "moments",
    "mgf",
    "generalized_moment",
    "amount_of_fading",
    "outage_probability",
    "asymptotic_profile",
    "asymptotic_outage",
    "average_ber",
    "channel_capacity",
    "METRIC_KINDS",
    "metric_value",
    "oracle_metric",
    "track_clamps",
]

# Two-exponential fit of log2(1 + x), valid up to roughly x ~ 1e3.
CAPACITY_ETA = (9.331, -2.635, -4.032, -2.388)
CAPACITY_ZETA = (0.000, 0.037, 0.004, 0.274)
CAPACITY_FIT_LIMIT = 1e3

# Two-exponential upper approximation of the Gaussian Q-function.
CHIANI_WEIGHTS = (1.0 / 12.0, 1.0 / 4.0)
CHIANI_RATES = (1.0, 4.0 / 3.0)

_POLE_SEPARATION = 1e-6

# Quadrature budget of the oracles. The outage oracle integrates to the
# relative tolerance alone: its value can lie hundreds of decades below
# any fixed absolute tolerance.
_ORACLE_ABS_TOL = 1e-14
_ORACLE_REL_TOL = 1e-10
_ORACLE_LIMIT = 400

_clamp_events: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "clamp_events", default=None
)


@contextlib.contextmanager
def track_clamps():
    """Context manager collecting range-clamp events from this module.

    Yields a list that receives one entry per clamped evaluation.
    """
    events: list = []
    token = _clamp_events.set(events)
    try:
        yield events
    finally:
        _clamp_events.reset(token)


def _clamp(value: float, lo: float, hi: float) -> float:
    if lo <= value <= hi:
        return value
    events = _clamp_events.get()
    if events is not None:
        events.append(value)
    return min(max(value, lo), hi)


@dataclass(frozen=True)
class MomentSummary:
    """Per-element moments of B and their CLT aggregate over N elements."""

    m1: float
    delta1_sq: float
    n_elements: int
    m: float
    delta_sq: float

    @property
    def delta(self) -> float:
        return math.sqrt(self.delta_sq)


def _gamma_ratio(a: float, k: int) -> float:
    """Gamma(a + k) / (a^k Gamma(a)) as the product of (1 + i/a) over i < k.

    The product is accurate to rounding for every a > 0; an lgamma
    difference loses digits as a grows (2e-7 relative at a = 1e8).
    """
    return math.prod(1.0 + i / a for i in range(k))


def moments(t: TurbulenceParams, g: PointingGeometry, n_elements: int) -> MomentSummary:
    """Mean and variance of B = (h_a h_p)^2, and the N-element aggregate."""
    if n_elements < 1:
        raise DomainError("n_elements must be >= 1")
    a, b, c, a0 = t.alpha, t.beta, g.c, g.a0
    try:
        m1 = c * a0 ** 2 / (c + 2.0) * _gamma_ratio(a, 2) * _gamma_ratio(b, 2)
        second = c * a0 ** 4 / (c + 4.0) * _gamma_ratio(a, 4) * _gamma_ratio(b, 4)
        delta1_sq = second - m1 * m1
        m, delta_sq = n_elements * m1, n_elements * delta1_sq
    except OverflowError:
        m = delta_sq = math.nan
    # The CLT model needs a positive mean and variance.
    if not (0.0 < m < math.inf and 0.0 < delta_sq < math.inf):
        raise DomainError(
            f"aggregate moments m = {m:g}, delta^2 = {delta_sq:g} at N = {n_elements} "
            "are not positive finite numbers"
        )
    return MomentSummary(
        m1=m1,
        delta1_sq=delta1_sq,
        n_elements=n_elements,
        m=m,
        delta_sq=delta_sq,
    )


def mgf(s: float, ms: MomentSummary, gamma_bar: float) -> float:
    """E[exp(-s * gamma)] under the Gaussian aggregate-SNR density."""
    if s < 0:
        raise DomainError("mgf requires s >= 0")
    if not gamma_bar > 0:
        raise DomainError("gamma_bar must be positive")
    m, d = ms.m, ms.delta
    u = s * gamma_bar * d / math.sqrt(2.0) - m / (math.sqrt(2.0) * d)
    if u >= 0:
        # erfc(u) e^{A} = erfcx(u) e^{A - u^2}, and A - u^2 = -m^2/(2 d^2)
        return 0.5 * float(sp.erfcx(u)) * math.exp(-m * m / (2.0 * d * d))
    a_exp = 0.5 * s * s * gamma_bar ** 2 * d * d - s * gamma_bar * m
    return 0.5 * math.erfc(u) * math.exp(a_exp)


def generalized_moment(n: int, ms: MomentSummary, gamma_bar: float) -> float:
    """E[gamma^n] via the parabolic-cylinder closed form."""
    if n < 0:
        raise DomainError("moment order must be >= 0")
    m, d = ms.m, ms.delta
    dv = numerics.parabolic_cylinder_d(-n - 1.0, -m / d)
    return (
        (gamma_bar * d) ** n
        / math.sqrt(2.0 * math.pi)
        * math.exp(-m * m / (4.0 * d * d))
        * math.gamma(n + 1)
        * dv
    )


def amount_of_fading(n: int, ms: MomentSummary, gamma_bar: float) -> float:
    """n-th order amount of fading, E[gamma^n] / E[gamma]^n - 1."""
    if n == 1:
        return 0.0
    return generalized_moment(n, ms, gamma_bar) / generalized_moment(1, ms, gamma_bar) ** n - 1.0


def outage_probability(gamma_th: float, ms: MomentSummary, gamma_bar: float) -> float:
    """P(gamma <= gamma_th) under the Gaussian aggregate-SNR density."""
    if gamma_th < 0:
        raise DomainError("gamma_th must be non-negative")
    if gamma_th == 0.0:
        return 0.0
    m, d = ms.m, ms.delta
    # A difference of normal CDFs keeps relative accuracy when both
    # arguments lie deep in the lower tail, where 1 + erf(x) cancels.
    val = float(sp.ndtr((gamma_th - m * gamma_bar) / (gamma_bar * d)) - sp.ndtr(-m / d))
    return _clamp(val, 0.0, 1.0)


@dataclass(frozen=True)
class AsymptoticProfile:
    """High-SNR expansion data of the single-element SNR density."""

    b: Tuple[float, float, float]  # (c - 1, alpha - 1, beta - 1)
    varrho: float  # min(b)
    log_epsilon: float  # log of the (positive) residue coefficient of the leading power
    n_elements: int

    @property
    def diversity_order(self) -> float:
        return 0.5 * (1.0 + self.varrho) * self.n_elements


def asymptotic_profile(
    t: TurbulenceParams, g: PointingGeometry, n_elements: int
) -> AsymptoticProfile:
    """Leading-power profile (varrho, epsilon, diversity order).

    Requires the three exponents c-1, alpha-1, beta-1 to be pairwise
    distinct; coincident values merge poles of the expansion and the
    single-residue coefficient does not exist. The coefficient is kept
    as a logarithm, since its Gamma factors overflow for large exponents.
    """
    b = (g.c - 1.0, t.alpha - 1.0, t.beta - 1.0)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(b[i] - b[j]) <= _POLE_SEPARATION:
                raise DegenerateParametersError(
                    f"exponents {b[i]} and {b[j]} are too close for the asymptotic expansion"
                )
    i_star = min(range(3), key=lambda i: b[i])
    if not b[i_star] > -1.0:
        raise DegenerateParametersError(
            f"leading exponent {b[i_star]} gives no positive diversity order"
        )
    # epsilon = prod_{j != i*} Gamma(b_j - varrho) / Gamma(c - varrho); the
    # last Gamma has no fixed sign, and a non-positive epsilon is unusable.
    denominator = g.c - b[i_star]
    log_eps = float(
        sum(sp.gammaln(b[j] - b[i_star]) for j in range(3) if j != i_star)
        - sp.gammaln(denominator)
    )
    if not (sp.gammasgn(denominator) > 0 and math.isfinite(log_eps)):
        raise DegenerateParametersError(
            "asymptotic coefficient is not a positive finite number; expansion not usable"
        )
    return AsymptoticProfile(b=b, varrho=b[i_star], log_epsilon=log_eps, n_elements=n_elements)


def asymptotic_outage(
    gamma_th: float,
    profile: AsymptoticProfile,
    t: TurbulenceParams,
    g: PointingGeometry,
    gamma_bar: float,
) -> float:
    """High-SNR power-law outage; exact log-slope -(1 + varrho) N / 20 per dB."""
    if not gamma_th > 0:
        return 0.0
    rho = profile.varrho
    n = profile.n_elements
    d = 0.5 * (1.0 + rho) * n
    log_k = (
        profile.log_epsilon
        + math.log(g.c)
        + (1.0 + rho) * (math.log(t.alpha) + math.log(t.beta) - math.log(g.a0))
        + math.lgamma(0.5 * (1.0 + rho))
        - math.log(2.0)
        - math.lgamma(t.alpha)
        - math.lgamma(t.beta)
    )
    log_p = (
        n * (log_k - 0.5 * (1.0 + rho) * math.log(gamma_bar))
        + d * math.log(gamma_th)
        - math.lgamma(d)
        - math.log(d)
    )
    if log_p > 0.0:
        return _clamp(math.exp(min(log_p, 700.0)), 0.0, 1.0)
    return math.exp(log_p)


def average_ber(psi: float, ms: MomentSummary, gamma_bar: float) -> float:
    """Average BER using the two-exponential Q-function approximation.

    For psi = 1 (BPSK) this is exactly (1/12) M(1) + (1/4) M(4/3); other
    modulation coefficients rescale the two exponential rates.
    """
    if not psi > 0:
        raise DomainError("psi must be positive")
    val = sum(
        w * mgf(r * psi, ms, gamma_bar) for w, r in zip(CHIANI_WEIGHTS, CHIANI_RATES)
    )
    return _clamp(val, 0.0, 0.5)


def channel_capacity(ms: MomentSummary, gamma_bar: float) -> float:
    """Ergodic capacity (bits/channel use) from the exponential log fit."""
    if ms.m * gamma_bar > CAPACITY_FIT_LIMIT:
        warnings.warn(
            "mean SNR exceeds the validity window of the capacity fit; "
            "prefer oracle_metric('capacity', ...)",
            UserWarning,
            stacklevel=2,
        )
    val = sum(e * mgf(z, ms, gamma_bar) for e, z in zip(CAPACITY_ETA, CAPACITY_ZETA))
    return max(val, 0.0)


# The metrics that are the mean of a per-realization value of the SNR.
METRIC_KINDS = ("outage", "ber_exactQ", "ber_chiani", "capacity", "moment", "mgf")


def metric_value(
    kind: str,
    x,
    *,
    gamma_th: Optional[float] = None,
    psi: float = 1.0,
    n: int = 1,
    s: float = 0.0,
):
    """Per-realization value g(x) at SNR x, vectorized; the metric is E[g(gamma)].

    outage: 1{x <= gamma_th}; ber_exactQ: Q(sqrt(2 psi x)); ber_chiani: the
    two-exponential approximation of that Q; capacity: log2(1 + x);
    moment: x^n; mgf: exp(-s x).
    """
    if kind == "outage":
        if gamma_th is None:
            raise DomainError("outage requires gamma_th")
        return np.less_equal(x, gamma_th).astype(float)
    if kind == "ber_exactQ":
        return 0.5 * sp.erfc(np.sqrt(psi * x))
    if kind == "ber_chiani":
        return sum(w * np.exp(-r * psi * x) for w, r in zip(CHIANI_WEIGHTS, CHIANI_RATES))
    if kind == "capacity":
        return np.log2(1.0 + x)
    if kind == "moment":
        return x ** n
    if kind == "mgf":
        return np.exp(-s * x)
    raise DomainError(f"unknown metric kind {kind!r}; choose from {METRIC_KINDS}")


def oracle_metric(
    kind: str,
    ms: MomentSummary,
    gamma_bar: float,
    *,
    gamma_th: Optional[float] = None,
    psi: float = 1.0,
    n: int = 1,
    s: float = 0.0,
) -> Tuple[float, float]:
    """Independent quadrature of a metric's defining integral.

    Integrates metric_value against the Gaussian aggregate-SNR density on
    [0, inf), outage as the density over [0, gamma_th]; the closed forms
    above must agree with this to quadrature accuracy.
    """
    mu = gamma_bar * ms.m
    sd = gamma_bar * ms.delta
    clt = (ms.m, ms.delta_sq, gamma_bar)

    if kind == "outage":
        if gamma_th is None:
            raise DomainError("outage requires gamma_th")
        if gamma_th == 0.0:
            return 0.0, 0.0
        pts = [p for p in (mu - 8.0 * sd, mu, mu + 8.0 * sd) if 0.0 < p < gamma_th]
        val, err = integrate.quad(
            pdf_gamma_clt, 0.0, gamma_th, args=clt, points=pts or None, epsabs=0.0,
            epsrel=_ORACLE_REL_TOL, limit=_ORACLE_LIMIT,
        )
        return float(val), float(err)

    def integrand(x):
        return metric_value(kind, x, psi=psi, n=n, s=s) * pdf_gamma_clt(x, *clt)

    # Split at the density mode so the adaptive rule sees the mass.
    cut = max(mu + 12.0 * sd, 16.0 * sd)
    pts = [p for p in (mu - 8.0 * sd, mu, mu + 8.0 * sd) if 0.0 < p < cut]
    val1, err1 = integrate.quad(
        integrand, 0.0, cut, points=pts or None, epsabs=_ORACLE_ABS_TOL,
        epsrel=_ORACLE_REL_TOL, limit=_ORACLE_LIMIT,
    )
    val2, err2 = integrate.quad(
        integrand, cut, np.inf, epsabs=_ORACLE_ABS_TOL, epsrel=_ORACLE_REL_TOL,
        limit=_ORACLE_LIMIT,
    )
    return float(val1 + val2), float(err1 + err2)
