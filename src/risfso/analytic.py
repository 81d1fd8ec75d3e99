"""Closed-form and asymptotic performance expressions, plus their
quadrature oracles over the Gaussian aggregate-SNR density.

The MGF here uses the completed-square form

    M(s) = (1/2) exp(s^2 g^2 d^2 / 2 - s g m) erfc(s g d / sqrt(2) - m / (sqrt(2) d))

(g = average SNR, m / d^2 = aggregate mean / variance), which is the
exact Laplace transform of the truncated Gaussian density; the BER and
capacity closed forms are its direct consequences.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import PointingGeometry, TurbulenceParams, check_link
from .errors import DomainError
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
    "oracle_metric",
]

# Two-exponential fit of log2(1 + x), valid for x from about 1 to 1e3: it
# gives 0.276 bits at x = 0.
CAPACITY_ETA = (9.331, -2.635, -4.032, -2.388)
CAPACITY_ZETA = (0.000, 0.037, 0.004, 0.274)
CAPACITY_FIT_LIMIT = 1e3

# Two-exponential upper approximation of the Gaussian Q-function.
CHIANI_WEIGHTS = (1.0 / 12.0, 1.0 / 4.0)
CHIANI_RATES = (1.0, 4.0 / 3.0)

_POLE_SEPARATION = 1e-6

# Quadrature tolerance of the oracles: a relative one alone, since a metric
# can lie hundreds of decades below any fixed absolute tolerance.
_ORACLE_REL_TOL = 1e-10


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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

    @property
    def clt_missing_mass(self) -> float:
        """P(Z < 0) under the Gaussian model of Z: the mass the closed forms drop."""
        return _phi(-self.m / self.delta)


def _gamma_ratio(a: float, k: int) -> float:
    """Gamma(a + k) / (a^k Gamma(a)) as the product of (1 + i/a) over i < k.

    The product is accurate to rounding for every a > 0; an lgamma
    difference loses digits as a grows (2e-7 relative at a = 1e8).
    """
    return math.prod(1.0 + i / a for i in range(k))


def moments(t: TurbulenceParams, g: PointingGeometry, n_elements: int) -> MomentSummary:
    """Mean and variance of B = (h_a h_p)^2, and the N-element aggregate."""
    check_link(n_elements=n_elements)
    a, b, c, a0 = t.alpha, t.beta, g.c, g.a0
    m1 = c * a0 ** 2 / (c + 2.0) * _gamma_ratio(a, 2) * _gamma_ratio(b, 2)
    second = c * a0 ** 4 / (c + 4.0) * _gamma_ratio(a, 4) * _gamma_ratio(b, 4)
    delta1_sq = second - m1 * m1
    m, delta_sq = n_elements * m1, n_elements * delta1_sq
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


def _per_snr(cells):
    """The closed form of ``cells``, whose last parameter, gamma_bar, is a list
    of average SNRs, and which gives per SNR its value or DomainError.

    A float average SNR gives the value or raises DomainError. A sequence of
    them gives a list with, per average SNR, the float call's value, bit for
    bit, or that cell's DomainError; it raises only for a bad parameter, which
    both forms report before a bad average SNR. The float call is the one-cell
    sequence call, so the work that does not depend on the average SNR runs
    once a call in either form.
    """

    @functools.wraps(cells)
    def closed_form(*args, **kwargs):
        if "gamma_bar" in kwargs:
            gamma_bar = kwargs.pop("gamma_bar")
        else:
            *args, gamma_bar = args
        if not isinstance(gamma_bar, (float, int, np.number)):
            return cells(*args, gamma_bar=gamma_bar, **kwargs)
        (cell,) = cells(*args, gamma_bar=[gamma_bar], **kwargs)
        if isinstance(cell, DomainError):
            raise cell
        return cell

    return closed_form


def _each(gammas, value) -> list:
    """Per average SNR, value(gamma_bar) if check_link accepts it, or the
    DomainError that either raises."""
    out = []
    for gamma_bar in gammas:
        try:
            check_link(gamma_bar=gamma_bar)
            out.append(value(gamma_bar))
        except DomainError as exc:
            out.append(exc)
    return out


def _weighted_sum(weights, columns) -> list:
    """Per average SNR, the sum of weight * cell over the columns, or the first
    column's DomainError there."""
    out = []
    for cells in zip(*columns):
        try:
            out.append(sum(map(operator.mul, weights, cells)))
        except TypeError:  # a weight times a DomainError cell
            out.append(next(c for c in cells if isinstance(c, DomainError)))
    return out


@_per_snr
def mgf(s: float, ms: MomentSummary, gamma_bar):
    """E[exp(-s * gamma)] under the Gaussian aggregate-SNR density; a sequence
    of gamma_bar gives the float call's bits per cell (see _per_snr)."""
    _check("mgf", s=s)
    m, d = ms.m, ms.delta
    shift = m / (math.sqrt(2.0) * d)
    tail = math.exp(-m * m / (2.0 * d * d))
    m_over_d = m / d

    def value(gb):
        u = s * gb * d / math.sqrt(2.0) - shift
        if u >= 0:
            # erfc(u) e^{A} = erfcx(u) e^{A - u^2}, and A - u^2 = -m^2/(2 d^2)
            val = 0.5 * numerics.erfcx(u) * tail
        else:
            # The exponent s^2 g^2 d^2 / 2 - s g m, scale-free: x < m / d here,
            # so it is not positive even where (s g d)^2 alone overflows.
            x = s * gb * d
            val = 0.5 * math.erfc(u) * math.exp(x * (0.5 * x - m_over_d))
        if not math.isfinite(val):
            raise DomainError(f"MGF at s = {s:g}, gamma_bar = {gb:g} is past the float range")
        return val

    return _each(gamma_bar, value)


@_per_snr
def generalized_moment(n: int, ms: MomentSummary, gamma_bar):
    """E[gamma^n] for integer n >= 0 via the parabolic-cylinder closed form,
    with D_{-n-1}(-m/delta) scaled by e^(-m^2/(4 delta^2)), which does not
    depend on gamma_bar; a sequence of gamma_bar gives the float call's bits
    per cell (see _per_snr)."""
    _check("moment", n=n)
    m, d = ms.m, ms.delta
    dv = numerics.parabolic_cylinder_d(-n - 1.0, -m / d)
    root_2pi, factorial = math.sqrt(2.0 * math.pi), math.gamma(n + 1)

    def value(gb):
        try:
            val = (gb * d) ** n / root_2pi * factorial * dv
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise DomainError(f"moment of order {n} at gamma_bar = {gb:g} "
                              "is past the float range")
        return val

    return _each(gamma_bar, value)


def amount_of_fading(n: int, ms: MomentSummary, gamma_bar: float) -> float:
    """n-th order amount of fading, E[gamma^n] / E[gamma]^n - 1.

    The ratio does not depend on gamma_bar, so both moments are taken at 1;
    gamma_bar is kept for the callers that pass every closed form the SNR.
    """
    _check("moment", n=n, gamma_bar=gamma_bar)
    try:
        af = generalized_moment(n, ms, 1.0) / generalized_moment(1, ms, 1.0) ** n - 1.0
    except (OverflowError, ZeroDivisionError):
        af = math.inf
    if not math.isfinite(af):
        raise DomainError(f"amount of fading of order {n} is past the float range")
    return af


@_per_snr
def outage_probability(gamma_th: float, ms: MomentSummary, gamma_bar):
    """P(gamma <= gamma_th) under the Gaussian aggregate-SNR density; a sequence
    of gamma_bar gives the float call's bits per cell (see _per_snr)."""
    _check("outage", gamma_th)
    if gamma_th == 0.0:
        return _each(gamma_bar, lambda gb: 0.0)
    m, d = ms.m, ms.delta
    a = -m / d
    # The limit Phi(m / d) where gamma_th / (gamma_bar d) is past every float.
    limit, phi_a = _phi(m / d), _phi(a)

    def value(gb):
        if gb * d == 0.0 or gamma_th == math.inf:
            return limit
        h = gamma_th / (gb * d)
        if h * max(1.0, -a) <= 1.0:
            # Phi(a + h) and Phi(a) share their leading digits here, so their
            # difference would cancel; integrate the density over [a, a + h] by
            # the Kronrod rule of the oracles, exact to degree 31.
            x = a + 0.5 * h * (1.0 + numerics._QK21_X)
            return (0.5 * h * float(np.dot(numerics._QK21_WK, np.exp(-0.5 * x * x)))
                    / math.sqrt(2.0 * math.pi))
        # A difference of normal CDFs keeps relative accuracy when both
        # arguments lie deep in the lower tail, where 1 + erf(x) cancels.
        return _phi((gamma_th - m * gb) / (gb * d)) - phi_a

    return _each(gamma_bar, value)


@dataclass(frozen=True)
class AsymptoticProfile:
    """High-SNR expansion data of the single-element SNR density."""

    varrho: float  # min(c - 1, alpha - 1, beta - 1)
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
    check_link(n_elements=n_elements)
    b = (g.c - 1.0, t.alpha - 1.0, t.beta - 1.0)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(b[i] - b[j]) <= _POLE_SEPARATION:
                raise DomainError(
                    f"exponents {b[i]} and {b[j]} are too close for the asymptotic expansion"
                )
    i_star = min(range(3), key=lambda i: b[i])
    if not b[i_star] > -1.0:
        raise DomainError(f"leading exponent {b[i_star]} gives no positive diversity order")
    # epsilon = prod_{j != i*} Gamma(b_j - varrho) / Gamma(c - varrho). Every
    # argument is positive (c - varrho >= 1), so epsilon > 0; only its
    # logarithm can leave the float range, where lgamma raises.
    try:
        log_eps = (sum(math.lgamma(b[j] - b[i_star]) for j in range(3) if j != i_star)
                   - math.lgamma(g.c - b[i_star]))
    except OverflowError:
        log_eps = math.inf
    if not math.isfinite(log_eps):
        raise DomainError(
            "asymptotic coefficient is not a positive finite number; expansion not usable"
        )
    return AsymptoticProfile(varrho=b[i_star], log_epsilon=log_eps, n_elements=n_elements)


@_per_snr
def asymptotic_outage(
    gamma_th: float,
    profile: AsymptoticProfile,
    t: TurbulenceParams,
    g: PointingGeometry,
    gamma_bar,
):
    """High-SNR power-law outage; exact log-slope -(1 + varrho) N / 20 per dB.
    A sequence of gamma_bar gives the float call's bits per cell (see _per_snr)."""
    _check("outage", gamma_th)
    if gamma_th == 0.0:
        return _each(gamma_bar, lambda gb: 0.0)
    rho = profile.varrho
    n = profile.n_elements
    d = profile.diversity_order
    log_k = (
        profile.log_epsilon
        + math.log(g.c)
        + (1.0 + rho) * (math.log(t.alpha) + math.log(t.beta) - math.log(g.a0))
        + math.lgamma(0.5 * (1.0 + rho))
        - math.log(2.0)
        - math.lgamma(t.alpha)
        - math.lgamma(t.beta)
    )
    half_order = 0.5 * (1.0 + rho)
    d_log_th, lgamma_d, log_d = d * math.log(gamma_th), math.lgamma(d), math.log(d)

    def value(gb):
        log_p = n * (log_k - half_order * math.log(gb)) + d_log_th - lgamma_d - log_d
        return math.exp(min(log_p, 0.0))

    return _each(gamma_bar, value)


@_per_snr
def average_ber(psi: float, ms: MomentSummary, gamma_bar):
    """Average BER using the two-exponential Q-function approximation.

    For psi = 1 (BPSK) this is exactly (1/12) M(1) + (1/4) M(4/3); other
    modulation coefficients rescale the two exponential rates. A sequence of
    gamma_bar gives the float call's bits per cell (see _per_snr), from one
    mgf call per rate.
    """
    _check("ber_chiani", psi=psi)
    return _weighted_sum(CHIANI_WEIGHTS, [mgf(r * psi, ms, gamma_bar) for r in CHIANI_RATES])


@_per_snr
def channel_capacity(ms: MomentSummary, gamma_bar):
    """Ergodic capacity (bits/channel use) from the exponential log fit, which
    holds for a mean SNR m * gamma_bar from about 1 to CAPACITY_FIT_LIMIT. A
    sequence of gamma_bar gives the float call's bits per cell (see _per_snr),
    from one mgf call per fit term."""
    return _weighted_sum(CAPACITY_ETA, [mgf(z, ms, gamma_bar) for z in CAPACITY_ZETA])


# Each kind's per-realization value g(x) on a numpy array of SNRs: the
# oracle's quadrature nodes and Monte Carlo's samples (at n = 1, s = 0).
# Capacity is log1p(x) / ln 2, since log2(1 + x) rounds 1 + x first (6e-9
# relative at x = 1e-8).
_LN2 = math.log(2.0)
_FORMS = {
    "outage": lambda x, th, psi, n, s: (x <= th) * 1.0,
    "ber_exactQ": lambda x, th, psi, n, s: 0.5 * numerics.erfc(np.sqrt(psi * x)),
    "ber_chiani": lambda x, th, psi, n, s: sum(
        w * np.exp(-r * psi * x) for w, r in zip(CHIANI_WEIGHTS, CHIANI_RATES)),
    "capacity": lambda x, th, psi, n, s: np.log1p(x) / _LN2,
    "moment": lambda x, th, psi, n, s: x ** n,
    "mgf": lambda x, th, psi, n, s: np.exp(-s * x),
}

# The metrics that are the mean of a per-realization value of the SNR.
METRIC_KINDS = tuple(_FORMS)


def _check(kind: str, gamma_th: Optional[float] = None, psi: float = 1.0, n: int = 1,
           s: float = 0.0, gamma_bar: Optional[float] = None) -> None:
    """Raise DomainError where the kind's parameters leave its domain, for the closed
    forms and the oracle alike; the link rules are check_link's."""
    if kind not in _FORMS:
        raise DomainError(f"unknown metric kind {kind!r}; choose from {METRIC_KINDS}")
    if kind == "outage" and gamma_th is None:
        raise DomainError("outage requires gamma_th")
    check_link(gamma_bar=gamma_bar, gamma_th=gamma_th if kind == "outage" else None,
               psi=psi if kind in ("ber_exactQ", "ber_chiani") else None)
    if kind == "mgf" and not s >= 0:
        raise DomainError("mgf requires s >= 0")
    if kind == "moment" and not n >= 0:
        raise DomainError("moment order must be >= 0")


# Products of huge SNRs overflow to inf, as they do in float arithmetic.
@np.errstate(over="ignore")
def _oracle_grid(kind: str, summaries, gammas, gamma_th: Optional[float], psi: float,
                 n: int, s: float) -> list:
    """oracle_metric on each (summary, average SNR) cell, in one quadrature pass:
    per summary, a list of (value, err) or that cell's DomainError."""
    grid = [float(gamma_bar) for gamma_bar in gammas]
    gb = np.array(grid)
    m = np.array([ms.m for ms in summaries]).reshape(-1, 1)
    delta_sq = np.array([ms.delta_sq for ms in summaries]).reshape(-1, 1)
    out: list = [[None] * len(grid) for _ in summaries]
    var = 2.0 * (gb * gb) * delta_sq
    # np.sqrt is correctly rounded, as math.sqrt is, so sd is gamma_bar * ms.delta.
    mu, sd = gb * m, gb * np.sqrt(delta_sq)
    ok = (gb > 0.0) & (0.0 < var) & (var < math.inf)
    for i, j in zip(*np.nonzero(~ok)):
        try:
            check_link(gamma_bar=grid[j])
        except DomainError as exc:
            out[i][j] = exc
        else:
            out[i][j] = DomainError(
                f"SNR variance at gamma_bar = {grid[j]:g} is out of float range")
    cells = np.argwhere(ok)
    mu, sd = mu[ok], sd[ok]

    # Past end the density is below e^-72 of its peak, and the outage form is 0
    # past gamma_th. The first panels split at the density mode and, for a form
    # that falls off at x = 0 at a rate r, at the edges 1/r and 729/r of its
    # spike there (past 729/r its erfc and exponentials are below 1e-308), so
    # the adaptive rule sees the mass. Each row holds a cell's cuts in (0, end),
    # sorted, then end; the cuts outside are inf, past every kept one.
    end = np.maximum(mu + 12.0 * sd, 16.0 * sd)
    if kind == "outage":
        end = np.minimum(end, gamma_th)
    rate = {"ber_exactQ": psi, "ber_chiani": psi, "mgf": s}.get(kind, 0.0)
    spike = (1.0 / rate, 729.0 / rate) if rate > 0 else ()
    points = np.column_stack((mu - 8.0 * sd, mu, mu + 8.0 * sd,
                              np.tile(np.array(spike), (len(mu), 1)), end))
    kept = (0.0 < points) & (points < end[:, None])
    kept[:, -1] = True
    hi = np.sqrt(np.sort(np.where(kept, points, np.inf), axis=1))
    lo = np.column_stack((np.zeros(len(mu)), hi[:, :-1]))
    panel = np.arange(hi.shape[1]) < kept.sum(axis=1)[:, None]

    def integrand(y, owner):
        x, cell_sd = y * y, sd[owner][:, None]
        # The density uses sd, not the variance, which is subnormal far below
        # 0 dB and keeps only a few digits there; t * t may overflow to inf.
        t = (x - mu[owner][:, None]) / cell_sd
        norm = math.sqrt(2.0 * math.pi) * cell_sd
        return 2.0 * y * _FORMS[kind](x, gamma_th, psi, n, s) * np.exp(-0.5 * t * t) / norm

    val, err, why = numerics.integrate_qk21(
        integrand, lo[panel], hi[panel], panel.nonzero()[0], len(mu), _ORACLE_REL_TOL)
    for (i, j), v, e, w in zip(cells.tolist(), val.tolist(), err.tolist(), why):
        out[i][j] = (v, e) if w is None else DomainError(
            f"{kind} quadrature at gamma_bar = {grid[j]:g}: {w}")
    return out


def oracle_metric(
    kind: str,
    ms: MomentSummary,
    gamma_bar,
    *,
    gamma_th: Optional[float] = None,
    psi: float = 1.0,
    n: int = 1,
    s: float = 0.0,
):
    """Independent quadrature of a metric's defining integral.

    Integrates the kind's _FORMS entry against the Gaussian aggregate-SNR
    density on [0, inf) to a relative tolerance alone, in y = sqrt(x): the
    exact-Q form erfc(sqrt(psi x)) has a sqrt(x) endpoint behaviour of width
    about 1/psi, which is smooth in y. The rule is QUADPACK's QK21, globally
    adaptive; the closed forms above must agree with it to quadrature accuracy.

    One MomentSummary with a float gamma_bar gives (value, err) and raises
    DomainError where the quadrature does not converge. A sequence of
    MomentSummary with a sequence of average SNRs integrates every (summary,
    average SNR) cell in one vectorized pass and gives one list per summary:
    per average SNR, the (value, err) the float call would give, bit for bit,
    or that cell's DomainError; it raises only for a bad kind or parameter.
    """
    _check(kind, gamma_th, psi, n, s)
    if not isinstance(ms, MomentSummary):
        return _oracle_grid(kind, ms, gamma_bar, gamma_th, psi, n, s)
    ((cell,),) = _oracle_grid(kind, [ms], [gamma_bar], gamma_th, psi, n, s)
    if isinstance(cell, DomainError):
        raise cell
    return cell
