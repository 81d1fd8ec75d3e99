"""Channel parameter derivation and sample generation.

Covers the Gamma-Gamma turbulence gain, the misalignment (pointing
error) gain produced by transmitter and reflecting-surface jitter, and
the aggregate squared-gain sum over the N reflecting elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError
from . import numerics

__all__ = [
    "TurbulenceParams",
    "PointingGeometry",
    "LinkConfig",
    "check_link",
    "RandomStream",
    "derive_turbulence",
    "sample_h_a",
    "sample_h_p",
    "sample_aggregate",
    "pdf_b",
]

# Elements drawn and summed at a time by sample_aggregate. Changing it
# changes the seed -> sample mapping of every run with more elements.
_ELEMENT_CHUNK = 256

# Values (512 KiB of float64) of one element chunk that sample_aggregate draws
# at a time: _TILE // cols rows of cols elements, each factor drawn whole per
# tile. It is part of the seed -> sample mapping of every block with more rows.
_TILE = 1 << 16


@dataclass(frozen=True)
class TurbulenceParams:
    """Gamma-Gamma shape parameters."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise DomainError("alpha and beta must be positive and finite")


def derive_turbulence(
    cn2: float, wavelength: float, path_length: float, aperture_radius: float
) -> TurbulenceParams:
    """Gamma-Gamma (alpha, beta) from the atmospheric condition.

    Uses the Rytov variance sigma_R^2 = 0.5 Cn^2 k_w^(7/6) L^(11/6) and
    the aperture parameter kappa^2 = k_w D_a^2 / (4 L), D_a = 2a.
    """
    for name, val in (
        ("cn2", cn2),
        ("wavelength", wavelength),
        ("path_length", path_length),
        ("aperture_radius", aperture_radius),
    ):
        if not val > 0:
            raise DomainError(f"{name} must be positive, got {val}")
    k_w = 2.0 * math.pi / wavelength
    try:
        sigma_r2 = 0.5 * cn2 * k_w ** (7.0 / 6.0) * path_length ** (11.0 / 6.0)
        kappa2 = k_w * (2.0 * aperture_radius) ** 2 / (4.0 * path_length)
        s65 = sigma_r2 ** (6.0 / 5.0)  # sigma_R^(12/5)
        alpha = 1.0 / math.expm1(
            0.49 * sigma_r2 / (1.0 + 0.18 * kappa2 + 0.56 * s65) ** (7.0 / 6.0)
        )
        beta = 1.0 / math.expm1(
            0.51 * sigma_r2 * (1.0 + 0.69 * s65) ** (-5.0 / 6.0)
            / (1.0 + 0.9 * kappa2 + 0.62 * kappa2 * s65) ** (5.0 / 6.0)
        )
    except (OverflowError, ZeroDivisionError) as exc:  # a float range exceeded, or 1 / 0
        raise DomainError("the atmospheric inputs give no finite turbulence shapes") from exc
    return TurbulenceParams(alpha=alpha, beta=beta)


@dataclass(frozen=True)
class PointingGeometry:
    """Misalignment model geometry and its derived constants.

    sigma_theta is the transmitter jitter std, sigma_beta the reflecting
    surface jitter std (both rad). The derived quantities are the
    aperture/beam ratio nu, the peak gain A0 = erf(nu)^2, the equivalent
    beam width squared wzeq2, and the power-law exponent c of the
    pointing-gain density.
    """

    sigma_theta: float
    sigma_beta: float
    distance_l1: float
    distance_l2: float
    beam_width: float
    aperture_radius: float
    nu: float = field(init=False)
    a0: float = field(init=False)
    wzeq2: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        if self.sigma_theta < 0 or self.sigma_beta < 0:
            raise DomainError("jitter deviations must be non-negative")
        if self.distance_l1 < 0 or not self.distance_l2 > 0:
            raise DomainError("require L1 >= 0 and L2 > 0")
        if not (self.beam_width > 0 and self.aperture_radius > 0):
            raise DomainError("beam width and aperture radius must be positive")
        nu = math.sqrt(math.pi / 2.0) * self.aperture_radius / self.beam_width
        if not nu > 0:  # a / w underflowed
            raise DomainError(f"derived constant nu = {nu:g} is not a positive finite number")
        try:
            wzeq2 = (
                self.beam_width ** 2
                * math.sqrt(math.pi)
                * math.erf(nu)
                * math.exp(nu * nu)
                / (2.0 * nu)
            )
            denom = (
                4.0 * self.sigma_theta ** 2 * self.total_distance ** 2
                + 16.0 * self.sigma_beta ** 2 * self.distance_l2 ** 2
            )
        except OverflowError as exc:
            raise DomainError("the pointing parameters overflow a derived constant") from exc
        if not denom > 0:
            raise DomainError("at least one jitter deviation must be positive")
        derived = {"nu": nu, "a0": math.erf(nu) ** 2, "wzeq2": wzeq2, "c": wzeq2 / denom}
        for name, value in derived.items():
            if not 0.0 < value < math.inf:
                raise DomainError(f"derived constant {name} = {value:g} is not a positive "
                                  "finite number")
            object.__setattr__(self, name, value)

    @property
    def total_distance(self) -> float:
        return self.distance_l1 + self.distance_l2

    @classmethod
    def from_exponent(
        cls, c: float, beam_width: float, aperture_radius: float, distance_l2: float
    ) -> "PointingGeometry":
        """Geometry realizing a prescribed power-law exponent c.

        The surface jitter is folded into an equivalent transmitter
        jitter over a single hop of length L2, which leaves the
        pointing-gain law (and hence every statistic) unchanged.
        """
        if not c > 0:
            raise DomainError("exponent c must be positive")
        probe = cls(1e-3, 0.0, 0.0, distance_l2, beam_width, aperture_radius)
        sigma_theta = math.sqrt(probe.wzeq2 / (4.0 * c)) / distance_l2
        return cls(sigma_theta, 0.0, 0.0, distance_l2, beam_width, aperture_radius)


@dataclass(frozen=True)
class LinkConfig:
    """Link-level settings: element count, average SNR, threshold, modulation."""

    n_elements: int = 128
    gamma_bar: float = 1.0  # linear average SNR
    gamma_th: float = 1.0  # linear SNR threshold
    psi: float = 1.0  # 1 BPSK, 0.5 coherent BFSK, 0.75 MSK

    def __post_init__(self):
        check_link(self.n_elements, self.gamma_bar, self.gamma_th, self.psi)

    @staticmethod
    def db_to_linear(x_db: float) -> float:
        return 10.0 ** (x_db / 10.0)


def check_link(n_elements=None, gamma_bar=None, gamma_th=None, psi=None) -> None:
    """Raise DomainError where a link parameter that is given (not None) leaves its
    domain, nan included: the one statement of each rule, which all callers share."""
    if n_elements is not None and not (isinstance(n_elements, (int, np.integer))
                                       and n_elements >= 1):
        raise DomainError("n_elements must be an integer >= 1")
    if gamma_bar is not None and not 0 < gamma_bar < math.inf:
        raise DomainError("gamma_bar must be positive and finite")
    if gamma_th is not None and not gamma_th >= 0:
        raise DomainError("gamma_th must be non-negative")
    if psi is not None and not psi > 0:
        raise DomainError("psi must be positive")


@dataclass(frozen=True)
class RandomStream:
    """Reproducible, independent random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


GeneratorLike = Union[RandomStream, np.random.Generator]


def _as_generator(rng: GeneratorLike) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    return rng


def sample_h_a(t: TurbulenceParams, rng: GeneratorLike, size) -> np.ndarray:
    """Unit-mean Gamma-Gamma turbulence gain samples.

    Drawn as the product of two independent unit-mean Gamma variates
    with shapes alpha and beta, which is exactly the doubly-stochastic
    construction behind the Gamma-Gamma density. All alpha variates come
    first, then all beta variates.
    """
    return _turbulence_gain(t, _as_generator(rng), np.empty(size), np.empty(size))


def _turbulence_gain(t: TurbulenceParams, g: np.random.Generator, h: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Unit-mean Gamma-Gamma draws into h, in place (w is scratch): the bits of
    g.gamma(alpha, 1 / alpha, h.shape) * g.gamma(beta, 1 / beta, h.shape)."""
    g.standard_gamma(t.alpha, out=h)
    h *= 1.0 / t.alpha
    g.standard_gamma(t.beta, out=w)
    w *= 1.0 / t.beta
    h *= w
    return h


def sample_h_p(geo: PointingGeometry, rng: GeneratorLike, size) -> np.ndarray:
    """Pointing-error gain samples in (0, A0], by inverse CDF.

    The superimposed jitter is isotropic Gaussian, so r^2 / (2 sigma_r^2)
    is standard exponential and h_p = A0 exp(-E / c) has the CDF
    (h / A0)^c of the beam-profile model.
    """
    return _pointing_gain(geo, _as_generator(rng).standard_exponential(size))


def _pointing_gain(geo: PointingGeometry, e: np.ndarray) -> np.ndarray:
    """A0 exp(-e / c) of standard exponentials e, in place."""
    np.negative(e, out=e)
    with np.errstate(over="ignore"):  # e / c = -inf gives exp = 0, the exact gain
        e /= geo.c
    np.exp(e, out=e)
    e *= geo.a0
    return e


def sample_aggregate(
    t: TurbulenceParams,
    geo: PointingGeometry,
    cfg: LinkConfig,
    rng: GeneratorLike,
    size: int,
) -> np.ndarray:
    """Draw Z = sum_k (h_a_k h_p_k)^2 over cfg.n_elements elements; the SNR is
    gamma_bar Z.

    The elements are drawn and summed _ELEMENT_CHUNK at a time, and each
    chunk of cols elements _TILE // cols rows at a time. Per tile, the one
    generator gives all its alpha variates, then its beta variates, then its
    exponentials: the draws of sample_h_a and sample_h_p on the tile's shape,
    made in place in one (2, _TILE) buffer. So a block holds the buffer
    (1 MiB) and Z for any N and size, and _ELEMENT_CHUNK and _TILE are both
    part of the seed -> sample mapping. Up to _ELEMENT_CHUNK elements and
    _TILE // N rows, the draws and the sum are those of a single tile.
    """
    g = _as_generator(rng)
    z = np.zeros(size)
    buf = np.empty((2, _TILE))
    for start in range(0, cfg.n_elements, _ELEMENT_CHUNK):
        cols = min(_ELEMENT_CHUNK, cfg.n_elements - start)
        step = _TILE // cols
        for r in range(0, size, step):
            rows = min(step, size - r)
            h, w = buf[:, :rows * cols]
            _turbulence_gain(t, g, h, w)
            h *= _pointing_gain(geo, g.standard_exponential(out=w))
            h *= h
            z[r:r + rows] += np.sum(h.reshape(rows, cols), axis=-1)
    return z


def pdf_b(x, t: TurbulenceParams, geo: PointingGeometry):
    """Density of the per-element squared composite gain B = (h_a h_p)^2."""
    a, b, c, a0 = t.alpha, t.beta, geo.c, geo.a0
    # ln of the prefactor a b c / (2 Gamma(a) Gamma(b) A0): Gamma(172) is past the float range.
    log_pref = (math.log(a) + math.log(b) + math.log(c) - math.log(2.0 * a0)
                - math.lgamma(a) - math.lgamma(b))
    bees = (c - 1.0, a - 1.0, b - 1.0)
    xs = np.asarray(x, dtype=float)
    bad = ~((xs > 0.0) & (xs < math.inf))
    if bad.any():
        raise DomainError(f"pdf_b requires finite x > 0, got {xs[bad][0]}")
    # pref / sqrt(x) goes in as a log: at tiny x the density is a normal float where G is not.
    with np.errstate(over="ignore"):  # meijer_g_1330 rejects an argument of inf
        z = a * b * np.sqrt(xs) / a0
    return numerics.meijer_g_1330(c, bees, z, log_factor=log_pref - 0.5 * np.log(xs))
