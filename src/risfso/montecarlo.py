"""Streaming, mergeable Monte Carlo estimators.

Samples are generated in fixed-size blocks, each seeded independently
from (seed, block_id). Per-block sums are kept in the accumulator and
pooled with exact summation over sorted block ids, so any partition of
the same block span - across workers or across merged estimates -
reproduces bit-identical pooled statistics.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import analytic, channel
from .channel import LinkConfig, PointingGeometry, RandomStream, TurbulenceParams
from .errors import DomainError, MergeError

__all__ = ["BLOCK_SIZE", "McEstimate", "estimate", "estimate_grid", "merge",
           "confidence_interval"]

BLOCK_SIZE = 4096
MIN_SAMPLES = 1000

# Average SNRs a block is evaluated at in one array, which bounds each
# (gamma_bar, sample) temporary to 2 MiB for any grid length.
_GAMMA_CHUNK = 64

BlockStats = Tuple[int, float, float]  # (count, sum, sum of squares)


def _fingerprint(t: TurbulenceParams, g: PointingGeometry, cfg: LinkConfig) -> str:
    parts = (
        t.alpha, t.beta, g.sigma_theta, g.sigma_beta, g.distance_l1,
        g.distance_l2, g.beam_width, g.aperture_radius, cfg.n_elements,
        cfg.gamma_bar, cfg.gamma_th, cfg.psi,
    )
    return ",".join(f"{p:.17g}" for p in parts)


@dataclass(frozen=True)
class McEstimate:
    """Mergeable Monte Carlo accumulator for one metric."""

    metric_kind: str
    fingerprint: str
    seed: int
    block_stats: Mapping[int, BlockStats] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "block_stats", MappingProxyType(dict(self.block_stats)))

    @property
    def n_samples(self) -> int:
        return sum(c for c, _, _ in self.block_stats.values())

    @property
    def sum(self) -> float:
        return math.fsum(self.block_stats[b][1] for b in sorted(self.block_stats))

    @property
    def sum_sq(self) -> float:
        return math.fsum(self.block_stats[b][2] for b in sorted(self.block_stats))

    @property
    def stream_span(self) -> Tuple[int, int]:
        if not self.block_stats:
            return (0, -1)
        keys = self.block_stats.keys()
        return (min(keys), max(keys))

    @property
    def mean(self) -> float:
        n = self.n_samples
        if n < 1:
            raise DomainError("estimate is empty")
        try:
            total = self.sum
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise DomainError("the sample sum is past the float range")
        return total / n

    @property
    def stderr(self) -> float:
        n = self.n_samples
        if n < 1:
            raise DomainError("estimate is empty")
        try:
            var = max(self.sum_sq / n - self.mean ** 2, 0.0)
        except OverflowError:
            var = math.inf
        if not var < math.inf:
            raise DomainError("the sample second moment is past the float range")
        return math.sqrt(var / n)


def merge(a: McEstimate, b: McEstimate) -> McEstimate:
    """Pool two accumulators over disjoint block spans."""
    if a.metric_kind != b.metric_kind:
        raise MergeError(f"metric kinds differ: {a.metric_kind} vs {b.metric_kind}")
    if a.fingerprint != b.fingerprint:
        raise MergeError("parameter fingerprints differ")
    if a.block_stats and b.block_stats and a.seed != b.seed:
        raise MergeError("seeds differ")
    overlap = set(a.block_stats) & set(b.block_stats)
    if overlap:
        raise MergeError(f"overlapping stream blocks: {sorted(overlap)[:5]}")
    pooled = dict(a.block_stats)
    pooled.update(b.block_stats)
    seed = a.seed if a.block_stats else b.seed
    return McEstimate(a.metric_kind, a.fingerprint, seed, pooled)


def confidence_interval(e: McEstimate, level: float) -> Tuple[float, float]:
    """Normal-approximation confidence interval at the given level."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    if e.n_samples < 30:
        raise DomainError("need at least 30 samples for a normal-approximation CI")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * e.stderr
    return (e.mean - half, e.mean + half)


def _block_plan(n_samples: int, first_stream: int) -> Sequence[Tuple[int, int]]:
    n_blocks = -(-n_samples // BLOCK_SIZE)
    plan = []
    remaining = n_samples
    for i in range(n_blocks):
        count = min(BLOCK_SIZE, remaining)
        plan.append((first_stream + i, count))
        remaining -= count
    return plan


def estimate(
    metric_kind: str,
    t: TurbulenceParams,
    g: PointingGeometry,
    cfg: LinkConfig,
    n_samples: int,
    seed: int,
    workers: int = 1,
    *,
    first_stream: int = 0,
) -> McEstimate:
    """Monte Carlo estimate of one metric at the configured link settings."""
    return estimate_grid(
        [metric_kind], t, g, cfg, [cfg.gamma_bar], n_samples, seed, workers,
        first_stream=first_stream,
    )[metric_kind][cfg.gamma_bar]


def estimate_grid(
    metric_kinds: Sequence[str],
    t: TurbulenceParams,
    g: PointingGeometry,
    base_cfg: LinkConfig,
    gamma_bars: Sequence[float],
    n_samples: int,
    seed: int,
    workers: int = 1,
    *,
    first_stream: int = 0,
) -> Dict[str, Dict[float, McEstimate]]:
    """One estimate per (metric kind, average SNR), from one draw of the channel.

    Averages analytic.metric_value over the samples (moments are of
    first order). Z does not depend on the metric or the average SNR, so
    each block is sampled once and each kind evaluated on one
    (gamma_bar, sample) array; each result is bit-identical to a
    standalone estimate() call.
    """
    if isinstance(metric_kinds, str) or not metric_kinds:
        raise DomainError(f"expected a non-empty list of metric kinds, got {metric_kinds!r}")
    for kind in metric_kinds:
        analytic._check(kind, base_cfg.gamma_th, base_cfg.psi, 1, 0.0)
    if n_samples < MIN_SAMPLES:
        raise DomainError(f"n_samples must be >= {MIN_SAMPLES}")
    # Each replace() builds a LinkConfig, whose check_link rejects a bad gamma_bar.
    fingerprints = {gb: _fingerprint(t, g, replace(base_cfg, gamma_bar=gb)) for gb in gamma_bars}
    grid = list(fingerprints)
    grid_array = np.array(grid)

    def do_block(item: Tuple[int, int]):
        block_id, count = item
        z, _ = channel.sample_aggregate(t, g, base_cfg, RandomStream(seed, block_id), count)
        out = {}
        # A sum past the float range is inf, reported by McEstimate.mean and
        # .stderr. The error state is per thread, so it is set here.
        with np.errstate(over="ignore"):
            for start in range(0, len(grid), _GAMMA_CHUNK):
                x = grid_array[start:start + _GAMMA_CHUNK, None] * z
                for kind in metric_kinds:
                    vals = analytic.metric_value(kind, x, gamma_th=base_cfg.gamma_th,
                                                 psi=base_cfg.psi)
                    sums = np.sum(vals, axis=-1).tolist()
                    sums_sq = np.sum(vals * vals, axis=-1).tolist()
                    for gb, s1, s2 in zip(grid[start:start + _GAMMA_CHUNK], sums, sums_sq):
                        out[kind, gb] = (count, s1, s2)
        return block_id, out

    plan = _block_plan(n_samples, first_stream)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_block = dict(pool.map(do_block, plan))
    else:
        per_block = dict(map(do_block, plan))

    return {
        kind: {gb: McEstimate(kind, fp, seed, {b: out[kind, gb] for b, out in per_block.items()})
               for gb, fp in fingerprints.items()}
        for kind in metric_kinds
    }
