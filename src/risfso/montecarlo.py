"""Streaming, mergeable Monte Carlo estimators.

Samples are generated in fixed-size blocks, each seeded independently
from (seed, block_id). Per-block sums are kept in the accumulator and
pooled with exact summation over sorted block ids, so any partition of
the same block span - across workers or across merged estimates -
reproduces bit-identical pooled statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from . import analytic, channel
from .channel import LinkConfig, PointingGeometry, RandomStream, TurbulenceParams
from .errors import DomainError

__all__ = ["BLOCK_SIZE", "McEstimate", "estimate", "estimate_grid", "merge",
           "confidence_interval"]

BLOCK_SIZE = 4096
MIN_SAMPLES = 1000

BlockStats = Tuple[int, float, float]  # (count, sum, sum of squares)

# Values (64 KiB of float64) of the (gamma_bar, sample) array that estimate_grid
# evaluates at a time; the sums do not depend on it. It keeps every per-slice
# temporary below glibc's default 128 KiB mmap threshold: a default N = 128 grid
# call (21 SNRs, 1e5 samples, 2 workers) read about 850 minor page faults,
# against 15.7k with 512 KiB slices.
_SLICE = 1 << 13

# Worker pools by size, kept for the life of the process. glibc gives a new
# thread a malloc arena of its own when no free one is at hand, and each arena
# keeps up to a block's memory once the block is done. With a pool per call,
# how many arenas a run ends up with (and so its peak memory) would depend on
# when the last call's threads and any other thread happen to exit; a kept
# pool's threads keep their arenas.
_POOLS: Dict[int, ThreadPoolExecutor] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOLS.clear)  # a forked child has no threads


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        raise DomainError(f"metric kinds differ: {a.metric_kind} vs {b.metric_kind}")
    if a.fingerprint != b.fingerprint:
        raise DomainError("parameter fingerprints differ")
    if a.block_stats and b.block_stats and a.seed != b.seed:
        raise DomainError("seeds differ")
    overlap = set(a.block_stats) & set(b.block_stats)
    if overlap:
        raise DomainError(f"overlapping stream blocks: {sorted(overlap)[:5]}")
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

    Averages the kind's analytic._FORMS entry over the samples at n = 1
    and s = 0 (the first moment, the MGF at 0). Z does not depend on the
    metric or the average SNR, so each block is sampled once and each kind
    evaluated on one (gamma_bar, sample) array; each result is
    bit-identical to a standalone estimate() call.
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
        z = channel.sample_aggregate(t, g, base_cfg, RandomStream(seed, block_id), count)
        out = {}
        # The (gamma_bar, sample) array is evaluated one _SLICE of values at a
        # time, which bounds each temporary for any grid length; a row's sums
        # do not depend on how many rows share the call.
        step = max(1, _SLICE // count)
        # A sum past the float range is inf, reported by McEstimate.mean and
        # .stderr. The error state is per thread, so it is set here.
        with np.errstate(over="ignore"):
            for start in range(0, len(grid), step):
                x = grid_array[start:start + step, None] * z
                for kind in metric_kinds:
                    vals = analytic._FORMS[kind](x, base_cfg.gamma_th, base_cfg.psi, 1, 0.0)
                    sums = np.sum(vals, axis=-1).tolist()
                    sums_sq = np.sum(vals * vals, axis=-1).tolist()
                    del vals  # so that one kind's values are held at a time
                    for gb, s1, s2 in zip(grid[start:start + step], sums, sums_sq):
                        out[kind, gb] = (count, s1, s2)
        return block_id, out

    plan = _block_plan(n_samples, first_stream)
    # Threads past the usable CPUs gain no speed, and each running block holds
    # its own tile buffer, so they would only add memory.
    workers = min(workers, _usable_cpus())
    if workers > 1:
        pool = _POOLS.get(workers) or _POOLS.setdefault(
            workers, ThreadPoolExecutor(workers, thread_name_prefix="risfso-mc"))
        futures = [pool.submit(do_block, item) for item in plan]
        try:
            per_block = dict(f.result() for f in futures)
        finally:
            # After a failed block, no other block goes on past the call.
            for f in futures:
                f.cancel()
            wait(futures)
    else:
        per_block = dict(map(do_block, plan))

    return {
        kind: {gb: McEstimate(kind, fp, seed, {b: out[kind, gb] for b, out in per_block.items()})
               for gb, fp in fingerprints.items()}
        for kind in metric_kinds
    }
