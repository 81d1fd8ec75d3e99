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
import threading
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import analytic, channel
from .channel import LinkConfig, PointingGeometry, TurbulenceParams
from .errors import DomainError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["BLOCK_SIZE", "McEstimate", "estimate", "estimate_grid", "merge"]

BLOCK_SIZE = 4096
MIN_SAMPLES = 1000

BlockStats = Tuple[int, float, float]  # (count, sum, sum of squares)

# Values (64 KiB of float64) of the (gamma_bar, sample) array that estimate_grid
# evaluates at a time; the sums do not depend on it. It keeps every per-slice
# temporary below glibc's default 128 KiB mmap threshold: a default N = 128 grid
# call (21 SNRs, 1e5 samples, 2 workers) read about 850 minor page faults,
# against 15.7k with 512 KiB slices.
_SLICE = 1 << 13

# Pools of the threads that run blocks beside the caller, by thread count, kept
# for the life of the process. glibc gives a new thread a malloc arena of its
# own when no free one is at hand, and each arena keeps up to a block's memory
# once the block is done. With a pool per call, how many arenas a run ends up
# with (and so its peak memory) would depend on when the last call's threads
# and any other thread happen to exit; a kept pool's threads keep their arenas.
_POOLS: Dict[int, "ThreadPoolExecutor"] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOLS.clear)  # a forked child has no threads


def _pool(threads: int) -> "ThreadPoolExecutor":
    """The kept pool of this many threads. concurrent.futures is imported here,
    so a process that runs every block on its calling thread never loads it."""
    pool = _POOLS.get(threads)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor
        pool = _POOLS.setdefault(threads, ThreadPoolExecutor(threads,
                                                             thread_name_prefix="risfso-mc"))
    return pool


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
    channel._count("n_samples", n_samples, MIN_SAMPLES)
    channel._count("workers", workers, 1)
    # Each replace() builds a LinkConfig, whose check_link rejects a bad gamma_bar.
    fingerprints = {gb: _fingerprint(t, g, replace(base_cfg, gamma_bar=gb)) for gb in gamma_bars}
    grid = list(fingerprints)
    grid_array = np.array(grid)

    def do_block(item: Tuple[int, int]):
        block_id, count = item
        z = channel.sample_aggregate(t, g, base_cfg, channel.random_stream(seed, block_id), count)
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

    # The caller and up to workers - 1 pool threads take blocks from one plan.
    # Threads past the usable CPUs gain no speed, and each running block holds
    # its own tile buffer, so they would only add memory.
    plan = _block_plan(n_samples, first_stream)
    todo = iter(plan)
    lock = threading.Lock()
    failed: Dict[int, BaseException] = {}

    def take() -> List[Tuple[int, dict]]:
        """Run blocks of the plan until none is left or one has failed."""
        done = []
        while True:
            with lock:
                item = None if failed else next(todo, None)
            if item is None:
                return done
            try:
                done.append(do_block(item))
            except BaseException as exc:  # the caller's interrupt stops the others too
                with lock:
                    failed[item[0]] = exc

    helpers = min(workers, _usable_cpus(), len(plan)) - 1
    futures = [_pool(helpers).submit(take) for _ in range(helpers)] if helpers > 0 else []
    per_block = dict(take())
    for f in futures:
        per_block.update(f.result())
    if failed:
        raise failed[min(failed)]

    return {
        kind: {gb: McEstimate(kind, fp, seed, {b: out[kind, gb] for b, out in per_block.items()})
               for gb, fp in fingerprints.items()}
        for kind in metric_kinds
    }
