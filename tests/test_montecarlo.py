"""Tests for the block-seeded, mergeable Monte Carlo estimators.

The contract under test: results depend only on (seed, block span),
never on the worker count or on how the block span is partitioned, and
merged partitions reproduce the single-pass result bit for bit.
"""

import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from risfso import analytic, channel, montecarlo
from risfso.errors import DomainError

# Inverse-normal quantile z(97.5%) frozen from a 30-digit evaluation of
# sqrt(2) * erfinv(0.95).
Z_95 = 1.95996398454005


@pytest.fixture(scope="module")
def turb():
    return channel.TurbulenceParams(alpha=15.0, beta=10.0)


@pytest.fixture(scope="module")
def geo():
    return channel.PointingGeometry(1e-3, 0.25e-3, 350.0, 250.0, 1.2, 0.1)


@pytest.fixture(scope="module")
def cfg():
    return channel.LinkConfig(n_elements=16, gamma_bar=10.0, gamma_th=1.0)


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight usable CPUs, so that the largest pool a test asks for runs on any host."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)


class TestDeterminism:
    def test_worker_count_invisible(self, turb, geo, cfg, eight_cpus):
        runs = [
            montecarlo.estimate("outage", turb, geo, cfg, 20_000, seed=42, workers=w)
            for w in (1, 8)
        ]
        assert runs[0].mean == runs[1].mean
        assert runs[0].stderr == runs[1].stderr
        assert dict(runs[0].block_stats) == dict(runs[1].block_stats)

    def test_same_seed_bit_identical(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=7)
        b = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=7)
        assert a.mean == b.mean and a.sum_sq == b.sum_sq

    def test_different_seed_differs(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=7)
        b = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=8)
        assert a.mean != b.mean

    def test_block_layout(self, turb, geo, cfg):
        e = montecarlo.estimate("outage", turb, geo, cfg, 10_000, seed=1)
        counts = [e.block_stats[b][0] for b in sorted(e.block_stats)]
        assert sum(counts) == 10_000
        assert counts[:-1] == [montecarlo.BLOCK_SIZE] * (len(counts) - 1)
        assert sorted(e.block_stats) == list(range(len(counts)))

    def test_first_stream_offsets_blocks(self, turb, geo, cfg):
        e = montecarlo.estimate("outage", turb, geo, cfg, 5_000, seed=1, first_stream=10)
        assert sorted(e.block_stats) == [10, 11]


class TestMerge:
    def test_partition_reproduces_single_pass(self, turb, geo, cfg):
        whole = montecarlo.estimate("outage", turb, geo, cfg, 24_576, seed=3)
        first = montecarlo.estimate("outage", turb, geo, cfg, 8_192, seed=3)
        rest = montecarlo.estimate(
            "outage", turb, geo, cfg, 16_384, seed=3, first_stream=2
        )
        pooled = montecarlo.merge(first, rest)
        assert pooled.mean == whole.mean
        assert pooled.stderr == whole.stderr
        assert pooled.sum == whole.sum and pooled.sum_sq == whole.sum_sq

    def test_commutative(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        b = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3, first_stream=1)
        ab, ba = montecarlo.merge(a, b), montecarlo.merge(b, a)
        assert ab.mean == ba.mean and ab.sum_sq == ba.sum_sq

    def test_empty_identity(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        empty = montecarlo.McEstimate("ber_exactQ", a.fingerprint, 0, {})
        pooled = montecarlo.merge(a, empty)
        assert pooled.mean == a.mean and pooled.seed == a.seed

    def test_rejects_overlap(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        with pytest.raises(DomainError, match=r"overlapping stream blocks: \[0\]"):
            montecarlo.merge(a, a)

    def test_rejects_mismatched_kind_or_params(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        b = montecarlo.estimate("outage", turb, geo, cfg, 4_096, seed=3, first_stream=1)
        with pytest.raises(DomainError, match="metric kinds differ: ber_exactQ vs outage"):
            montecarlo.merge(a, b)
        other_cfg = channel.LinkConfig(n_elements=16, gamma_bar=20.0, gamma_th=1.0)
        c = montecarlo.estimate("ber_exactQ", turb, geo, other_cfg, 4_096, seed=3, first_stream=1)
        with pytest.raises(DomainError, match="parameter fingerprints differ"):
            montecarlo.merge(a, c)

    def test_rejects_mismatched_seed(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        b = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=4, first_stream=1)
        with pytest.raises(DomainError, match="seeds differ"):
            montecarlo.merge(a, b)


class TestConfidenceInterval:
    def test_level_95_quantile(self, turb, geo, cfg):
        e = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=5)
        lo, hi = montecarlo.confidence_interval(e, 0.95)
        assert hi - lo == pytest.approx(2 * Z_95 * e.stderr, rel=1e-12)
        assert (lo + hi) / 2 == pytest.approx(e.mean, rel=1e-12)

    # scipy.special.ndtri(0.5 (1 + level)), stored.
    NDTRI = {0.5: 0.6744897501960817, 0.9: 1.6448536269514722, 0.95: 1.959963984540054,
             0.99: 2.5758293035489004, 0.999: 3.2905267314919255,
             0.999999999: 6.1094101916632875}

    @pytest.mark.parametrize("level", sorted(NDTRI))
    def test_quantile_matches_ndtri(self, level):
        e = montecarlo.McEstimate("moment", "", 0, {0: (64, 0.0, 4096.0)})  # mean 0, stderr 1
        lo, hi = montecarlo.confidence_interval(e, level)
        assert hi == -lo == pytest.approx(self.NDTRI[level], rel=5e-16)

    def test_widens_with_level(self, turb, geo, cfg):
        e = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=5)
        w90 = np.diff(montecarlo.confidence_interval(e, 0.90))
        w99 = np.diff(montecarlo.confidence_interval(e, 0.99))
        assert w99 > w90

    def test_degenerate_values_give_zero_width(self, turb, geo):
        # At huge SNR every sample clears the threshold: stderr is 0.
        rich = channel.LinkConfig(n_elements=16, gamma_bar=1e12, gamma_th=1.0)
        e = montecarlo.estimate("outage", turb, geo, rich, 2_000, seed=5)
        assert e.mean == 0.0 and e.stderr == 0.0
        lo, hi = montecarlo.confidence_interval(e, 0.95)
        assert lo == hi == 0.0

    # (count, sum, sum of squares): the square of the mean overflows, or
    # the sum of squares already has.
    @pytest.mark.parametrize("stats", [(2, 2e300, math.inf), (2, 2.0, math.inf)])
    def test_stderr_past_float_range_is_a_domain_error(self, stats):
        e = montecarlo.McEstimate("moment", "", 0, {0: stats})
        with pytest.raises(DomainError):
            e.stderr

    def test_validation(self, turb, geo, cfg):
        e = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 1_000, seed=5)
        with pytest.raises(DomainError):
            montecarlo.confidence_interval(e, 1.5)
        empty = montecarlo.McEstimate("ber_exactQ", e.fingerprint, 0, {})
        with pytest.raises(DomainError):
            montecarlo.confidence_interval(empty, 0.95)
        assert not empty.block_stats
        for stat in ("mean", "stderr"):
            with pytest.raises(DomainError, match="estimate is empty"):
                getattr(empty, stat)


class TestStatisticalConsistency:
    def test_stderr_scales_inverse_sqrt(self, turb, geo, cfg):
        small = montecarlo.estimate("capacity", turb, geo, cfg, 8_192, seed=9)
        large = montecarlo.estimate("capacity", turb, geo, cfg, 131_072, seed=9)
        ratio = small.stderr / large.stderr
        assert ratio == pytest.approx(math.sqrt(131_072 / 8_192), rel=0.1)

    def test_zero_threshold_outage_is_zero(self, turb, geo):
        cfg = channel.LinkConfig(n_elements=16, gamma_bar=1.0, gamma_th=0.0)
        e = montecarlo.estimate("outage", turb, geo, cfg, 2_000, seed=9)
        assert e.mean == 0.0

    def test_moment_mean_matches_oracle(self, turb, geo, cfg):
        ms = analytic.moments(turb, geo, cfg.n_elements)
        e = montecarlo.estimate("moment", turb, geo, cfg, 200_000, seed=11)
        oracle, _ = analytic.oracle_metric("moment", ms, cfg.gamma_bar, n=1)
        assert abs(e.mean - oracle) <= 4 * e.stderr

    def test_capacity_mean_matches_oracle(self, turb, geo, cfg):
        ms = analytic.moments(turb, geo, cfg.n_elements)
        e = montecarlo.estimate("capacity", turb, geo, cfg, 200_000, seed=13)
        oracle, _ = analytic.oracle_metric("capacity", ms, cfg.gamma_bar)
        # The CLT oracle carries a small Gaussian-approximation bias at
        # N = 16; allow it on top of the sampling error.
        assert e.mean == pytest.approx(oracle, rel=0.01)

    def test_validation(self, turb, geo, cfg):
        with pytest.raises(DomainError):
            montecarlo.estimate("nope", turb, geo, cfg, 2_000, seed=1)
        with pytest.raises(DomainError):
            montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10, seed=1)
        with pytest.raises(DomainError):
            montecarlo.estimate_grid([], turb, geo, cfg, [1.0], 2_000, seed=1)
        with pytest.raises(DomainError, match="gamma_bar must be positive"):
            montecarlo.estimate_grid(["outage"], turb, geo, cfg, [1.0, -1.0], 2_000, seed=1)
        # A bare string is one kind passed where a list of kinds belongs,
        # not a list of one-letter kinds.
        with pytest.raises(DomainError) as exc:
            montecarlo.estimate_grid("outage", turb, geo, cfg, [1.0], 2_000, seed=1)
        assert "'o'" not in str(exc.value)


class TestEstimateGrid:
    def test_bit_identical_to_standalone(self, turb, geo, cfg):
        kinds = ["outage", "ber_exactQ", "capacity", "moment"]
        gammas = [1.0, 10.0, 100.0]
        grid = montecarlo.estimate_grid(kinds, turb, geo, cfg, gammas, 8_192, seed=21)
        assert list(grid) == kinds
        for kind in kinds:
            for gb in gammas:
                solo_cfg = channel.LinkConfig(cfg.n_elements, gb, cfg.gamma_th, cfg.psi)
                solo = montecarlo.estimate(kind, turb, geo, solo_cfg, 8_192, seed=21)
                assert grid[kind][gb].metric_kind == solo.metric_kind == kind
                assert grid[kind][gb].mean == solo.mean
                assert grid[kind][gb].sum_sq == solo.sum_sq
                assert grid[kind][gb].fingerprint == solo.fingerprint

    def test_block_sums_are_those_of_each_gamma_bar_alone(self, turb, geo, cfg):
        # A grid longer than the rows a 4096-sample block evaluates at once,
        # against the sums of one gamma_bar's values on their own, block by block.
        kinds = ["outage", "ber_exactQ", "capacity", "moment"]
        gammas = np.geomspace(0.1, 1e4, montecarlo._SLICE // 4_096 + 3).tolist()
        grid = montecarlo.estimate_grid(kinds, turb, geo, cfg, gammas, 8_192, seed=21)
        for b in range(2):
            z = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(21, b), 4_096)
            for kind in kinds:
                for gb in gammas:
                    vals = analytic._FORMS[kind](gb * z, cfg.gamma_th, cfg.psi, 1, 0.0)
                    assert grid[kind][gb].block_stats[b] == (
                        4_096, float(np.sum(vals)), float(np.sum(vals * vals)))

    @pytest.mark.parametrize("n_gammas", sorted({1, 200} | {
        montecarlo._SLICE // count + d for count in (4_096, 1_696) for d in (-1, 0, 1)}))
    def test_slices_are_invisible(self, turb, geo, n_gammas, eight_cpus):
        # A 4096-sample block is evaluated _SLICE // 4096 average SNRs at a
        # time and the partial 1696-sample block _SLICE // 1696 at a time; the
        # grids end before, at and past a slice edge of each, and each cell is
        # that of a per-gamma_bar estimate.
        # One element keeps the 3 x 200 standalone draws cheap; its Z is near
        # 3e-5, so the grid runs to 1e8 to reach every branch of erfc.
        cfg = channel.LinkConfig(n_elements=1, gamma_th=1.0)
        kinds = ["outage", "ber_exactQ", "capacity"]
        gammas = np.geomspace(1.0, 1e8, n_gammas).tolist()
        solo = {(kind, gb): montecarlo.estimate(
                    kind, turb, geo, channel.LinkConfig(1, gb, cfg.gamma_th), 5_792,
                    seed=24).block_stats
                for kind in kinds for gb in gammas}
        for workers in (1, 2):
            grid = montecarlo.estimate_grid(kinds, turb, geo, cfg, gammas, 5_792, seed=24,
                                            workers=workers)
            for kind in kinds:
                for gb in gammas:
                    assert dict(grid[kind][gb].block_stats) == dict(solo[kind, gb])

    def test_grid_evaluation_holds_one_slice_of_values(self, turb, geo):
        # At N = 128 a block's draws take 1 MiB; the (gamma_bar, sample) values
        # of a 200-SNR grid are 6.25 MiB per kind, evaluated 64 KiB at a time.
        cfg = channel.LinkConfig(n_elements=128)
        gammas = np.geomspace(0.1, 1e4, 200).tolist()
        tracemalloc.start()
        try:
            montecarlo.estimate_grid(["outage", "ber_exactQ", "capacity"], turb, geo, cfg,
                                     gammas, 8_192, seed=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    # N = 300 draws each block in two element chunks, the second partial.
    @pytest.mark.parametrize("n_elements", [16, 300])
    @pytest.mark.parametrize("workers", [2, 8])
    def test_grid_workers_invisible(self, turb, geo, n_elements, workers, eight_cpus):
        cfg = channel.LinkConfig(n_elements=n_elements, gamma_bar=10.0, gamma_th=1.0)
        gammas = [1.0, 10.0]
        one = montecarlo.estimate_grid(["ber_exactQ"], turb, geo, cfg, gammas, 8_192, seed=22)
        many = montecarlo.estimate_grid(
            ["ber_exactQ"], turb, geo, cfg, gammas, 8_192, seed=22, workers=workers
        )
        for gb in gammas:
            a, b = one["ber_exactQ"][gb], many["ber_exactQ"][gb]
            assert a.mean == b.mean
            assert dict(a.block_stats) == dict(b.block_stats)

    @pytest.mark.parametrize("n_elements", [16, 300])
    def test_grid_estimates_mergeable(self, turb, geo, n_elements):
        cfg = channel.LinkConfig(n_elements=n_elements, gamma_bar=10.0, gamma_th=1.0)
        gammas = [1.0, 10.0]
        whole = montecarlo.estimate_grid(["ber_exactQ"], turb, geo, cfg, gammas, 8_192, seed=23)
        a = montecarlo.estimate_grid(["ber_exactQ"], turb, geo, cfg, gammas, 4_096, seed=23)
        b = montecarlo.estimate_grid(
            ["ber_exactQ"], turb, geo, cfg, gammas, 4_096, seed=23, first_stream=1
        )
        for gb in gammas:
            pooled = montecarlo.merge(a["ber_exactQ"][gb], b["ber_exactQ"][gb])
            assert pooled.n_samples == 8_192
            assert pooled.sum == whole["ber_exactQ"][gb].sum
            assert pooled.sum_sq == whole["ber_exactQ"][gb].sum_sq


class TestWorkerPool:
    def test_calls_share_the_pool_threads(self, turb, geo, cfg, monkeypatch):
        threads = []  # the Thread objects themselves, so no id is reused
        draw = channel.sample_aggregate

        def recording(*args):
            threads.append(threading.current_thread())
            return draw(*args)

        monkeypatch.setattr(channel, "sample_aggregate", recording)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        for _ in range(3):
            montecarlo.estimate("outage", turb, geo, cfg, 40_960, seed=3, workers=3)
        assert len(threads) == 30
        assert len(set(threads)) <= 3
        assert threading.main_thread() not in threads

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workers_are_capped_at_the_usable_cpus(self, turb, geo, cfg, monkeypatch, cpus):
        # Past the CPU count a pool only adds threads and tile buffers: one CPU
        # takes the serial path and two the 2-thread pool, with the bits of one
        # worker either way. A pool map of its own shows which pool the call made.
        gammas = [1.0, 10.0, 100.0]
        serial = montecarlo.estimate_grid(["outage"], turb, geo, cfg, gammas, 12_288, seed=6)
        pools = {}
        monkeypatch.setattr(montecarlo, "_POOLS", pools)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        try:
            capped = montecarlo.estimate_grid(["outage"], turb, geo, cfg, gammas, 12_288,
                                              seed=6, workers=8)
        finally:
            for pool in pools.values():
                pool.shutdown()
        assert set(pools) == ({2} if cpus == 2 else set())
        for gb in gammas:
            assert capped["outage"][gb].block_stats == serial["outage"][gb].block_stats

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert montecarlo._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
        assert montecarlo._usable_cpus() == 1

    def test_failed_block_leaves_nothing_running(self, turb, geo, cfg, monkeypatch, eight_cpus):
        calls = []

        def failing(*args):
            calls.append(None)
            time.sleep(0.01)
            raise RuntimeError("block failed")

        monkeypatch.setattr(channel, "sample_aggregate", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            montecarlo.estimate("outage", turb, geo, cfg, 40 * 4_096, seed=3, workers=2)
        started = len(calls)
        time.sleep(0.05)
        assert len(calls) == started < 40

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self, turb, geo, cfg, eight_cpus):
        parent = montecarlo.estimate("outage", turb, geo, cfg, 8_192, seed=4, workers=2)
        pid = os.fork()
        if pid == 0:  # the child has the parent's pools but none of their threads
            try:
                child = montecarlo.estimate("outage", turb, geo, cfg, 8_192, seed=4, workers=2)
                os._exit(0 if child.sum == parent.sum else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
