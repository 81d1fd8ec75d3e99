"""Tests for the block-seeded, mergeable Monte Carlo estimators.

The contract under test: results depend only on (seed, block span),
never on the worker count or on how the block span is partitioned, and
merged partitions reproduce the single-pass result bit for bit.
"""

import math

import numpy as np
import pytest

from risfso import analytic, channel, montecarlo
from risfso.errors import DomainError, MergeError

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


class TestDeterminism:
    def test_worker_count_invisible(self, turb, geo, cfg):
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
        assert e.stream_span == (0, len(counts) - 1)

    def test_first_stream_offsets_blocks(self, turb, geo, cfg):
        e = montecarlo.estimate("outage", turb, geo, cfg, 5_000, seed=1, first_stream=10)
        assert e.stream_span == (10, 11)


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
        with pytest.raises(MergeError):
            montecarlo.merge(a, a)

    def test_rejects_mismatched_kind_or_params(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        b = montecarlo.estimate("outage", turb, geo, cfg, 4_096, seed=3, first_stream=1)
        with pytest.raises(MergeError):
            montecarlo.merge(a, b)
        other_cfg = channel.LinkConfig(n_elements=16, gamma_bar=20.0, gamma_th=1.0)
        c = montecarlo.estimate("ber_exactQ", turb, geo, other_cfg, 4_096, seed=3, first_stream=1)
        with pytest.raises(MergeError):
            montecarlo.merge(a, c)

    def test_rejects_mismatched_seed(self, turb, geo, cfg):
        a = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=3)
        b = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 4_096, seed=4, first_stream=1)
        with pytest.raises(MergeError):
            montecarlo.merge(a, b)


class TestConfidenceInterval:
    def test_level_95_quantile(self, turb, geo, cfg):
        e = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 10_000, seed=5)
        lo, hi = montecarlo.confidence_interval(e, 0.95)
        assert hi - lo == pytest.approx(2 * Z_95 * e.stderr, rel=1e-12)
        assert (lo + hi) / 2 == pytest.approx(e.mean, rel=1e-12)

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

    def test_validation(self, turb, geo, cfg):
        e = montecarlo.estimate("ber_exactQ", turb, geo, cfg, 1_000, seed=5)
        with pytest.raises(DomainError):
            montecarlo.confidence_interval(e, 1.5)
        empty = montecarlo.McEstimate("ber_exactQ", e.fingerprint, 0, {})
        with pytest.raises(DomainError):
            montecarlo.confidence_interval(empty, 0.95)


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

    def test_grid_workers_invisible(self, turb, geo, cfg):
        gammas = [1.0, 10.0]
        one = montecarlo.estimate_grid(["ber_exactQ"], turb, geo, cfg, gammas, 8_192, seed=22)
        many = montecarlo.estimate_grid(
            ["ber_exactQ"], turb, geo, cfg, gammas, 8_192, seed=22, workers=8
        )
        for gb in gammas:
            assert one["ber_exactQ"][gb].mean == many["ber_exactQ"][gb].mean

    def test_grid_estimates_mergeable(self, turb, geo, cfg):
        gammas = [1.0, 10.0]
        a = montecarlo.estimate_grid(["ber_exactQ"], turb, geo, cfg, gammas, 4_096, seed=23)
        b = montecarlo.estimate_grid(
            ["ber_exactQ"], turb, geo, cfg, gammas, 4_096, seed=23, first_stream=1
        )
        for gb in gammas:
            pooled = montecarlo.merge(a["ber_exactQ"][gb], b["ber_exactQ"][gb])
            assert pooled.n_samples == 8_192
