"""Acceptance gate: end-to-end fidelity, exactness, and trend criteria.

Each test prints a single PASS/FAIL line (visible even under capture)
and then asserts. Tolerances are fixed by the acceptance contract and
must not be loosened; a failing criterion is reported honestly.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from risfso import analytic, channel, cli, montecarlo

# Baseline channel ("defaults"): alpha=15, beta=10, sigma_theta=1 mrad,
# sigma_beta=0.5 mrad, L1=L2=150 m, beam width 1.2 m, aperture 0.1 m.
TURB = channel.TurbulenceParams(alpha=15.0, beta=10.0)
GEO = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
GRID_DB = tuple(float(v) for v in range(0, 42, 2))


def report(capsys, num: int, name: str, ok: bool, detail: str):
    line = f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_sampler_fidelity(capsys):
    t0 = time.perf_counter()
    hp = channel.sample_h_p(GEO, channel.RandomStream(101, 0), 1_000_000)
    ks, _ = stats.kstest(hp, lambda x: np.clip(x / GEO.a0, 0.0, 1.0) ** GEO.c)

    # Streaming mean/variance of B over 1e7 samples in 1e6-sample chunks.
    n_total, chunk = 10_000_000, 1_000_000
    s1 = s2 = 0.0
    for i in range(n_total // chunk):
        h = channel.sample_h_a(
            TURB, channel.RandomStream(102, 2 * i), chunk
        ) * channel.sample_h_p(GEO, channel.RandomStream(102, 2 * i + 1), chunk)
        b = h * h
        s1 += float(np.sum(b))
        s2 += float(np.sum(b * b))
    mean = s1 / n_total
    var = s2 / n_total - mean * mean
    ms = analytic.moments(TURB, GEO, 1)
    mean_rel = abs(mean - ms.m1) / ms.m1
    var_rel = abs(var - ms.delta1_sq) / ms.delta1_sq
    elapsed = time.perf_counter() - t0

    ok = ks < 0.01 and mean_rel < 0.01 and var_rel < 0.02 and elapsed < 60.0
    report(
        capsys, 1, "sampler fidelity", ok,
        f"KS={ks:.2e} (<0.01), mean err={mean_rel:.2e} (<1%), "
        f"var err={var_rel:.2e} (<2%), {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_closed_form_exactness(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = ""

    def check(tag, closed, oracle):
        nonlocal worst, worst_case
        rel = abs(closed - oracle) / max(abs(closed), abs(oracle), 1e-300)
        # Below double-precision representability both sides are noise.
        if abs(closed - oracle) <= 1e-13:
            rel = 0.0
        if rel > worst:
            worst, worst_case = rel, tag

    for db in (-10.0, 0.0, 10.0, 20.0):
        gbar = channel.LinkConfig.db_to_linear(db)
        for n in (1, 16, 64, 128, 256):
            ms = analytic.moments(TURB, GEO, n)
            tag = f"db={db},N={n}"
            check(f"mgf {tag}", analytic.mgf(1.0, ms, gbar),
                  analytic.oracle_metric("mgf", ms, gbar, s=1.0)[0])
            for k in range(1, 5):
                check(f"moment{k} {tag}",
                      analytic.generalized_moment(k, ms, gbar),
                      analytic.oracle_metric("moment", ms, gbar, n=k)[0])
            check(f"outage {tag}",
                  analytic.outage_probability(1.0, ms, gbar),
                  analytic.oracle_metric("outage", ms, gbar, gamma_th=1.0)[0])
            check(f"ber {tag}", analytic.average_ber(1.0, ms, gbar),
                  analytic.oracle_metric("ber_chiani", ms, gbar)[0])
            cap_oracle = sum(
                e * analytic.oracle_metric("mgf", ms, gbar, s=z)[0]
                for e, z in zip(analytic.CAPACITY_ETA, analytic.CAPACITY_ZETA)
            )
            check(f"capacity {tag}", analytic.channel_capacity(ms, gbar),
                  max(cap_oracle, 0.0))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(
        capsys, 2, "closed-form exactness", ok,
        f"worst rel err={worst:.2e} at [{worst_case}] (<=1e-6), {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_clt_validation(capsys):
    t0 = time.perf_counter()
    n_samples = 1_000_000
    gammas = [channel.LinkConfig.db_to_linear(db) for db in GRID_DB]

    def window_deviation(n_elem):
        ms = analytic.moments(TURB, GEO, n_elem)
        cfg = channel.LinkConfig(n_elements=n_elem, gamma_bar=1.0, gamma_th=1.0)
        grid = montecarlo.estimate_grid(
            "outage", TURB, GEO, cfg, gammas, n_samples, seed=2024, workers=8
        )
        devs = []
        for gb in gammas:
            p = analytic.outage_probability(1.0, ms, gb)
            if not 1e-3 <= p <= 0.5:
                continue
            est = grid[gb]
            se = max(est.stderr, 1e-12)
            devs.append(abs(est.mean - p) / se)
        return max(devs) if devs else 0.0

    dev128 = window_deviation(128)
    dev16 = window_deviation(16)
    dev256 = window_deviation(256)
    elapsed = time.perf_counter() - t0

    ok = dev128 <= 3.0 and dev256 <= dev16 and elapsed < 300.0
    report(
        capsys, 3, "CLT validation", ok,
        f"max |MC-CLT| at N=128: {dev128:.1f} stderr (<=3), tightening "
        f"N=256 {dev256:.1f} <= N=16 {dev16:.1f}: {dev256 <= dev16}, "
        f"{elapsed:.0f}s (<300s)",
    )


def test_criterion_4_diversity_order(capsys):
    t0 = time.perf_counter()
    turb = channel.TurbulenceParams(alpha=6.5, beta=6.0)
    geo = channel.PointingGeometry.from_exponent(0.5, 1.2, 0.1, 150.0)
    slopes = {}
    worst = 0.0
    for n in (1, 2, 4):
        prof = analytic.asymptotic_profile(turb, geo, n)
        assert prof.varrho == pytest.approx(-0.5, rel=1e-12)
        dbs = np.linspace(60.0, 80.0, 9)
        logs = [
            math.log10(
                analytic.asymptotic_outage(
                    1.0, prof, turb, geo, channel.LinkConfig.db_to_linear(db)
                )
            )
            for db in dbs
        ]
        slope = np.polyfit(dbs, logs, 1)[0]
        want = -(1.0 + prof.varrho) * n / 20.0
        slopes[n] = slope
        worst = max(worst, abs(slope - want))
    doubling = abs(slopes[2] / slopes[1] - 2.0) + abs(slopes[4] / slopes[2] - 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and doubling <= 1e-9 and elapsed < 5.0
    report(
        capsys, 4, "diversity order", ok,
        f"max slope err={worst:.1e} (<=1e-9), N-doubling err={doubling:.1e}, "
        f"{elapsed:.1f}s (<5s)",
    )


def test_criterion_5_ber_budget(capsys):
    t0 = time.perf_counter()
    spec = cli.figure_preset("fig5")
    worst = 0.0
    worst_at = ""
    for variant in spec.variants:
        ms = analytic.moments(variant.turbulence, variant.pointing, 128)
        for db in GRID_DB:
            gbar = channel.LinkConfig.db_to_linear(db)
            exact, _ = analytic.oracle_metric("ber_exactQ", ms, gbar)
            if not 1e-6 <= exact <= 1e-1:
                continue
            approx = analytic.average_ber(1.0, ms, gbar)
            rel = abs(approx - exact) / exact
            if rel > worst:
                worst, worst_at = rel, f"{variant.label}@{db}dB"
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed < 30.0
    report(
        capsys, 5, "BER approximation budget", ok,
        f"worst rel err={worst:.1%} at [{worst_at}] (<=10%), {elapsed:.1f}s (<30s)",
    )


def test_criterion_6_capacity_fit_budget(capsys):
    t0 = time.perf_counter()
    ms = analytic.moments(TURB, GEO, 128)
    worst = 0.0
    worst_at = 0.0
    for target in np.logspace(0.0, 3.0, 13):
        gbar = float(target) / ms.m
        closed = analytic.channel_capacity(ms, gbar)
        oracle, _ = analytic.oracle_metric("capacity", ms, gbar)
        rel = abs(closed - oracle) / oracle
        if rel > worst:
            worst, worst_at = rel, float(target)
    mono = []
    for n in (16, 64, 128, 256):
        mono.append(analytic.channel_capacity(analytic.moments(TURB, GEO, n), 100.0))
    monotone = all(b > a for a, b in zip(mono, mono[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and monotone and elapsed < 30.0
    report(
        capsys, 6, "capacity fit budget", ok,
        f"worst rel err={worst:.1%} at mean SNR {worst_at:.3g} (<=5%), "
        f"monotone in N: {monotone}, {elapsed:.1f}s (<30s)",
    )


def test_criterion_7_determinism_and_merge(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "link.gamma_bar_db = 0:20:10\n"
        "link.n_elements = 16\n"
        "sweep.metrics = outage,ber\n"
        "mc.samples = 20000\n"
    )
    payloads = []
    for workers in (1, 8):
        spec = cli.validate_config(str(cfg_path))
        spec.workers = workers
        payloads.append(cli.emit(cli.run_sweep(spec), "csv"))
    byte_identical = payloads[0] == payloads[1]

    cfg = channel.LinkConfig(n_elements=16, gamma_bar=10.0, gamma_th=1.0)
    whole = montecarlo.estimate("outage", TURB, GEO, cfg, 24_576, seed=5)
    parts = [
        montecarlo.estimate("outage", TURB, GEO, cfg, 4_096, seed=5, first_stream=k)
        for k in range(6)
    ]
    pooled = parts[0]
    for p in parts[1:]:
        pooled = montecarlo.merge(pooled, p)
    merge_exact = (
        pooled.sum == whole.sum
        and pooled.sum_sq == whole.sum_sq
        and pooled.mean == whole.mean
    )
    elapsed = time.perf_counter() - t0
    ok = byte_identical and merge_exact and elapsed < 60.0
    report(
        capsys, 7, "determinism and merge", ok,
        f"CSV byte-identical across workers {{1,8}}: {byte_identical}, "
        f"partitioned merge bit-exact: {merge_exact}, {elapsed:.1f}s (<60s)",
    )


def test_criterion_8_figure_trends(capsys):
    t0 = time.perf_counter()

    # Outage improves (decreases) as the beam-width/aperture ratio
    # decreases: ratios 12, 8, 6 for the three geometry variants.
    spec3 = cli.figure_preset("fig3")
    spec3.include_mc = False
    rows3 = cli.run_sweep(spec3).rows
    by_label = {}
    for r in rows3:
        by_label.setdefault(r.metric.split("@")[1], {})[r.gamma_bar_db] = r.analytic
    outage_ordered = all(
        by_label["wz120_a10"][db] >= by_label["wz80_a10"][db] >= by_label["wz120_a20"][db]
        for db in GRID_DB
        if by_label["wz120_a20"][db] > 1e-12
    )

    # BER degrades (increases) as transmitter jitter grows.
    spec5 = cli.figure_preset("fig5")
    spec5.include_mc = False
    rows5 = cli.run_sweep(spec5).rows
    ber = {}
    for r in rows5:
        ber.setdefault(r.metric.split("@")[1], {})[r.gamma_bar_db] = r.analytic
    ber_ordered = all(
        ber["a15_b10_s2"][db] >= ber["a15_b10_s1"][db]
        for db in GRID_DB
        if ber["a15_b10_s1"][db] > 1e-12
    )
    elapsed = time.perf_counter() - t0
    ok = outage_ordered and ber_ordered
    report(
        capsys, 8, "qualitative figure trends", ok,
        f"outage improves with smaller beam/aperture ratio: {outage_ordered}, "
        f"BER degrades with larger jitter: {ber_ordered}, {elapsed:.1f}s",
    )
