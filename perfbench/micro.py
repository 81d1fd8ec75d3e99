"""Per-call timings of single layers, tracing off.

These run on fixed inputs, the same on every workload, so a change in
one layer shows here even where a workload dilutes it.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict

import numpy as np

from risfso import analytic, channel, cli, montecarlo, numerics

BATCH_S = 0.005  # shortest timed batch of repeated calls
BATCHES = 5
SINGLE_CALL_S = 0.5  # calls at least this long are timed once


def per_call(fn: Callable[[], object]) -> float:
    """Median seconds per call over BATCHES batches of repeated calls."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if first >= SINGLE_CALL_S:
        return first
    reps = max(1, math.ceil(BATCH_S / max(first, 1e-9)))
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def measure(default_spec: cli.SweepSpec, closed_spec: cli.SweepSpec,
            pdf_grid: np.ndarray) -> Dict[str, float]:
    """Per-layer timings. ``default_spec`` gives the MC channel (that of
    default-sweep and wide-surface), ``closed_spec`` the closed-form one."""
    out: Dict[str, float] = {}
    t, g = default_spec.variants[0].turbulence, default_spec.variants[0].pointing
    rng = np.random.default_rng(1)

    for n in (128, 4096):
        cfg = channel.LinkConfig(n_elements=n, gamma_bar=1.0)
        out[f"montecarlo.block_ms.n{n}"] = 1e3 * per_call(
            lambda: montecarlo.estimate("outage", t, g, cfg, montecarlo.BLOCK_SIZE, 1))
        size = 2 ** 20 // n
        out[f"channel.sample_aggregate.element_samples_per_s.n{n}"] = size * n / per_call(
            lambda: channel.sample_aggregate(t, g, cfg, rng, size))
    draws = 2 ** 19
    out["channel.sample_h_a.ns_per_sample"] = 1e9 / draws * per_call(
        lambda: channel.sample_h_a(t, rng, draws))
    out["channel.sample_h_p.ns_per_sample"] = 1e9 / draws * per_call(
        lambda: channel.sample_h_p(g, rng, draws))

    t, g = closed_spec.variants[0].turbulence, closed_spec.variants[0].pointing
    x = pdf_grid[::4]
    out["channel.pdf_b.us_per_point"] = 1e6 / len(x) * per_call(lambda: channel.pdf_b(x, t, g))

    # One mid-sweep point of closed-form: N = 128 at 20 dB.
    n, gb, th, psi = 128, 100.0, closed_spec.gamma_th, closed_spec.psi
    ms = analytic.moments(t, g, n)
    profile = analytic.asymptotic_profile(t, g, n)
    calls = {
        "moments": lambda: analytic.moments(t, g, n),
        "mgf": lambda: analytic.mgf(1.0, ms, gb),
        "outage_probability": lambda: analytic.outage_probability(th, ms, gb),
        "average_ber": lambda: analytic.average_ber(psi, ms, gb),
        "channel_capacity": lambda: analytic.channel_capacity(ms, gb),
        "generalized_moment": lambda: analytic.generalized_moment(1, ms, gb),
        "amount_of_fading": lambda: analytic.amount_of_fading(2, ms, gb),
        "asymptotic_outage": lambda: analytic.asymptotic_outage(th, profile, t, g, gb),
    }
    for kind in ("outage", "ber_exactQ", "capacity", "moment"):
        calls[f"oracle_metric.{kind}"] = (
            lambda kind=kind: analytic.oracle_metric(kind, ms, gb, gamma_th=th, psi=psi, n=1))
    for name, fn in calls.items():
        out[f"analytic.{name}.us"] = 1e6 * per_call(fn)

    b = (g.c - 1.0, t.alpha - 1.0, t.beta - 1.0)
    out["numerics.parabolic_cylinder_d.us"] = 1e6 * per_call(
        lambda: numerics.parabolic_cylinder_d(-2.0, -ms.m / ms.delta))
    out["numerics.meijer_g_1330.us"] = 1e6 * per_call(
        lambda: numerics.meijer_g_1330(g.c, b, 1.0))
    return out
