"""Performance-metric walkthrough: closed forms, oracles, Monte Carlo.

For one link, evaluates outage, average BER, ergodic capacity, and the
amount of fading three independent ways — closed form, quadrature of the
defining integral, and simulation — and shows the high-SNR outage law
with its diversity order.

Run: python3 demos/performance_metrics.py
"""

import math

from risfso import analytic, channel, montecarlo

turb = channel.TurbulenceParams(alpha=15.0, beta=10.0)
geo = channel.PointingGeometry(1e-3, 0.5e-3, 150.0, 150.0, 1.2, 0.1)
N = 128
ms = analytic.moments(turb, geo, N)

print(f"Link: alpha={turb.alpha}, beta={turb.beta}, c={geo.c:.3f}, N={N}")
print(f"Aggregate moments: m={ms.m:.5f}, delta^2={ms.delta_sq:.3e}\n")

header = f"{'gamma_bar':>10} {'metric':>9} {'closed form':>13} {'quadrature':>13} {'Monte Carlo':>13}"
print(header)
print("-" * len(header))
cfg_th = 1.0  # 0 dB SNR threshold
for db in (10.0, 20.0, 30.0):
    gbar = channel.LinkConfig.db_to_linear(db)
    cfg = channel.LinkConfig(n_elements=N, gamma_bar=gbar, gamma_th=cfg_th)
    for metric, closed, oracle_kind, mc_kind in (
        ("outage", analytic.outage_probability(cfg_th, ms, gbar), "outage", "outage"),
        ("ber", analytic.average_ber(1.0, ms, gbar), "ber_chiani", "ber_exactQ"),
        ("capacity", analytic.channel_capacity(ms, gbar), "capacity", "capacity"),
    ):
        oracle, _ = analytic.oracle_metric(
            oracle_kind, ms, gbar, gamma_th=cfg_th, psi=1.0
        )
        mc = montecarlo.estimate(mc_kind, turb, geo, cfg, 100_000, seed=7)
        print(f"{db:>8.0f}dB {metric:>9} {closed:>13.4e} {oracle:>13.4e} "
              f"{mc.mean:>13.4e}")
print()
print("Note: the BER closed form uses a two-exponential approximation of the")
print("Gaussian Q-function, so it tracks the quadrature of its own integrand")
print("exactly while the simulation uses the exact Q — the visible gap is the")
print("approximation budget, not an implementation error.\n")

# --- Amount of fading ------------------------------------------------------
print("Amount of fading (second order) vs element count:")
for n in (1, 16, 128):
    af = analytic.amount_of_fading(2, analytic.moments(turb, geo, n), 1.0)
    print(f"  N = {n:>3}: AF = {af:.4f}")
print("More elements average the fading away.\n")

# --- High-SNR outage law ----------------------------------------------------
turb_hs = channel.TurbulenceParams(alpha=6.5, beta=6.0)
geo_hs = channel.PointingGeometry.from_exponent(0.5, 1.2, 0.1, 150.0)
print("High-SNR outage asymptote, pointing exponent c = 0.5:")
for n in (1, 2, 4):
    prof = analytic.asymptotic_profile(turb_hs, geo_hs, n)
    g1 = channel.LinkConfig.db_to_linear(60.0)
    g2 = channel.LinkConfig.db_to_linear(70.0)
    p1 = analytic.asymptotic_outage(1.0, prof, turb_hs, geo_hs, g1)
    p2 = analytic.asymptotic_outage(1.0, prof, turb_hs, geo_hs, g2)
    slope = (math.log10(p2) - math.log10(p1)) / 10.0
    print(f"  N = {n}: diversity order {prof.diversity_order:.2f}, "
          f"log-slope {slope:+.4f}/dB (exact {-(1 + prof.varrho) * n / 20:+.4f})")
