"""Channel-model walkthrough: turbulence, misalignment, and aggregation.

Derives the Gamma-Gamma shape parameters from a physical atmosphere,
builds the misalignment geometry, then checks samples of each gain
against the closed-form statistics they must obey.

Run: python3 demos/channel_statistics.py
"""

import math

import numpy as np

from risfso import analytic, channel

# --- Gamma-Gamma turbulence from physical inputs -------------------------
turb_physical = channel.derive_turbulence(
    cn2=5e-14,            # refractive-index structure constant, m^(-2/3)
    wavelength=1550e-9,   # m
    path_length=300.0,    # m
    aperture_radius=0.1,  # m
)
print("Turbulence from physics:")
print(f"  alpha = {turb_physical.alpha:.2f}, beta = {turb_physical.beta:.2f}")
print()

# For the rest of the demo use moderate shapes stated directly.
turb = channel.TurbulenceParams(alpha=15.0, beta=10.0)

# --- Misalignment geometry ------------------------------------------------
geo = channel.PointingGeometry(
    sigma_theta=1e-3,    # transmitter jitter std, rad
    sigma_beta=0.5e-3,   # reflecting-surface jitter std, rad
    distance_l1=150.0,   # source -> surface, m
    distance_l2=150.0,   # surface -> destination, m
    beam_width=1.2,      # m
    aperture_radius=0.1, # m
)
print("Misalignment geometry:")
print(f"  peak pointing gain A0   = {geo.a0:.6f}")
print(f"  equivalent beam width^2 = {geo.wzeq2:.4f} m^2")
print(f"  power-law exponent c    = {geo.c:.4f}")
print()

# --- Sample the gains and verify their laws -------------------------------
n = 200_000
ha = channel.sample_h_a(turb, channel.RandomStream(seed=1, stream_id=0), n)
hp = channel.sample_h_p(geo, channel.RandomStream(seed=1, stream_id=1), n)

print(f"Turbulence gain h_a ({n} samples):")
print(f"  mean   = {ha.mean():.4f}   (exact: 1)")
m2 = (1 + 1 / turb.alpha) * (1 + 1 / turb.beta)
print(f"  E[h^2] = {(ha ** 2).mean():.4f}   (exact: {m2:.4f})")
print()

print(f"Pointing gain h_p: support (0, A0], CDF (h/A0)^c")
print(f"  max sample = {hp.max():.6f}  (A0 = {geo.a0:.6f})")
med = float(np.median(hp))
print(f"  median     = {med:.6f}  (exact: {geo.a0 * 0.5 ** (1 / geo.c):.6f})")
print()

# --- Aggregate over N reflecting elements ---------------------------------
cfg = channel.LinkConfig(n_elements=128, gamma_bar=channel.LinkConfig.db_to_linear(20.0))
z = channel.sample_aggregate(turb, geo, cfg, channel.RandomStream(seed=2), 50_000)
ms = analytic.moments(turb, geo, cfg.n_elements)
print(f"Aggregate squared gain Z over N = {cfg.n_elements} elements:")
print(f"  sample mean     = {z.mean():.6f}   (closed form m = {ms.m:.6f})")
print(f"  sample variance = {z.var(ddof=1):.3e}   (closed form delta^2 = {ms.delta_sq:.3e})")
rel_spread = math.sqrt(ms.delta_sq) / ms.m
print(f"  relative spread = {rel_spread:.3f}; shrinks like 1/sqrt(N), which is")
print("  why the Gaussian model of Z works better the more elements there are.")
