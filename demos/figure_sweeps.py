"""Sweep-harness walkthrough: configs, presets, and emitted tables.

Validates a config file, runs it, and runs one of the built-in figure
presets, writing CSV/JSON artifacts under demos/output/.

Run: python3 demos/figure_sweeps.py
"""

import json
import pathlib

from risfso import cli

# Paths are printed relative to the repository root, so the output is the
# same in every checkout.
root = pathlib.Path(__file__).resolve().parent.parent
out_dir = root / "demos" / "output"
out_dir.mkdir(exist_ok=True)

# --- A custom sweep from a flat key = value config -------------------------
config_text = """\
# custom outage/BER sweep
turbulence.alpha = 15
turbulence.beta = 10
pointing.sigma_theta_mrad = 1.0
pointing.sigma_beta_mrad = 0.5
pointing.beam_width_cm = 120
pointing.aperture_radius_cm = 10
pointing.l1_m = 150
pointing.l2_m = 150
link.gamma_bar_db = 0:40:5
link.n_elements = 64,128
sweep.metrics = outage,ber
sweep.include_oracle = true
mc.samples = 20000
mc.seed = 2024
"""
cfg_path = out_dir / "custom_sweep.cfg"
cfg_path.write_text(config_text)

spec = cli.validate_config(str(cfg_path))
print("Validated config; resolved parameters:")
print(json.dumps(spec.resolved()["variants"][0], indent=2))
print()

table = cli.run_sweep(spec)
csv_path = out_dir / "custom_sweep.csv"
cli.emit(table, "csv", str(csv_path))
print(f"Wrote {len(table.rows)} rows to {csv_path.relative_to(root).as_posix()}")
print("First rows:")
for line in csv_path.read_text().splitlines()[:4]:
    print(f"  {line}")
print()

# --- A built-in preset ------------------------------------------------------
# fig4: small element counts, heavy jitter, with the high-SNR asymptote
# column filled so the diversity-order slopes can be read off the table.
preset = cli.figure_preset("fig4", mc_samples=20000, seed=2024)
table = cli.run_sweep(preset)
json_path = out_dir / "asymptotic_outage.json"
cli.emit(table, "json", str(json_path))
print(f"Preset 'fig4' -> {len(table.rows)} rows -> {json_path.relative_to(root).as_posix()}")

doc = json.loads(json_path.read_text())
print("Outage vs asymptote at 70 dB:")
for row in doc["rows"]:
    if row["gamma_bar_db"] == 70.0:
        print(f"  N = {row['n_elements']}: analytic = {row['analytic']:.3e}, "
              f"asymptotic = {row['asymptotic']:.3e}")
print()
print("Equivalent command lines:")
print("  risfso validate --config demos/output/custom_sweep.cfg")
print("  risfso sweep    --config demos/output/custom_sweep.cfg --out sweep.csv")
print("  risfso figure   fig4 --mc-samples 20000 --format json --out fig4.json")
