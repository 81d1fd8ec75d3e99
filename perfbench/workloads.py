"""Workload inputs and the timed pass.

Each workload is a closed loop with one caller: the next pass starts when
the previous one has completed. A workload is a sweep config written to a
file and handed to ``cli.validate_config`` / ``cli.run_sweep``, exactly as
``risfso sweep --config`` would; the seed argument becomes ``mc.seed``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from risfso import channel, cli

# Fixed x grid for the exact single-element density on closed-form. For
# alpha = 6.5, beta = 6.0 and the default geometry it runs from about the
# 0.2% quantile of B far into its upper tail, so its trapezoid integral is
# about 0.999.
PDF_B_GRID = np.geomspace(1e-6, 0.05, 100)


def workers_available() -> int:
    """Worker count of the MC workloads that use the pool: 2, or 1 on one core."""
    return min(2, len(os.sched_getaffinity(0)))


def config(workload: str, seed: int) -> Dict[str, object]:
    """Config keys of a workload; everything not listed takes the CLI default."""
    if workload == "default-sweep":
        # The built-in defaults, pinned here so a change of DEFAULTS cannot
        # silently change the work measured.
        return {
            "sweep.metrics": "outage,ber,capacity",
            "link.n_elements": "128",
            "link.gamma_bar_db": "0:40:2",
            "mc.samples": 100000,
            "mc.workers": workers_available(),
            "mc.seed": seed,
        }
    if workload == "closed-form":
        return {
            "turbulence.alpha": 6.5,
            "turbulence.beta": 6.0,
            "sweep.metrics": "outage,ber,capacity,af,moments",
            "link.n_elements": "1,4,16,64,128,256",
            "link.gamma_bar_db": "0:40:1",
            "sweep.include_mc": False,
            "sweep.include_oracle": True,
            "sweep.include_asymptotic": True,
            "mc.seed": seed,
        }
    if workload == "wide-surface":
        return {
            "sweep.metrics": "outage",
            "link.n_elements": "4096",
            "link.gamma_bar_db": "0:40:2",
            "mc.samples": 2 * 4096,
            "mc.workers": 1,
            "mc.seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}")


def determinism_config(seed: int, workers: int) -> Dict[str, object]:
    """Reduced copy of default-sweep; 10000 samples end in a partial block."""
    return {
        "sweep.metrics": "outage,ber,capacity",
        "link.n_elements": "16",
        "link.gamma_bar_db": "0:40:10",
        "mc.samples": 10000,
        "mc.workers": workers,
        "mc.seed": seed,
    }


def mc_check_config(seed: int) -> Dict[str, object]:
    """MC pass on the closed-form channel, whose own sweep draws no samples.

    The first moment is the one metric whose MC mean the Gaussian closed
    form matches without model bias, so it checks the estimator tightly.
    """
    return {
        "turbulence.alpha": 6.5,
        "turbulence.beta": 6.0,
        "sweep.metrics": "moments",
        "link.n_elements": "64,128",
        "link.gamma_bar_db": "0:40:10",
        "mc.samples": 4 * 4096,
        "mc.workers": 1,
        "mc.seed": seed,
    }


def write_config(keys: Dict[str, object], path: str) -> str:
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


@dataclass
class PassResult:
    seconds: float
    table: cli.Table
    csv: str
    pdf_b: Optional[np.ndarray]


def run_pass(workload: str, spec: cli.SweepSpec, csv_path: str) -> PassResult:
    """One timed pass: run_sweep plus CSV emission (plus the pdf_b grid)."""
    t0 = time.perf_counter()
    table = cli.run_sweep(spec)
    payload = cli.emit(table, "csv", csv_path)
    density = None
    if workload == "closed-form":
        v = spec.variants[0]
        density = channel.pdf_b(PDF_B_GRID, v.turbulence, v.pointing)
    return PassResult(time.perf_counter() - t0, table, payload, density)
