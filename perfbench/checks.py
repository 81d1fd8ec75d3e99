"""Output checks on a sweep table, and the row-quality fractions.

None of these checks pins the seed -> sample mapping: MC values are only
compared with closed forms and quadrature oracles through a statistical
band, so a different sampler or stream layout passes them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from risfso import analytic, channel, cli

Check = Tuple[str, bool, str]

# Relative miss of a closed form against its oracle that counts as bad
# (acceptance criterion 2). No absolute floor: a closed form returning 0
# where the oracle gives 1e-26 is a miss.
EXACT_REL_TOL = 1e-6
EXACT_FORMS = ("outage", "moments")

# MC agreement band: |mc - ref| <= MC_SIGMAS * stderr + MC_ABS_TOL. The
# absolute term covers the known bias of the Gaussian (CLT) aggregate
# model, about 0.004 in outage probability at N = 128, 18 dB.
MC_SIGMAS = 5.0
MC_ABS_TOL = 0.01

_RANGES = {"outage": (0.0, 1.0), "ber": (0.0, 0.5)}
_VALUE_CELLS = ("analytic", "asymptotic", "mc_mean", "oracle")
# Oracle cells are adaptive quadratures run to relative tolerance 1e-10
# (oracle_metric's default), so they may pass a range end by that much;
# the other cells must lie inside exactly.
ORACLE_REL_TOL = 1e-10


def base_metric(row: cli.Row) -> str:
    return row.metric.split("@", 1)[0]


def _rel_miss(closed: float, oracle: float) -> float:
    scale = max(abs(closed), abs(oracle))
    return 0.0 if scale == 0.0 else abs(closed - oracle) / scale


class ReferenceOracles:
    """Quadrature oracles for rows whose sweep did not request them.

    Computed by the benchmark after the timed passes, so they cost no
    sweep time.
    """

    def __init__(self, spec: cli.SweepSpec):
        self.spec = spec
        self._moments = {}

    def __call__(self, kind: str, row: cli.Row) -> float:
        variant = self.spec.variants[0]
        key = row.n_elements
        if key not in self._moments:
            self._moments[key] = analytic.moments(variant.turbulence, variant.pointing, key)
        gamma_bar = channel.LinkConfig.db_to_linear(row.gamma_bar_db)
        value, _ = analytic.oracle_metric(
            kind, self._moments[key], gamma_bar,
            gamma_th=self.spec.gamma_th, psi=self.spec.psi, n=1,
        )
        return value


def failed_rows(spec: cli.SweepSpec, rows: List[cli.Row]) -> int:
    """Rows with ``error`` set or a requested cell left empty."""
    failed = 0
    for row in rows:
        wanted = ["analytic"]
        if spec.include_asymptotic and base_metric(row) == "outage":
            wanted.append("asymptotic")
        if spec.include_mc:
            wanted += ["mc_mean", "mc_stderr"]
        if spec.include_oracle:
            wanted.append("oracle")
        failed += row.error is not None or any(getattr(row, c) is None for c in wanted)
    return failed


def exact_form_misses(rows: List[cli.Row], oracles: ReferenceOracles) -> Tuple[int, int]:
    """(bad, total) over exact-form rows: closed form vs its oracle."""
    bad = total = 0
    for row in rows:
        metric = base_metric(row)
        if metric not in EXACT_FORMS:
            continue
        total += 1
        oracle = row.oracle
        if oracle is None:
            oracle = oracles("outage" if metric == "outage" else "moment", row)
        bad += row.analytic is None or _rel_miss(row.analytic, oracle) > EXACT_REL_TOL
    return bad, total


def table_checks(spec: cli.SweepSpec, rows: List[cli.Row],
                 oracles: ReferenceOracles, prefix: str = "") -> List[Check]:
    """Row count, value ranges and, with MC on, standard errors and the MC band."""
    checks: List[Check] = []
    expected = sum(len(spec.gamma_bar_db) * len(v.n_list) * len(spec.metrics)
                   for v in spec.variants)
    checks.append(("row_count", len(rows) == expected, f"{len(rows)} rows, expected {expected}"))

    out_of_range = []
    for row in rows:
        lo, hi = _RANGES.get(base_metric(row), (-math.inf, math.inf))
        for cell in _VALUE_CELLS:
            value = getattr(row, cell)
            slack = ORACLE_REL_TOL * max(abs(lo), abs(hi)) if cell == "oracle" else 0.0
            if value is not None and not (math.isfinite(value) and lo - slack <= value <= hi + slack):
                out_of_range.append(f"{row.metric}@{row.gamma_bar_db}dB,N={row.n_elements}:{cell}={value}")
    checks.append(("value_ranges", not out_of_range,
                   "; ".join(out_of_range[:5]) or "probabilities in [0,1], BER in [0,0.5], all finite"))

    if spec.include_mc:
        checks.append(_stderr_check(rows))
        checks.append(_mc_band_check(rows, oracles))
    return [(prefix + name, ok, detail) for name, ok, detail in checks]


def _stderr_check(rows: List[cli.Row]) -> Check:
    # An outage estimate whose samples are all 0 or all 1 has no spread;
    # every other MC cell must report a positive standard error.
    bad = [
        f"{r.metric}@{r.gamma_bar_db}dB,N={r.n_elements}"
        for r in rows
        if r.mc_mean is not None
        and not (r.mc_stderr > 0 or (base_metric(r) == "outage" and r.mc_mean in (0.0, 1.0)))
    ]
    return ("mc_stderr_positive", not bad, "; ".join(bad[:5]) or "ok")


def _mc_band_check(rows: List[cli.Row], oracles: ReferenceOracles) -> Check:
    """MC mean vs the exact Gaussian-model value of the same quantity.

    Outage and the first moment are compared with their closed forms,
    which are exact under the Gaussian model. BER and capacity closed
    forms are approximations with their own known error (acceptance
    criteria 5 and 6), so those rows are compared with the quadrature of
    their exact integrand instead.
    """
    worst: Optional[Tuple[float, str]] = None
    for row in rows:
        if row.mc_mean is None:
            continue
        metric = base_metric(row)
        if metric in ("outage", "moments"):
            ref = row.analytic
        else:
            ref = oracles("ber_exactQ" if metric == "ber" else "capacity", row)
        if metric == "outage":
            p = min(max(ref, 0.0), 1.0)
            stderr = math.sqrt(p * (1.0 - p) / row.n_samples)
        else:
            stderr = row.mc_stderr
        excess = abs(row.mc_mean - ref) - (MC_SIGMAS * stderr + MC_ABS_TOL)
        if worst is None or excess > worst[0]:
            worst = (excess, f"{row.metric}@{row.gamma_bar_db}dB,N={row.n_elements}: "
                             f"mc={row.mc_mean!r} ref={ref!r}")
    ok = worst is None or worst[0] <= 0.0
    return ("mc_matches_model", ok, f"closest to the band edge: {worst[1]}" if worst else "no MC rows")


def pdf_checks(x: np.ndarray, density: np.ndarray) -> List[Check]:
    finite = bool(np.all(np.isfinite(density)) and np.all(density >= 0.0))
    mass = float(np.trapezoid(density, x))
    return [("pdf_b_finite", finite, "non-negative and finite on the grid"),
            ("pdf_b_mass", 0.98 <= mass <= 1.01, f"trapezoid mass on the grid {mass:.6f}")]
