"""Experiment orchestration: config parsing, sweeps, and table emission.

The sweep runner evaluates each requested metric on a grid of average
SNR values and element counts, producing one row per (gamma_bar, N,
metric) with the closed-form value and, where requested, the high-SNR
asymptote, a Monte Carlo estimate, and an independent quadrature oracle.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from . import analytic, montecarlo
from .channel import LinkConfig, PointingGeometry, TurbulenceParams
from .errors import ConfigError, DomainError, RisFsoError

__all__ = [
    "ChannelVariant",
    "SweepSpec",
    "Row",
    "Table",
    "validate_config",
    "figure_preset",
    "run_sweep",
    "emit",
    "main",
    "CSV_COLUMNS",
    "PRESET_IDS",
]

CSV_COLUMNS = (
    "gamma_bar_db",
    "n_elements",
    "metric",
    "analytic",
    "asymptotic",
    "mc_mean",
    "mc_stderr",
    "oracle",
    "n_samples",
    "seed",
)

# Longest SNR grid a config may request. A start:stop:step grid is built
# point by point, so without a cap a tiny step or a huge stop would hang;
# the largest benchmark sweep uses 41 points.
GRID_MAX_POINTS = 10_000


def _fading(ms: analytic.MomentSummary, gammas: Sequence[float], spec: SweepSpec) -> list:
    """The amount of fading of order 2 at each SNR: it takes its moments at
    gamma_bar = 1, so one value (or DomainError) holds on the whole grid."""
    try:
        cell = analytic.amount_of_fading(2, ms, 1.0)
    except DomainError as exc:
        cell = exc
    return [cell] * len(gammas)


# Sweep metric -> (closed form of (moments, average SNRs, spec), giving per
# SNR its value or DomainError; the analytic.METRIC_KINDS kind of its Monte
# Carlo estimate and oracle, or None).
METRICS = {
    "outage": (lambda ms, gbs, spec: analytic.outage_probability(spec.gamma_th, ms, gbs),
               "outage"),
    "ber": (lambda ms, gbs, spec: analytic.average_ber(spec.psi, ms, gbs), "ber_exactQ"),
    "capacity": (lambda ms, gbs, spec: analytic.channel_capacity(ms, gbs), "capacity"),
    "af": (_fading, None),
    "moments": (lambda ms, gbs, spec: analytic.generalized_moment(1, ms, gbs), "moment"),
}


def _real(low: float = -math.inf, strict: bool = False):
    """Parser of a finite real bounded below by ``low`` (strictly or not)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        if value < low or (strict and value == low):
            raise ValueError(f"unit violation, must be {'>' if strict else '>='} {low:g} "
                             f"(got {value})")
        return value

    return parse


def _integer(low: int):
    """Parser of an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise ValueError(f"must be >= {low} (got {value})")
        return value

    return parse


_FLAGS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _flag(text: str) -> bool:
    try:
        return _FLAGS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_FLAGS)}, got {text!r}") from None


def _increasing(values: tuple, what: str) -> tuple:
    if not values:
        raise ValueError(f"{what} is empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    return values


def _in_db_range(db: float) -> float:
    """``db``, if its linear value is positive and finite."""
    try:
        linear = LinkConfig.db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{db:g} dB has no positive finite linear value")
    return db


def _db(text: str) -> float:
    return _in_db_range(_real()(text))


def _grid(text: str) -> Tuple[float, ...]:
    """SNR grid in dB: ``start:stop:step`` or a comma list."""
    number = _real()
    if ":" not in text:
        return _increasing(tuple(_db(p) for p in text.split(",") if p.strip()), "grid")
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (number(p) for p in parts)
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {text!r}")
    span = (stop - start + 1e-9) / step
    if span >= GRID_MAX_POINTS:
        raise ValueError(f"grid has more than {GRID_MAX_POINTS} points")
    count = math.floor(span) + 1 if span >= 0 else 0
    # Each point from its index, so rounding error does not accumulate.
    points = (_in_db_range(round(start + i * step, 12)) for i in range(count))
    return _increasing(tuple(points), "grid")


def _counts(text: str) -> Tuple[int, ...]:
    count = _integer(1)
    return _increasing(tuple(count(p) for p in text.split(",")), "list")


def _metrics(text: str) -> Tuple[str, ...]:
    metrics = tuple(p.strip() for p in text.split(",") if p.strip())
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {', '.join(METRICS)}")
    if not metrics:
        raise ValueError("metric list is empty")
    if len(set(metrics)) < len(metrics):
        raise ValueError(f"metric list repeats a metric: {text!r}")
    return metrics


# Every config key: its default as config text (None: unset) and the
# parser that type- and range-checks a value. Units are in the key names.
# The defaults are the baseline parameter set: sigma_theta = 1 mrad,
# sigma_beta = 0.5 mrad, beam width 120 cm, aperture radius 10 cm,
# alpha = 15, beta = 10, L1 = L2 = 150 m.
_KEYS = {
    "turbulence.alpha": ("15", _real(0, strict=True)),
    "turbulence.beta": ("10", _real(0, strict=True)),
    "pointing.sigma_theta_mrad": ("1", _real(0)),
    "pointing.sigma_beta_mrad": ("0.5", _real(0)),
    "pointing.beam_width_cm": ("120", _real(0, strict=True)),
    "pointing.aperture_radius_cm": ("10", _real(0, strict=True)),
    "pointing.l1_m": ("150", _real(0)),
    "pointing.l2_m": ("150", _real(0, strict=True)),
    "pointing.exponent_c": (None, _real(0, strict=True)),
    "link.gamma_bar_db": ("0:40:2", _grid),
    "link.n_elements": ("128", _counts),
    "link.gamma_th_db": ("0", _db),
    "link.psi": ("1", _real(0, strict=True)),
    "sweep.metrics": ("outage,ber,capacity", _metrics),
    "sweep.include_asymptotic": ("false", _flag),
    "sweep.include_oracle": ("false", _flag),
    "sweep.include_mc": ("true", _flag),
    "mc.samples": ("100000", _integer(1)),
    "mc.seed": ("2024", _integer(0)),
    "mc.workers": ("1", _integer(1)),
}

DEFAULTS = {key: None if text is None else parse(text) for key, (text, parse) in _KEYS.items()}


@dataclass(frozen=True)
class ChannelVariant:
    """A labelled (turbulence, pointing) channel used by one sweep."""

    label: str
    turbulence: TurbulenceParams
    pointing: PointingGeometry
    n_list: Tuple[int, ...]


@dataclass
class SweepSpec:
    """Fully-resolved sweep description."""

    gamma_bar_db: Tuple[float, ...]
    metrics: Tuple[str, ...]
    variants: Tuple[ChannelVariant, ...]
    gamma_th: float
    psi: float
    mc_samples: int
    seed: int
    workers: int
    include_asymptotic: bool
    include_oracle: bool
    include_mc: bool

    def resolved(self) -> dict:
        """JSON-serializable echo of every parameter driving the sweep."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "variants"},
            "variants": [
                {
                    "label": v.label,
                    "n_list": list(v.n_list),
                    "alpha": v.turbulence.alpha,
                    "beta": v.turbulence.beta,
                    "sigma_theta_rad": v.pointing.sigma_theta,
                    "sigma_beta_rad": v.pointing.sigma_beta,
                    "l1_m": v.pointing.distance_l1,
                    "l2_m": v.pointing.distance_l2,
                    "beam_width_m": v.pointing.beam_width,
                    "aperture_radius_m": v.pointing.aperture_radius,
                    "a0": v.pointing.a0,
                    "c": v.pointing.c,
                }
                for v in self.variants
            ],
        }


@dataclass
class Row:
    gamma_bar_db: float
    n_elements: int
    metric: str
    analytic: Optional[float] = None
    asymptotic: Optional[float] = None
    mc_mean: Optional[float] = None
    mc_stderr: Optional[float] = None
    oracle: Optional[float] = None
    n_samples: Optional[int] = None
    seed: Optional[int] = None
    clamp_events: int = 0
    clt_missing_mass: Optional[float] = None
    capacity_fit_window_exceeded: Optional[bool] = None
    error: Optional[str] = None


@dataclass
class Table:
    rows: List[Row]
    config: dict


# The paper's Figs. 2-5 as config text: the keys all variants share, then
# (label, keys) per channel variant, each parsed and checked like a config file.
_PRESETS = {
    # Capacity for several element counts, plus the no-reflector direct
    # link (one 100 m path, transmitter jitter only).
    "fig2": ("sweep.metrics = capacity", (
        ("", "link.n_elements = 1,16,64,128,256"),
        ("direct", "link.n_elements = 1\npointing.sigma_beta_mrad = 0\n"
                   "pointing.l1_m = 0\npointing.l2_m = 100"),
    )),
    # Outage at N = 128 for several beam-width / aperture ratios.
    "fig3": ("sweep.metrics = outage", (
        ("wz120_a10", ""),
        ("wz80_a10", "pointing.beam_width_cm = 80"),
        ("wz120_a20", "pointing.aperture_radius_cm = 20"),
    )),
    # Asymptotic outage: heavy jitter (exponent c = 0.5), strong turbulence, small N.
    "fig4": ("sweep.metrics = outage\nsweep.include_asymptotic = true\n"
             "link.gamma_bar_db = 0:80:5\nlink.n_elements = 1,2,4\n"
             "pointing.exponent_c = 0.5\nturbulence.alpha = 6.5\nturbulence.beta = 6",
             (("", ""),)),
    # BER at N = 128, L1 = 350 m, L2 = 250 m, 20 cm aperture, for
    # turbulence-strength and transmitter-jitter variants.
    "fig5": ("sweep.metrics = ber\npointing.l1_m = 350\npointing.l2_m = 250\n"
             "pointing.aperture_radius_cm = 20", (
        ("a15_b10_s1", ""),
        ("a15_b10_s2", "pointing.sigma_theta_mrad = 2"),
        ("a6.5_b6_s1", "turbulence.alpha = 6.5\nturbulence.beta = 6"),
    )),
}

PRESET_IDS = tuple(_PRESETS)

_FIGURE_MC_SAMPLES = 10000  # Monte Carlo samples per point of a figure preset


def _parse(raw_lines: Sequence[str],
           flags: Sequence[Tuple[str, str]] = ()) -> Tuple[dict, Dict[str, str]]:
    """Config values (defaults overridden by ``key = value`` lines, then by the
    (source, ``key = value``) entries such as flags) and the source, ``line N``
    or the entry's, that last set each key, in the order they were last set;
    every bad entry is a ``<source>: key: message`` of one ConfigError."""
    values, sources, errors = dict(DEFAULTS), {}, []
    # A config line's '#' starts a comment; a flag's value is taken whole.
    numbered = [(f"line {n}", raw, raw.split("#", 1)[0]) for n, raw in enumerate(raw_lines, 1)]
    for source, raw, line in numbered + [(flag, entry, entry) for flag, entry in flags]:
        line = line.strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            errors.append(f"{source}: expected 'key = value', got {raw.strip()!r}")
        elif key not in _KEYS:
            errors.append(f"{source}: {key}: unknown key")
        else:
            try:
                values[key] = _KEYS[key][1](text)
                sources.pop(key, None)
                sources[key] = source
            except ValueError as exc:
                errors.append(f"{source}: {key}: {exc}")

    if values["sweep.include_mc"] and values["mc.samples"] < montecarlo.MIN_SAMPLES:
        errors.append(f"{sources['mc.samples']}: mc.samples: "
                      f"must be >= {montecarlo.MIN_SAMPLES} when MC is enabled")
    if errors:
        raise ConfigError(errors)
    return values, sources


def _sweep(variants: Sequence[Tuple[str, Sequence[str]]],
           flags: Sequence[Tuple[str, str]] = ()) -> SweepSpec:
    """Sweep from one (label, config lines) per channel variant, each followed
    by the flag entries; the sweep keys are read from the last one."""
    channels = []
    for label, raw_lines in variants:
        values, sources = _parse(raw_lines, flags)
        try:
            pointing = _pointing_from(values)
        except DomainError as exc:
            raise _section_error(sources, ("pointing.",), exc) from None
        try:
            turb = TurbulenceParams(alpha=values["turbulence.alpha"],
                                    beta=values["turbulence.beta"])
            for n in values["link.n_elements"]:
                analytic.moments(turb, pointing, n)
        except DomainError as exc:
            raise _section_error(sources, ("turbulence.", "pointing.", "link.n_elements"),
                                 exc) from None
        channels.append(ChannelVariant(label, turb, pointing, values["link.n_elements"]))

    return SweepSpec(
        gamma_bar_db=values["link.gamma_bar_db"],
        metrics=values["sweep.metrics"],
        variants=tuple(channels),
        gamma_th=LinkConfig.db_to_linear(values["link.gamma_th_db"]),
        psi=values["link.psi"],
        mc_samples=values["mc.samples"],
        seed=values["mc.seed"],
        workers=values["mc.workers"],
        include_asymptotic=values["sweep.include_asymptotic"],
        include_oracle=values["sweep.include_oracle"],
        include_mc=values["sweep.include_mc"],
    )


def _read(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from None


def validate_config(path: str) -> SweepSpec:
    """Parse and validate a sweep config, applying baseline defaults."""
    return _sweep((("", _read(path)),))


def _preset(preset_id: str) -> List[Tuple[str, List[str]]]:
    """(label, config lines) of each channel variant of a preset."""
    if preset_id not in _PRESETS:
        raise DomainError(f"unknown preset {preset_id!r}; choose from {PRESET_IDS}")
    shared, variants = _PRESETS[preset_id]
    return [(label, f"{shared}\n{keys}".splitlines()) for label, keys in variants]


def figure_preset(preset_id: str, mc_samples: int = _FIGURE_MC_SAMPLES,
                  seed: int = DEFAULTS["mc.seed"],
                  workers: int = DEFAULTS["mc.workers"]) -> SweepSpec:
    """Parameter sets behind the published capacity/outage/BER sweeps."""
    return _sweep(_preset(preset_id), [("mc_samples", f"mc.samples = {mc_samples}"),
                                       ("seed", f"mc.seed = {seed}"),
                                       ("workers", f"mc.workers = {workers}")])


def _section_error(sources: Dict[str, str], prefixes: Tuple[str, ...],
                   exc: Exception) -> ConfigError:
    """``<source>: <section>: <exc>`` at the last entry setting a key with one
    of the prefixes."""
    key = next((k for k in reversed(sources) if k.startswith(prefixes)), prefixes[0])
    return ConfigError([f"{sources.get(key, 'line 0')}: {key.split('.')[0]}: {exc}"])


def _pointing_from(values: dict) -> PointingGeometry:
    """Pointing geometry from config values, converted from their key units."""
    wz = values["pointing.beam_width_cm"] / 100.0
    ap = values["pointing.aperture_radius_cm"] / 100.0
    l2 = values["pointing.l2_m"]
    if values["pointing.exponent_c"] is not None:
        return PointingGeometry.from_exponent(values["pointing.exponent_c"], wz, ap, l2)
    return PointingGeometry(
        sigma_theta=values["pointing.sigma_theta_mrad"] * 1e-3,
        sigma_beta=values["pointing.sigma_beta_mrad"] * 1e-3,
        distance_l1=values["pointing.l1_m"],
        distance_l2=l2,
        beam_width=wz,
        aperture_radius=ap,
    )


def _split(cells: Sequence, prefix: str = "") -> Tuple[list, list]:
    """(values, errors) of a column of cells: a DomainError cell gives the value
    None and its message after prefix, any other cell itself and no error."""
    return ([None if isinstance(c, DomainError) else c for c in cells],
            [f"{prefix}{c}" if isinstance(c, DomainError) else None for c in cells])


def _mc_cell(est: montecarlo.McEstimate) -> Tuple[
        Optional[float], Optional[float], int, Optional[str]]:
    """(mean, stderr, n_samples, error) of an estimate."""
    try:
        return est.mean, est.stderr, est.n_samples, None
    except RisFsoError as exc:
        return None, None, est.n_samples, f"mc: {exc}"


def run_sweep(spec: SweepSpec) -> Table:
    """Evaluate every (gamma_bar, N, metric) cell of the sweep: per channel and
    N, each metric's columns over the SNR grid, then one Row per cell."""
    gammas = [LinkConfig.db_to_linear(db) for db in spec.gamma_bar_db]
    mc_kinds = [METRICS[m][1] for m in spec.metrics if spec.include_mc and METRICS[m][1]]
    oracle_kinds = [METRICS[m][1] for m in spec.metrics if spec.include_oracle and METRICS[m][1]]
    channels = [(variant, n, analytic.moments(variant.turbulence, variant.pointing, n))
                for variant in spec.variants for n in variant.n_list]
    # One pass per kind over every (variant, N, gamma_bar) cell: per channel and
    # N, a list of (value, err) or the cell's DomainError, one per gamma_bar.
    oracles = {kind: analytic.oracle_metric(kind, [ms for _, _, ms in channels], gammas,
                                            gamma_th=spec.gamma_th, psi=spec.psi)
               for kind in oracle_kinds}
    none = [None] * len(gammas)
    seed = spec.seed if spec.include_mc else None

    rows: List[Row] = []
    for k, (variant, n, ms) in enumerate(channels):
        t, g = variant.turbulence, variant.pointing
        missing_mass = ms.clt_missing_mass
        mc = {}
        if mc_kinds:
            base_cfg = LinkConfig(n_elements=n, gamma_bar=1.0,
                                  gamma_th=spec.gamma_th, psi=spec.psi)
            estimates = montecarlo.estimate_grid(
                mc_kinds, t, g, base_cfg, gammas, spec.mc_samples, spec.seed, spec.workers
            )
            # Per kind, its mean, stderr, sample count and error columns.
            mc = {kind: list(zip(*[_mc_cell(by_snr[gb]) for gb in gammas])) or [none] * 4
                  for kind, by_snr in estimates.items()}
        by_metric = []
        for metric in spec.metrics:
            kind = METRICS[metric][1]
            values, errors = _split(METRICS[metric][0](ms, gammas, spec))
            asymptotes = none
            if metric == "outage" and spec.include_asymptotic:
                try:
                    profile = analytic.asymptotic_profile(t, g, n)
                    cells = analytic.asymptotic_outage(spec.gamma_th, profile, t, g, gammas)
                except DomainError as exc:
                    cells = [exc] * len(gammas)
                asymptotes, asymptote_errors = _split(cells)
                # The asymptote's failure replaces the closed form's.
                errors = [a or e for a, e in zip(asymptote_errors, errors)]
            oracle = none
            if kind in oracles:
                cells, oracle_errors = _split(oracles[kind][k], "oracle: ")
                oracle = [None if c is None else c[0] for c in cells]
                errors = [e or o for e, o in zip(errors, oracle_errors)]
            mean = stderr = n_samples = none
            if kind in mc:
                mean, stderr, n_samples, mc_errors = mc[kind]
                errors = [e or m for e, m in zip(errors, mc_errors)]
            fit_exceeded = none
            if metric == "capacity":
                fit_exceeded = [ms.m * gb > analytic.CAPACITY_FIT_LIMIT for gb in gammas]
            name = f"{metric}@{variant.label}" if variant.label else metric
            # Each Row's fields in their order, since a keyword call takes about
            # three times as long. The asymptote is the one closed form capped at
            # its range, which clamp_events counts.
            by_metric.append([
                Row(db, n, name, value, asymptote, mu, se, o, count, seed,
                    int(asymptote == 1.0), missing_mass, exceeded, error)
                for db, value, asymptote, mu, se, o, count, exceeded, error in zip(
                    spec.gamma_bar_db, values, asymptotes, mean, stderr, oracle, n_samples,
                    fit_exceeded, errors)])
        # Rows run over the SNR grid, and over the metrics at each SNR.
        rows.extend(row for at_snr in zip(*by_metric) for row in at_snr)
    return Table(rows=rows, config=spec.resolved())


def emit(table: Table, fmt: str, path: Optional[str] = None) -> str:
    """Serialize the table; CSV columns follow the fixed contract."""
    if not table.rows:
        raise DomainError("table is empty")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes None as an empty cell and a float as its repr.
        writer.writerows(map(operator.attrgetter(*CSV_COLUMNS), table.rows))
        payload = buf.getvalue()
    elif fmt == "json":
        payload = json.dumps(
            {"config": table.config, "rows": [asdict(r) for r in table.rows]},
            indent=2,
            sort_keys=True,
        ) + "\n"
    else:
        raise DomainError(f"unknown format {fmt!r}; choose csv or json")
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    return payload


# Command-line flag -> the config key it sets.
_FLAG_KEYS = {"--mc-samples": "mc.samples", "--seed": "mc.seed", "--workers": "mc.workers"}


def _flags(args: argparse.Namespace) -> List[Tuple[str, str]]:
    """Each flag given as the config entry ``key = value``, with the flag as its source."""
    return [(flag, f"{key} = {text}") for flag, key in _FLAG_KEYS.items()
            if (text := getattr(args, flag[2:].replace("-", "_"), None)) is not None]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="risfso",
        description="Performance sweeps for reflecting-surface-aided FSO links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a config file")
    p_sweep.add_argument("--config", required=True)
    p_fig = sub.add_parser("figure", help="run a published-figure preset")
    p_fig.add_argument("preset", choices=PRESET_IDS)
    p_fig.add_argument("--mc-samples", default=str(_FIGURE_MC_SAMPLES))
    for p in (p_sweep, p_fig):
        p.add_argument("--seed")
        p.add_argument("--workers")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "figure":
            spec = _sweep(_preset(args.preset), _flags(args))
        else:
            spec = _sweep((("", _read(args.config)),), _flags(args))
    except ConfigError as exc:
        for item in exc.items:
            print(f"error: {item}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(spec.resolved(), indent=2, sort_keys=True))
        return 0
    if args.out:
        try:
            # Probe the path, so one that cannot be written fails before the sweep.
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
    table = run_sweep(spec)
    try:
        payload = emit(table, args.format, args.out)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(payload)
    else:
        print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
