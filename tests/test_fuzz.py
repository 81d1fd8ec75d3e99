"""Seeded fuzz of the input surface: every input gives a result or a one-line
diagnostic, never a traceback or a warning.

Part one runs ``cli.main`` in process (``sweep``, ``figure`` with its flags,
and ``validate``) on configs that set random keys to values from a fixed list
of extremes. Each run must exit 0 or 2, raise nothing and warn nothing; on
exit 0 it prints a table and nothing on stderr, on exit 2 only ``error: ``
lines. Part two calls the public constructors, derive_turbulence, each closed
form, the oracle and pdf_b with the same extremes, and accepts a value (not
nan) or a RisFsoError.

Monte Carlo runs only at mc.samples = 1000, N <= 256 and at most 2 workers: a
huge N or sample count goes only into MC-off or validate runs. The fuzz checks
behaviour, not accuracy, and gates no number; its value lists may grow. A
failure names the seed and the input.
"""

import io
import math
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from risfso import analytic, channel, cli
from risfso.errors import DomainError, RisFsoError

SEEDS = (1, 2, 3)

# Config text of the extremes, and of ordinary values to mix them with.
REALS = ("0", "-1", "inf", "-inf", "nan", "1e300", "1e-300", "1e-320", "1e154", "7e-162")
ORDINARY = ("0.5", "1", "6.5", "15", "120", "abc")
GRIDS = ("40:0:-2", "-300:300:300", "0:40:20", "-1e300:0:1e299", "0,0", "10,5", "0:1:0")
COUNTS = ("0", "1.5", str(2**63 - 1), "-1", "1,2,4", "4,2")
FLAGS = ("true", "false", "yes", "0", "maybe", "")
METRIC_LISTS = ("outage,ber,capacity,af,moments", "af", "moments,outage", "ber,ber", "x", "")
# The MC-on pools: every count either fails validation or keeps the run small.
MC_POOLS = {
    "link.n_elements": ("1", "16", "256", "1,2,4", "0", "1.5", "-1", "nan", "300,200"),
    "mc.samples": ("1000", "0", "999", "1.5", "nan", "1e300"),
    "mc.workers": ("1", "2", "0", "1.5", "-1"),
}


def _typed_pool(key):
    if key == "link.gamma_bar_db":
        return GRIDS + REALS
    if key in ("link.n_elements", "mc.samples", "mc.seed", "mc.workers"):
        return COUNTS + ("1", "2", "1000")
    if key == "sweep.metrics":
        return METRIC_LISTS
    if key.startswith("sweep."):
        return FLAGS
    return REALS + ORDINARY


def _value(rng, key, pools):
    if key in pools:
        return rng.choice(pools[key])
    if rng.random() < 0.8:
        return rng.choice(_typed_pool(key))
    return rng.choice(REALS + ORDINARY + GRIDS + COUNTS + FLAGS + METRIC_LISTS)


def _fuzz_lines(rng, pools, exclude=()):
    keys = [k for k in cli._KEYS if k not in exclude]
    return [f"{key} = {_value(rng, key, pools)}" for key in rng.sample(keys, rng.randint(1, 4))]


def _run(argv):
    """(exit code, stdout, stderr, warnings) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _cli_outcome(argv):
    """(exit code, why the run breaks the contract or None)."""
    try:
        code, out, err, caught = _run(argv)
    except (Exception, SystemExit) as exc:  # an exit other than a return, too
        return None, f"raised {type(exc).__name__}: {exc}"
    if caught:
        return code, f"warned {caught}"
    if code == 0 and (err or not out):
        return code, f"exit 0 with stderr {err!r} and {len(out)} chars of stdout"
    if code == 2 and (out or not err or any(
            not line.startswith("error: ") for line in err.splitlines())):
        return code, f"exit 2 with stdout {out!r} and stderr {err!r}"
    return code, None if code in (0, 2) else f"exit {code}"


def _cli_cases(rng, path):
    """(argv, config text) of every fuzzed run; each config is written to path
    when its run starts."""
    cases = []
    for _ in range(200):
        cases.append((["validate", "--config", path], _fuzz_lines(rng, {})))
    for _ in range(100):  # Monte Carlo on, small
        lines = ["mc.samples = 1000"] + _fuzz_lines(rng, MC_POOLS, ("sweep.include_mc",))
        cases.append((["sweep", "--config", path, "--format", rng.choice(("csv", "json"))],
                      lines))
    for _ in range(100):  # Monte Carlo off: every closed form, the oracle and the asymptote
        lines = (["sweep.metrics = outage,ber,capacity,af,moments",
                  "sweep.include_oracle = true", "sweep.include_asymptotic = true"]
                 + _fuzz_lines(rng, {}, ("sweep.include_mc",)) + ["sweep.include_mc = false"])
        cases.append((["sweep", "--config", path], lines))
    for _ in range(20):
        argv = ["figure", rng.choice(cli.PRESET_IDS),
                "--mc-samples", rng.choice(("1000",) * 4 + MC_POOLS["mc.samples"]),
                "--format", rng.choice(("csv", "json"))]
        for flag, pool in (("--seed", COUNTS + ("1", "2024", "31")),
                           ("--workers", MC_POOLS["mc.workers"] + ("1", "2"))):
            if rng.random() < 0.7:
                argv += [flag, rng.choice(pool)]
        cases.append((argv, None))
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_gives_a_result_or_one_line_errors(tmp_path, seed):
    path = str(tmp_path / "fuzz.cfg")
    failures, results = [], {"validate": 0, "sweep": 0, "figure": 0}
    for argv, lines in _cli_cases(random.Random(seed), path):
        if lines is not None:
            (tmp_path / "fuzz.cfg").write_text("\n".join(lines) + "\n")
        code, why = _cli_outcome(argv)
        results[argv[0]] += code == 0
        if why:
            failures.append(f"argv {argv}, config {lines}: {why}")
    assert not failures, f"seed {seed}, {len(failures)} failures:\n" + "\n".join(failures[:10])
    # Each command also reaches results, not only diagnostics.
    assert min(results.values()) >= 3, results


# Library arguments: the extremes as floats, and ordinary values.
X_REALS = (0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, 1e-300, 1e-320, 1e154, 7e-162)
X_ORDINARY = (0.5, 1.0, 3.2, 6.5, 15.0, 171.0, 172.0, 250.0)
X_COUNTS = (0, 1, 2, 7, 128, 256, 4096, 2**63 - 1, -1, 1.5)


def _accepted(call, *args, **kwargs):
    """The call's value, or None for a RisFsoError; any other exception, a
    warning or a nan value escapes as an AssertionError naming the call."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = call(*args, **kwargs)
    except RisFsoError:
        return None
    except Exception as exc:
        raise AssertionError(f"{call.__name__}{args} {kwargs}: "
                             f"{type(exc).__name__}: {exc}") from exc
    if isinstance(value, (float, np.ndarray)):
        assert not np.isnan(value).any(), f"{call.__name__}{args} {kwargs}: nan"
    return value


def _library_calls(rng):
    def real():
        return rng.choice(X_REALS + X_ORDINARY)

    base_t = channel.TurbulenceParams(15.0, 10.0)
    base_g = channel.PointingGeometry.from_exponent(3.2233729130647513, 1.2, 0.1, 150.0)
    for _ in range(150):
        yield channel.TurbulenceParams, (real(), real()), {}
        yield channel.PointingGeometry, tuple(real() for _ in range(6)), {}
        yield channel.PointingGeometry.from_exponent, (real(), real(), real(), real()), {}
        yield channel.LinkConfig, (rng.choice(X_COUNTS), real(), real(), real()), {}
        yield channel.derive_turbulence, tuple(real() for _ in range(4)), {}
        # A channel with at most one fuzzed part, and its closed forms.
        t, g = base_t, base_g
        if rng.random() < 0.5:
            t = _accepted(channel.TurbulenceParams, real(), real()) or base_t
        else:
            g = _accepted(channel.PointingGeometry.from_exponent, real(), 1.2, 0.1, 150.0) or g
        n = rng.choice(X_COUNTS)
        yield channel.pdf_b, (rng.choice((real(), 5e-324, 1e-3, 0.05)), t, g), {}
        yield analytic.asymptotic_profile, (t, g, n), {}
        profile = _accepted(analytic.asymptotic_profile, t, g, rng.choice(X_COUNTS[:5]))
        if profile is not None:
            yield analytic.asymptotic_outage, (real(), profile, t, g, real()), {}
        ms = _accepted(analytic.moments, t, g, n)
        if ms is None:
            continue
        gb = rng.choice((real(), 1.0, 100.0))
        yield analytic.mgf, (real(), ms, gb), {}
        yield analytic.generalized_moment, (rng.choice(X_COUNTS), ms, gb), {}
        yield analytic.amount_of_fading, (rng.choice(X_COUNTS), ms, gb), {}
        yield analytic.outage_probability, (real(), ms, gb), {}
        yield analytic.average_ber, (real(), ms, gb), {}
        yield analytic.channel_capacity, (ms, gb), {}
        kind = rng.choice(analytic.METRIC_KINDS)
        yield analytic.oracle_metric, (kind, ms, gb), dict(
            gamma_th=real(), psi=real(), n=rng.choice(X_COUNTS[:5] + (-1, 1.5)), s=real())


@pytest.mark.parametrize("seed", SEEDS)
def test_library_gives_a_value_or_a_package_error(seed):
    failures = []
    for call, args, kwargs in _library_calls(random.Random(seed)):
        try:
            _accepted(call, *args, **kwargs)
        except AssertionError as exc:
            failures.append(str(exc))
    assert not failures, f"seed {seed}, {len(failures)} failures:\n" + "\n".join(failures[:10])


# Fixed cases: the defects the first fuzz found, each mended.

def test_underflowed_nu_is_a_one_line_config_error(tmp_path):
    # nu = sqrt(pi/2) a / w underflows to 0, which 1 / (2 nu) used to divide by.
    path = tmp_path / "nu.cfg"
    path.write_text("pointing.beam_width_cm = 1e9\npointing.aperture_radius_cm = 1e-320\n")
    for argv in (["validate", "--config", str(path)], ["sweep", "--config", str(path)]):
        code, out, err, caught = _run(argv)
        assert (code, out, caught) == (2, "", [])
        assert err.startswith("error: line 2: pointing: derived constant nu = 0 is not a "
                              "positive") and err.count("\n") == 1
    with pytest.raises(DomainError, match="nu = 0 is not a positive"):
        channel.PointingGeometry(1e-3, 0.0, 0.0, 150.0, 1e7, 1e-322)
    with pytest.raises(DomainError, match="nu = 0 is not a positive"):
        channel.PointingGeometry.from_exponent(1.0, 1e7, 1e-322, 150.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 2024])
def test_pointing_gain_past_the_float_range_is_zero_without_a_warning(tmp_path, seed):
    # c is about 4e-308, so e / c overflows for any exponential draw above
    # about 7; exp(-inf) = 0 is the exact gain, and every sample is in outage.
    path = tmp_path / "c.cfg"
    path.write_text("pointing.sigma_theta_mrad = 1e154\nmc.samples = 1000\n"
                    "sweep.metrics = outage\nlink.gamma_bar_db = 0,40\n")
    code, out, err, caught = _run(["sweep", "--config", str(path), "--seed", str(seed)])
    assert (code, err, caught) == (0, "", [])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 and all(float(row[cli.CSV_COLUMNS.index("mc_mean")]) == 1.0
                                  for row in rows)


@pytest.mark.parametrize("args", [
    dict(wavelength=1e-300),  # (2 pi / lambda)^(7/6) overflows
    dict(aperture_radius=1e300),  # (2 a)^2 overflows
    dict(cn2=5e-324, wavelength=1.0, path_length=1e-10),  # sigma_R^2 = 0: 1 / expm1(0)
    dict(cn2=1e-320),  # alpha and beta are inf
])
def test_derive_turbulence_out_of_float_range_is_a_domain_error(args):
    full = {**dict(cn2=5e-14, wavelength=1550e-9, path_length=300.0, aperture_radius=0.1),
            **args}
    with pytest.raises(DomainError):
        channel.derive_turbulence(**full)


@pytest.mark.parametrize("alpha,beta", [(math.inf, 10.0), (15.0, math.inf), (math.nan, 10.0),
                                        (0.0, 10.0), (-1.0, 10.0), (15.0, -1.0)])
def test_turbulence_shapes_must_be_positive_and_finite(alpha, beta):
    with pytest.raises(DomainError, match="alpha and beta must be positive and finite"):
        channel.TurbulenceParams(alpha, beta)


def test_pdf_b_past_the_float_range_or_the_kernel_order_is_a_domain_error():
    t = channel.TurbulenceParams(15.0, 10.0)
    g = channel.PointingGeometry.from_exponent(1e-3, 1.2, 0.1, 150.0)
    # The density grows like x^(c/2 - 1): at x = 1e-320 it is past 1e308.
    with pytest.raises(DomainError, match="past the float range"):
        channel.pdf_b(1e-320, t, g)
    # The Bessel K recurrence would take |alpha - beta| steps.
    with pytest.raises(DomainError, match=r"implemented for \|b2 - b3\| <= 1e4"):
        channel.pdf_b(1e-3, channel.TurbulenceParams(1e154, 2.0), g)
