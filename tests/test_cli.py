"""Tests for config validation, figure presets, sweeps, and emission."""

import csv
import dataclasses
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from risfso import analytic, channel, cli, montecarlo, numerics
from risfso.errors import ConfigError, DomainError


def write_config(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return str(path)


FAST_CONFIG = """
# minimal fast sweep
link.gamma_bar_db = 0:20:10
link.n_elements = 4
sweep.metrics = outage,ber
sweep.include_mc = false
"""


class TestValidateConfig:
    def test_empty_config_uses_defaults(self, tmp_path):
        spec = cli.validate_config(write_config(tmp_path, "\n"))
        assert spec.gamma_bar_db == tuple(float(v) for v in range(0, 42, 2))
        assert spec.metrics == ("outage", "ber", "capacity")
        assert spec.mc_samples == 100000 and spec.seed == 2024
        v = spec.variants[0]
        assert v.turbulence.alpha == 15.0 and v.turbulence.beta == 10.0
        assert v.pointing.sigma_theta == pytest.approx(1e-3)
        assert v.pointing.beam_width == pytest.approx(1.2)
        assert v.n_list == (128,)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        spec = cli.validate_config(
            write_config(tmp_path, "# comment\n\nlink.psi = 0.5  # inline\n")
        )
        assert spec.psi == 0.5

    def test_unit_violation_reports_line(self, tmp_path):
        path = write_config(tmp_path, "link.psi = 1.0\npointing.sigma_theta_mrad = -1\n")
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        items = exc.value.items
        assert any("line 2" in it and "sigma_theta_mrad" in it and "unit violation" in it
                   for it in items)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "pointing.sigma_theta_rad = 1\n")
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        assert any("unknown key" in it for it in exc.value.items)

    def test_multiple_errors_all_reported(self, tmp_path):
        path = write_config(
            tmp_path,
            "pointing.beam_width_cm = 0\nlink.gamma_bar_db = 10:0:2\nsweep.metrics = nope\n",
        )
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        assert len(exc.value.items) >= 3

    def test_grid_must_increase(self, tmp_path):
        path = write_config(tmp_path, "link.gamma_bar_db = 0,10,10\n")
        with pytest.raises(ConfigError) as exc:
            cli.validate_config(path)
        assert any("strictly increasing" in it for it in exc.value.items)

    def test_mc_sample_floor_only_when_mc_enabled(self, tmp_path):
        bad = write_config(tmp_path, "mc.samples = 10\n")
        with pytest.raises(ConfigError):
            cli.validate_config(bad)
        ok = write_config(tmp_path, "mc.samples = 10\nsweep.include_mc = false\n")
        assert cli.validate_config(ok).mc_samples == 10

    def test_exponent_override(self, tmp_path):
        path = write_config(tmp_path, "pointing.exponent_c = 0.5\n")
        spec = cli.validate_config(path)
        assert spec.variants[0].pointing.c == pytest.approx(0.5, rel=1e-12)


    def test_readme_config_block_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        values, sources = cli._parse(block.splitlines())
        assert set(sources) == set(cli._KEYS) - {"pointing.exponent_c"}
        assert values == cli.DEFAULTS


class TestFigurePresets:
    def test_capacity_preset_element_counts(self):
        spec = cli.figure_preset("fig2")
        assert spec.metrics == ("capacity",)
        assert spec.variants[0].n_list == (1, 16, 64, 128, 256)
        direct = spec.variants[1]
        assert direct.label == "direct"
        assert direct.pointing.distance_l1 == 0.0
        assert direct.pointing.sigma_beta == 0.0

    def test_outage_geometry_preset(self):
        spec = cli.figure_preset("fig3")
        labels = [v.label for v in spec.variants]
        assert labels == ["wz120_a10", "wz80_a10", "wz120_a20"]
        assert all(v.n_list == (128,) for v in spec.variants)

    def test_asymptotic_preset_parameters(self):
        spec = cli.figure_preset("fig4")
        v = spec.variants[0]
        assert v.turbulence.alpha == 6.5 and v.turbulence.beta == 6.0
        assert v.pointing.c == pytest.approx(0.5, rel=1e-12)
        assert v.n_list == (1, 2, 4)
        assert spec.include_asymptotic
        assert spec.gamma_bar_db[-1] == 80.0

    def test_ber_preset_variants(self):
        spec = cli.figure_preset("fig5")
        assert spec.metrics == ("ber",)
        labels = [v.label for v in spec.variants]
        assert labels == ["a15_b10_s1", "a15_b10_s2", "a6.5_b6_s1"]
        assert all(v.pointing.distance_l1 == 350.0 for v in spec.variants)

    def test_preset_is_its_config_file(self, tmp_path):
        path = write_config(tmp_path, (
            "sweep.metrics = outage\nsweep.include_asymptotic = true\n"
            "link.gamma_bar_db = 0:80:5\nlink.n_elements = 1,2,4\n"
            "pointing.exponent_c = 0.5\nturbulence.alpha = 6.5\nturbulence.beta = 6\n"
            "mc.samples = 10000\nmc.workers = 1\n"
        ))
        assert cli.figure_preset("fig4") == cli.validate_config(path)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            cli.figure_preset("fig9")


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "sweep.cfg"
    path.write_text(FAST_CONFIG)
    return cli.run_sweep(cli.validate_config(str(path)))


class TestRunSweepAndEmit:

    def test_row_grid(self, table):
        # 3 SNR points x 1 N x 2 metrics.
        assert len(table.rows) == 6
        assert {r.metric for r in table.rows} == {"outage", "ber"}

    def test_csv_header_contract(self, table):
        payload = cli.emit(table, "csv")
        header = payload.splitlines()[0]
        assert header == ",".join(cli.CSV_COLUMNS)
        parsed = list(csv.reader(io.StringIO(payload)))
        assert all(len(row) == len(cli.CSV_COLUMNS) for row in parsed)

    def test_csv_roundtrips_floats_exactly(self, table):
        payload = cli.emit(table, "csv")
        rows = list(csv.DictReader(io.StringIO(payload)))
        for parsed, row in zip(rows, table.rows):
            assert float(parsed["analytic"]) == row.analytic
            assert parsed["mc_mean"] == ""  # MC disabled

    def test_csv_cells_are_empty_or_the_repr(self, table):
        row = dataclasses.replace(table.rows[0], analytic=-0.0, asymptotic=float("nan"),
                                  mc_mean=float("inf"), mc_stderr=float("-inf"),
                                  oracle=5e-324, n_samples=None, seed=None)
        cells = next(csv.DictReader(io.StringIO(cli.emit(cli.Table([row], {}), "csv"))))
        assert cells == {**cells, "analytic": "-0.0", "asymptotic": "nan", "mc_mean": "inf",
                         "mc_stderr": "-inf", "oracle": "5e-324", "n_samples": "",
                         "seed": ""}

    def test_json_roundtrip(self, table):
        payload = cli.emit(table, "json")
        doc = json.loads(payload)
        assert doc["config"]["metrics"] == ["outage", "ber"]
        assert len(doc["rows"]) == len(table.rows)
        assert doc["rows"][0]["clamp_events"] == 0

    def test_clt_missing_mass_is_a_json_field(self, tmp_path):
        # Default channel: the Gaussian model of Z puts 17% of its mass below
        # zero at N = 1. References: mpmath ncdf(-m / delta).
        path = write_config(tmp_path, "link.n_elements = 1,128\nlink.gamma_bar_db = 0,10\n"
                            "sweep.include_mc = false\n")
        table = cli.run_sweep(cli.validate_config(path))
        want = {1: 0.17222471020651542, 128: 5.307791677501266e-27}
        for row in json.loads(cli.emit(table, "json"))["rows"]:
            assert row["clt_missing_mass"] == pytest.approx(want[row["n_elements"]], rel=1e-14)
        assert cli.emit(table, "csv").splitlines()[0] == (
            "gamma_bar_db,n_elements,metric,analytic,asymptotic,mc_mean,mc_stderr,oracle,"
            "n_samples,seed")

    def test_capacity_fit_window_is_a_json_field(self, tmp_path):
        # Default channel at N = 128: m = 0.0176, so the mean SNR m * gamma_bar
        # is 176 at 40 dB, inside the fit's window, and 1762 at 50 dB, past it.
        path = write_config(tmp_path, "link.gamma_bar_db = 40,50\n"
                            "sweep.metrics = outage,capacity\nsweep.include_mc = false\n")
        table = cli.run_sweep(cli.validate_config(path))
        got = {(r["metric"], r["gamma_bar_db"]): r["capacity_fit_window_exceeded"]
               for r in json.loads(cli.emit(table, "json"))["rows"]}
        assert got == {("capacity", 40.0): False, ("capacity", 50.0): True,
                       ("outage", 40.0): None, ("outage", 50.0): None}
        assert "capacity_fit_window_exceeded" not in cli.emit(table, "csv")

    def test_clamp_events_mark_the_capped_asymptote(self):
        spec = dataclasses.replace(cli.figure_preset("fig4"), include_mc=False)
        rows = cli.run_sweep(spec).rows
        assert all(r.clamp_events == int(r.asymptotic == 1.0) for r in rows)
        assert {r.clamp_events for r in rows} == {0, 1}

    def test_unknown_format_rejected(self, table):
        with pytest.raises(DomainError):
            cli.emit(table, "xml")

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError, match="table is empty"):
            cli.emit(cli.Table([], {}), "csv")

    def test_variant_label_in_metric_column(self):
        preset = cli.figure_preset("fig5", mc_samples=1000)
        spec = dataclasses.replace(preset, gamma_bar_db=(0.0,), include_mc=False)
        table = cli.run_sweep(spec)
        assert {r.metric for r in table.rows} == {
            "ber@a15_b10_s1", "ber@a15_b10_s2", "ber@a6.5_b6_s1"
        }

    @pytest.mark.parametrize("channel_keys", [
        "",  # the default channel: -m/delta = -60.5 at N = 4096
        "turbulence.alpha = 6.5\nturbulence.beta = 6.0\n",  # closed-form: -42.0
    ])
    def test_moments_and_af_complete_at_4096_elements(self, tmp_path, channel_keys):
        path = write_config(tmp_path, channel_keys + "sweep.metrics = af,moments\n"
                            "link.n_elements = 4096\nsweep.include_mc = false\n")
        spec = cli.validate_config(path)
        v = spec.variants[0]
        ms = analytic.moments(v.turbulence, v.pointing, 4096)
        rows = cli.run_sweep(spec).rows
        assert len(rows) == 2 * len(spec.gamma_bar_db)
        for row in rows:
            assert row.error is None
            # The truncation at 0 is past the float range: the Gaussian's own
            # relative variance and mean.
            want = (ms.delta_sq / ms.m ** 2 if row.metric == "af"
                    else channel.LinkConfig.db_to_linear(row.gamma_bar_db) * ms.m)
            assert row.analytic == pytest.approx(want, rel=1e-12)

    def test_oracle_is_one_call_per_kind_over_every_n(self, tmp_path, monkeypatch):
        # 3000 dB puts the SNR variance past the float range: that row's
        # oracle is its own error, and the 0 dB row has a one-SNR call's value.
        calls = []
        oracle = analytic.oracle_metric

        def counted(kind, ms, gamma_bar, **kw):
            calls.append((kind, [s.n_elements for s in ms], len(gamma_bar)))
            return oracle(kind, ms, gamma_bar, **kw)

        monkeypatch.setattr(analytic, "oracle_metric", counted)
        path = write_config(tmp_path, "link.gamma_bar_db = 0,3000\nlink.n_elements = 4,16\n"
                            "sweep.metrics = outage,capacity\nsweep.include_oracle = true\n"
                            "sweep.include_mc = false\n")
        spec = cli.validate_config(path)
        rows = cli.run_sweep(spec).rows
        assert calls == [("outage", [4, 16], 2), ("capacity", [4, 16], 2)]
        for row in rows:
            if row.gamma_bar_db == 3000.0:
                assert row.oracle is None and row.error == (
                    "oracle: SNR variance at gamma_bar = 1e+300 is out of float range")
            else:
                v = spec.variants[0]
                ms = analytic.moments(v.turbulence, v.pointing, row.n_elements)
                want, _ = oracle(row.metric, ms, 1.0, gamma_th=spec.gamma_th)
                assert row.error is None and row.oracle == want

    def test_closed_form_work_does_not_grow_with_the_snr_grid(self, tmp_path, monkeypatch):
        # Each closed form takes the whole SNR grid in one call, so the calls of
        # its kernels count channels, not cells: 5 and 10 SNRs make as many.
        def counts(grid):
            calls = {}
            for module, name in ((numerics, "parabolic_cylinder_d"), (analytic, "mgf"),
                                 (analytic, "asymptotic_outage")):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
            path = write_config(tmp_path, (
                f"link.gamma_bar_db = {grid}\nlink.n_elements = 4,128\n"
                "sweep.metrics = outage,ber,capacity,af,moments\n"
                "sweep.include_asymptotic = true\nsweep.include_mc = false\n"))
            rows = cli.run_sweep(cli.validate_config(path)).rows
            monkeypatch.undo()
            return calls, len(rows)

        (five, rows5), (ten, rows10) = counts("0:40:10"), counts("0:45:5")
        assert (rows5, rows10) == (5 * 2 * 5, 10 * 2 * 5)
        assert five == ten
        assert set(five) == {"parabolic_cylinder_d", "mgf", "asymptotic_outage"}

    def test_multi_variant_rows_read_their_own_cells(self, monkeypatch):
        # fig3's three channels share one oracle call per kind; each row's
        # oracle is its own channel's standalone call, and each af row the
        # closed form at its own SNR, evaluated once per channel and N.
        calls = []
        af = analytic.amount_of_fading

        def counted(n, ms, gamma_bar):
            calls.append(ms.m)
            return af(n, ms, gamma_bar)

        monkeypatch.setattr(analytic, "amount_of_fading", counted)
        spec = cli._sweep(cli._preset("fig3"), [
            ("test", "link.gamma_bar_db = 0,15,30"), ("test", "link.n_elements = 16,128"),
            ("test", "sweep.metrics = outage,af,moments"), ("test", "sweep.include_oracle = true"),
            ("test", "sweep.include_mc = false")])
        rows = cli.run_sweep(spec).rows
        assert len(rows) == 3 * 2 * 3 * 3 and len(calls) == 3 * 2
        kinds = {"outage": "outage", "moments": "moment"}
        channels = {v.label: v for v in spec.variants}
        for row in rows:
            metric, label = row.metric.split("@")
            v = channels[label]
            ms = analytic.moments(v.turbulence, v.pointing, row.n_elements)
            gb = channel.LinkConfig.db_to_linear(row.gamma_bar_db)
            assert row.error is None
            if metric == "af":
                assert row.oracle is None and row.analytic == af(2, ms, gb)
            else:
                want, _ = analytic.oracle_metric(kinds[metric], ms, gb, gamma_th=spec.gamma_th)
                assert row.oracle == want

    def test_each_block_drawn_once_for_all_metrics(self, tmp_path, monkeypatch):
        streams, block_of = [], {}
        sample, stream = channel.sample_aggregate, channel.random_stream

        def labelled(seed, stream_id=0):
            rng = stream(seed, stream_id)
            block_of[rng] = stream_id
            return rng

        def counted(t, g, cfg, rng, size):
            streams.append((cfg.n_elements, block_of[rng]))
            return sample(t, g, cfg, rng, size)

        monkeypatch.setattr(channel, "random_stream", labelled)
        monkeypatch.setattr(channel, "sample_aggregate", counted)
        path = write_config(tmp_path, "link.gamma_bar_db = 0,10\nlink.n_elements = 4,16\n"
                            "sweep.metrics = outage,ber,capacity\nmc.samples = 10000\n"
                            "mc.workers = 1\n")
        table = cli.run_sweep(cli.validate_config(path))
        # 3 blocks per N, each drawn once and evaluated for all three metrics.
        assert streams == [(4, 0), (4, 1), (4, 2), (16, 0), (16, 1), (16, 2)]
        assert all(r.n_samples == 10_000 for r in table.rows)


class TestMainEntry:
    def test_validate_ok_prints_resolved_spec(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_CONFIG)
        assert cli.main(["validate", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"] == ["outage", "ber"]

    def test_module_runs_as_a_script(self, tmp_path, capsys, monkeypatch):
        # python -m risfso.cli: a fresh copy of the module runs as __main__.
        path = write_config(tmp_path, FAST_CONFIG)
        monkeypatch.setattr(sys, "argv", ["risfso", "validate", "--config", path])
        monkeypatch.delitem(sys.modules, "risfso.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("risfso.cli", run_name="__main__")
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["metrics"] == ["outage", "ber"]

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "pointing.beam_width_cm = -5\n")
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "beam_width_cm" in err

    @pytest.mark.parametrize("line", [
        "mc.seed = abc",
        "mc.workers = abc",
        "link.gamma_th_db = abc",
        "mc.seed = -1",
        "pointing.l2_m = inf",
        "link.gamma_bar_db = nan",
        "link.gamma_bar_db = 0:1e400:1",
        "link.gamma_bar_db = 0:40:0.0000001",
        "sweep.include_mc = maybe",
        "mc.seed = 1.5",
        "turbulence.cn2 = 1e-14",
        "link.gamma_th_db = nan",
        "turbulence.alpha = inf",
        "link.gamma_bar_db = 0,inf",
        "mc.workers = -3",
        "mc.workers = 0",
        "sweep.metrics = outage,outage",
        "link.gamma_bar_db = 0:40",
        "link.gamma_bar_db = 0:40:-2",
        "sweep.metrics = ,",
    ])
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_bad_value_is_one_diagnostic(self, tmp_path, capsys, command, line):
        path = write_config(tmp_path, f"link.n_elements = 4\n{line}\n")
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: line 2: {line.split(' = ')[0]}: ")

    @pytest.mark.parametrize("line, message", [
        ("link.gamma_bar_db = 0:40", "link.gamma_bar_db: expected start:stop:step, got '0:40'"),
        ("link.gamma_bar_db = 0:40:-2",
         "link.gamma_bar_db: grid step must be positive, got '0:40:-2'"),
        ("sweep.metrics = ,", "sweep.metrics: metric list is empty"),
        ("link.psi", "expected 'key = value', got 'link.psi'"),
    ])
    def test_diagnostic_text(self, tmp_path, capsys, line, message):
        path = write_config(tmp_path, f"link.n_elements = 4\n{line}\n")
        assert cli.main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"

    @pytest.mark.parametrize("value", [
        "0", "1e-300", "-1e-300", "1e-30", "1e30", "1e300", "-1e300", "5000", "-5000",
        "1600", "3000", "-1600", "-3000", "-3200",
    ])
    @pytest.mark.parametrize("key", [
        "turbulence.alpha", "turbulence.beta", "pointing.sigma_theta_mrad",
        "pointing.sigma_beta_mrad", "pointing.beam_width_cm", "pointing.aperture_radius_cm",
        "pointing.l1_m", "pointing.l2_m", "pointing.exponent_c", "link.gamma_bar_db",
        "link.gamma_th_db", "link.psi",
    ])
    def test_extreme_value_is_a_result_or_one_diagnostic(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, (
            "link.gamma_bar_db = 0,40\nlink.n_elements = 1,128\n"
            "sweep.metrics = outage,ber,capacity,af,moments\nsweep.include_oracle = true\n"
            f"sweep.include_asymptotic = true\nsweep.include_mc = false\n{key} = {value}\n"
        ))
        code = cli.main(["sweep", "--config", path])
        err = capsys.readouterr().err
        if code != 0:
            assert code == 2
            assert err.startswith("error: line 7: ") and err.count("\n") == 1

    def test_mc_stderr_past_float_range_is_a_row_error(self, tmp_path, capsys):
        path = write_config(tmp_path, (
            "link.gamma_bar_db = 3000\nlink.n_elements = 4\n"
            "sweep.metrics = outage,ber,capacity,moments\nmc.samples = 1000\nmc.workers = 1\n"
        ))
        assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
        rows = {r["metric"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["moments"]["mc_stderr"] is None
        assert rows["moments"]["error"].startswith("mc: ")
        assert all(rows[m]["mc_stderr"] is not None for m in ("outage", "ber", "capacity"))

    HIGH_PSI = ("link.psi = 3000\nlink.gamma_bar_db = 40\nlink.n_elements = 128\n"
                "sweep.metrics = ber\nsweep.include_oracle = true\nsweep.include_mc = false\n")

    def test_high_psi_oracle_converges(self, tmp_path, capsys):
        # At psi = 3000, 40 dB, N = 128 the exact-Q integrand is a spike of width
        # about 1/psi at 0 SNR, far below the density mode; in sqrt(SNR) it is
        # smooth. 50-digit mpmath of Craig's form reads the same within 2e-16.
        path = write_config(tmp_path, self.HIGH_PSI)
        assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["error"] is None
        assert row["oracle"] == pytest.approx(2.8970217374e-31, rel=1e-10, abs=0.0)

    def test_oracle_that_does_not_converge_is_a_row_error(self, tmp_path, capsys, monkeypatch):
        # The cell starts with 4 panels, split at mu - 8 sigma, mu and mu + 8
        # sigma, and needs more; with no more allowed it cannot converge.
        monkeypatch.setattr(numerics, "QK21_LIMIT", 4)
        path = write_config(tmp_path, self.HIGH_PSI)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        (row,) = json.loads(out)["rows"]
        assert row["analytic"] is not None and row["oracle"] is None
        assert row["error"] == ("oracle: ber_exactQ quadrature at gamma_bar = 10000: 4 panels "
                                "do not reach the relative tolerance 1e-10")
        assert err == "" and caught == []

    def test_closed_form_error_is_a_row_error(self, tmp_path, capsys, monkeypatch):
        def fail(n, ms, gamma_bar):
            raise DomainError("boom")

        monkeypatch.setattr(analytic, "amount_of_fading", fail)
        path = write_config(tmp_path, (
            "link.gamma_bar_db = 0,10\nlink.n_elements = 4\nsweep.metrics = outage,af\n"
            "mc.samples = 1000\nmc.workers = 1\n"
        ))
        assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        af = [r for r in rows if r["metric"] == "af"]
        outage = [r for r in rows if r["metric"] == "outage"]
        assert len(af) == len(outage) == 2
        assert all(r["analytic"] is None and r["error"] == "boom" for r in af)
        assert all(r["error"] is None and None not in (r["analytic"], r["mc_mean"], r["mc_stderr"])
                   for r in outage)

    @pytest.mark.parametrize("db, metrics, samples", [
        (3075, "moments", 12288),
        (3080, "outage,ber,capacity,moments", 10000),
    ])
    def test_mc_mean_past_float_range_is_a_row_error(self, tmp_path, capsys, db, metrics,
                                                     samples):
        path = write_config(tmp_path, (
            f"link.gamma_bar_db = {db}\nlink.n_elements = 4\nsweep.metrics = {metrics}\n"
            f"mc.samples = {samples}\nmc.workers = 1\n"
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "--config", path, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and caught == []

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rows = {r["metric"]: r for r in json.loads(out, parse_constant=reject)["rows"]}
        assert rows["moments"]["error"].startswith("mc: ")
        assert rows["moments"]["mc_mean"] is None and rows["moments"]["mc_stderr"] is None

    @pytest.mark.parametrize("args, prefix", [
        (["validate", "--config", "{missing}"], "cannot read config: "),
        (["sweep", "--config", "{config}", "--seed", "-1"], "--seed: mc.seed: "),
        (["sweep", "--config", "{config}", "--workers", "-2"], "--workers: mc.workers: "),
        (["sweep", "--config", "{config}", "--workers", "0"], "--workers: mc.workers: "),
        (["figure", "fig4", "--mc-samples", "5"], "--mc-samples: mc.samples: "),
        (["figure", "fig4", "--workers", "0"], "--workers: mc.workers: "),
        (["figure", "fig4", "--seed", "x"], "--seed: mc.seed: "),
        (["sweep", "--config", "{config}", "--seed", "7#8"], "--seed: mc.seed: "),
        (["sweep", "--config", "{config}", "--out", "{missing_dir}"], "--out: "),
        (["sweep", "--config", "{config}", "--out", "{directory}"], "--out: "),
    ], ids=["missing-config", "negative-seed", "negative-workers", "zero-workers", "few-samples",
            "figure-zero-workers", "figure-bad-seed", "seed-with-hash", "out-missing-dir",
            "out-directory"])
    def test_bad_flag_is_one_diagnostic(self, tmp_path, capsys, monkeypatch, args, prefix):
        def run_sweep(spec):
            raise AssertionError("the sweep ran before the flags were checked")

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        names = {"missing": tmp_path / "missing.cfg", "config": write_config(tmp_path, FAST_CONFIG),
                 "missing_dir": tmp_path / "missing" / "rows.csv", "directory": tmp_path}
        assert cli.main([a.format(**names) for a in args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {prefix}")
        assert args[-2] in err or "missing.cfg" in err

    def test_out_write_error_after_the_sweep_is_one_diagnostic(self, tmp_path, capsys,
                                                               monkeypatch):
        out_path = tmp_path / "rows.csv"
        sweep = cli.run_sweep

        def run_sweep(spec):
            # The path passed its check; make it a directory before the write.
            out_path.unlink(missing_ok=True)
            out_path.mkdir()
            return sweep(spec)

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        path = write_config(tmp_path, FAST_CONFIG)
        assert cli.main(["sweep", "--config", path, "--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: --out: ")

    def test_flags_are_entries_after_the_config(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_CONFIG + "mc.seed = 5\nmc.workers = 1\n")
        assert cli.main(["sweep", "--config", path, "--seed", "7", "--workers", "2",
                         "--format", "json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["seed"], config["workers"]) == (7, 2)

    def test_zero_jitter_config_is_a_diagnostic(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "link.n_elements = 4\npointing.sigma_theta_mrad = 0\npointing.sigma_beta_mrad = 0\n",
        )
        assert cli.main(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: line 3: pointing: ")
        assert "jitter" in err

    def test_sweep_stdout_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_CONFIG)
        assert cli.main(["sweep", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(cli.CSV_COLUMNS)

    def test_sweep_deterministic_across_runs(self, tmp_path, capsys):
        cfg = FAST_CONFIG.replace("include_mc = false", "include_mc = true")
        cfg += "mc.samples = 2000\n"
        path = write_config(tmp_path, cfg)
        outputs = []
        for _ in range(2):
            assert cli.main(["sweep", "--config", path, "--seed", "99"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_workers_invisible_in_output(self, tmp_path, capsys, monkeypatch):
        # Eight usable CPUs, so that the 8-worker run spreads its three blocks
        # over the thread pool on any host.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        cfg = FAST_CONFIG.replace("include_mc = false", "include_mc = true")
        cfg += "mc.samples = 12288\n"
        path = write_config(tmp_path, cfg)
        outputs = []
        for w in ("1", "8"):
            assert cli.main(["sweep", "--config", path, "--workers", w]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_writes_file(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_CONFIG)
        out_path = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out_path)]) == 0
        assert out_path.read_text().splitlines()[0] == ",".join(cli.CSV_COLUMNS)
        assert "wrote" in capsys.readouterr().out

    def test_figure_preset_runs(self, capsys):
        assert cli.main(
            ["figure", "fig4", "--mc-samples", "1000", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        # Asymptote column filled for the outage sweep.
        filled = [r for r in doc["rows"] if r["asymptotic"] is not None]
        assert filled and all(r["metric"] == "outage" for r in filled)


# Run in a fresh interpreter, so sys.modules holds only what risfso loads.
FRESH_PROCESS = """
import json, sys
import risfso
bare = sorted(m for m in sys.modules if m.startswith("risfso."))
from risfso import analytic, channel, cli
spec = cli.validate_config(sys.argv[1])
table = cli.run_sweep(spec)
cli.emit(table, "csv")
cli.emit(table, "json")
v = spec.variants[0]
value, _ = analytic.oracle_metric("capacity", analytic.moments(v.turbulence, v.pointing, 4), 1.0)
channel.pdf_b(0.01, v.turbulence, v.pointing)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
futures = "concurrent.futures" in sys.modules
print(json.dumps({"bare": bare, "scipy": scipy, "value": value, "futures": futures}))
"""


@pytest.fixture(scope="module")
def fresh_process(tmp_path_factory):
    """(sys.modules report of FRESH_PROCESS, its config path) for an MC sweep
    of outage, ber and capacity with the asymptote."""
    path = write_config(tmp_path_factory.mktemp("fresh"),
                        "link.gamma_bar_db = 0,10\nlink.n_elements = 4\n"
                        "sweep.metrics = outage,ber,capacity\nsweep.include_asymptotic = true\n"
                        "mc.samples = 1000\nmc.workers = 1\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS, path], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout), path


def test_package_import_loads_no_module(fresh_process):
    # risfso re-exports nothing; each caller imports the module it uses.
    got, _ = fresh_process
    assert got["bare"] == []


def test_no_scipy_module_loads_in_a_sweep_the_oracle_or_pdf_b(fresh_process):
    # The special functions of the closed forms, the asymptote, Monte Carlo, the
    # oracle (a Gauss-Kronrod rule) and pdf_b (the same rule over a Bessel K)
    # are the package's own or the stdlib's.
    got, path = fresh_process
    assert got["scipy"] == []
    v = cli.validate_config(path).variants[0]
    want, _ = analytic.oracle_metric("capacity", analytic.moments(v.turbulence, v.pointing, 4), 1.0)
    assert got["value"] == want


def test_one_worker_sweep_loads_no_pool_module(fresh_process):
    # At mc.workers = 1 the calling thread draws every block, so the sweep
    # never imports concurrent.futures.
    got, _ = fresh_process
    assert got["futures"] is False
