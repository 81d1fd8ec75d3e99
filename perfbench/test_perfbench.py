"""Tests of the benchmark's own machinery, apart from the tier-1 suite.

    python3 -m pytest perfbench -q

Tracing must put every wrapped function back and must not change what a
sweep computes; spans must nest the way the calls do.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest

import run
import tracing
import workloads
from risfso import channel, cli, montecarlo

SMALL_CLOSED = {**workloads.config("closed-form", 1),
                "link.n_elements": "1,128", "link.gamma_bar_db": "0:40:20"}
SMALL_MC = workloads.determinism_config(1, workers=2)


def _spec(tmp_path, keys) -> cli.SweepSpec:
    path = tmp_path / "sweep.cfg"
    workloads.write_config(keys, str(path))
    return cli.validate_config(str(path))


def test_originals_restored_after_error():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert montecarlo.estimate_grid is not before[("montecarlo", "estimate_grid")]
            raise RuntimeError("inside the traced block")
    assert tracing.originals_restored(before)


@pytest.mark.parametrize("keys", [SMALL_CLOSED, SMALL_MC], ids=["closed-form", "mc"])
def test_traced_and_untraced_csv_identical(tmp_path, keys):
    spec = _spec(tmp_path, keys)
    plain = cli.emit(cli.run_sweep(spec), "csv")
    with tracing.Tracer() as tracer:
        traced = cli.emit(cli.run_sweep(spec), "csv")
    assert traced == plain
    assert tracer.spans


def test_spans_nest_through_module_namespace(tmp_path):
    mc = _spec(tmp_path, {**SMALL_MC, "mc.workers": 1})
    closed = _spec(tmp_path, SMALL_CLOSED)
    v = closed.variants[0]
    with tracing.Tracer() as tracer:
        cli.run_sweep(mc)
        cli.run_sweep(closed)
        channel.pdf_b(workloads.PDF_B_GRID[:2], v.turbulence, v.pointing)
    by_id = {s.id: s for s in tracer.spans}

    def parents(name):
        return {by_id[s.parent].name for s in tracer.spans if s.name == name}

    assert parents("montecarlo.estimate_grid") == {"cli.run_sweep"}
    assert "analytic.average_ber" in parents("analytic.mgf")
    assert parents("numerics.parabolic_cylinder_d") == {"analytic.generalized_moment"}
    assert parents("numerics.meijer_g_1330") == {"channel.pdf_b"}
    assert {s.name for s in tracer.spans if s.parent < 0} == {"cli.run_sweep", "channel.pdf_b"}


def test_self_time_excludes_children():
    spans = [
        tracing.Span(0, "cli.run_sweep", "cli", 0.0, 10.0, -1, False),
        tracing.Span(1, "analytic.mgf", "analytic", 1.0, 4.0, 0, False),
        tracing.Span(2, "analytic.mgf", "analytic", 5.0, 6.0, 0, True),
    ]
    per_name, errors = tracing.summarize(spans)
    assert per_name["cli.run_sweep"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert per_name["analytic.mgf"]["calls"] == 2
    assert errors == {"cli": 0, "montecarlo": 0, "channel": 0, "analytic": 1, "numerics": 0}


def test_draw_counter_counts_repeated_blocks_once_as_useful(tmp_path):
    v = _spec(tmp_path, SMALL_MC).variants[0]
    cfg = channel.LinkConfig(n_elements=16, gamma_bar=1.0)
    counter = tracing.DrawCounter()
    bind = inspect.signature(montecarlo.estimate_grid).bind
    for _ in range(3):  # the same 10000 samples requested three times
        counter(bind("outage", v.turbulence, v.pointing, cfg, [1.0], 10000, 7))
    assert counter.blocks == 3 * 3
    assert counter.element_samples == 3 * 10000 * 16
    assert sum(counter.distinct.values()) == 10000 * 16


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(run.PER_LAYER_MOVES)
    assert set(run.SPAN_METRICS) <= per_layer
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
