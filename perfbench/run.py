"""risfso sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; risfso is imported from ./src. The
workloads, metric names, units and bounds are in BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off: set-up time of
a fresh process, the median warm pass, MC throughput, peak memory and the
share of complete and exact rows. --trace 1 alternates untraced and traced
passes and reports per-layer metrics from the spans plus per-call timings
of each layer (micro.py). Both check the sweep output and exit 1 when a
check fails. The last line of stdout is the JSON result; a full record
(seed, configs, resolved specs, environment, pass times, checks) and, for
traced runs, the spans go to .perfbench/.

PER_LAYER_MOVES below says which end-to-end metric and workload each
per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 7
MIN_PASSES = 3  # timed passes per run, however long they take
MIN_TRACED_PASSES = 2  # each of untraced and traced in a --trace 1 run
VALIDATE_REPEATS = 5
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

ORACLE_KINDS = ("outage", "ber_exactQ", "capacity", "moment")
PER_LAYER_MOVES = {
    "cli.validate_config.s": "setup_s, all workloads",
    "cli.run_sweep.self_s": "sweep_s on closed-form",
    "cli.emit.s": "sweep_s on closed-form",
    "cli.errors": "rows_complete_frac, all workloads",
    "montecarlo.estimate_grid.calls": "sweep_s on default-sweep and wide-surface",
    "montecarlo.estimate_grid.s": "sweep_s on default-sweep and wide-surface",
    "montecarlo.estimate_grid.self_s": "sweep_s on default-sweep and wide-surface",
    "montecarlo.blocks_drawn": "element_samples_per_s on default-sweep",
    "montecarlo.element_samples_drawn": "element_samples_per_s on default-sweep",
    "montecarlo.useful_draw_ratio": "element_samples_per_s on default-sweep",
    "montecarlo.block_ms.n128": "sweep_s on default-sweep",
    "montecarlo.block_ms.n4096": "sweep_s and peak_rss_mib on wide-surface",
    "montecarlo.errors": "rows_complete_frac on default-sweep and wide-surface",
    "channel.sample_aggregate.element_samples_per_s.n128": "element_samples_per_s on default-sweep",
    "channel.sample_aggregate.element_samples_per_s.n4096": "element_samples_per_s on wide-surface",
    "channel.sample_h_a.ns_per_sample": "sweep_s on default-sweep and wide-surface",
    "channel.sample_h_p.ns_per_sample": "sweep_s on default-sweep and wide-surface",
    "channel.pdf_b.s": "sweep_s on closed-form",
    "channel.pdf_b.us_per_point": "sweep_s on closed-form",
    "channel.errors": "rows_complete_frac on closed-form",
    "analytic.generalized_moment.s": "sweep_s on closed-form",
    "analytic.generalized_moment.calls": "sweep_s on closed-form",
    "analytic.errors": "rows_complete_frac and exact_form_ok_frac on closed-form",
    "numerics.parabolic_cylinder_d.s": "sweep_s on closed-form",
    "numerics.parabolic_cylinder_d.us": "sweep_s on closed-form",
    "numerics.meijer_g_1330.s": "sweep_s on closed-form",
    "numerics.meijer_g_1330.us": "sweep_s on closed-form",
    "numerics.errors": "rows_complete_frac on closed-form",
    "trace_overhead_frac": "none; the cost of the traced run itself",
    **{f"analytic.oracle_metric.{kind}.{stat}": "sweep_s on closed-form"
       for kind in ORACLE_KINDS for stat in ("s", "calls", "us")},
    **{f"analytic.{fn}.us": "sweep_s on closed-form"
       for fn in ("moments", "mgf", "outage_probability", "average_ber", "channel_capacity",
                  "generalized_moment", "amount_of_fading", "asymptotic_outage")},
}

# Per-pass values taken from the spans of traced passes: metric -> (span, stat).
SPAN_METRICS = {
    "cli.run_sweep.self_s": ("cli.run_sweep", "self_s"),
    "cli.emit.s": ("cli.emit", "s"),
    "montecarlo.estimate_grid.calls": ("montecarlo.estimate_grid", "calls"),
    "montecarlo.estimate_grid.s": ("montecarlo.estimate_grid", "s"),
    "montecarlo.estimate_grid.self_s": ("montecarlo.estimate_grid", "self_s"),
    "channel.pdf_b.s": ("channel.pdf_b", "s"),
    "analytic.generalized_moment.s": ("analytic.generalized_moment", "s"),
    "analytic.generalized_moment.calls": ("analytic.generalized_moment", "calls"),
    "numerics.parabolic_cylinder_d.s": ("numerics.parabolic_cylinder_d", "s"),
    "numerics.meijer_g_1330.s": ("numerics.meijer_g_1330", "s"),
    **{f"analytic.oracle_metric.{kind}.{stat}": (f"analytic.oracle_metric.{kind}", stat)
       for kind in ORACLE_KINDS for stat in ("s", "calls")},
}


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "risfso").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "thread_pool_env": {k: os.environ[k] for k in POOL_VARS},
    }


def setup_probe(config_path: Path) -> float:
    """Wall time of a fresh process that imports risfso and validates the config."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(config_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(probe, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)
    # A blocking wait ends when the child does; subprocess's own timeout
    # polls in 50 ms steps, which would quantize the time. The timer kills
    # a hung probe instead.
    killer = threading.Timer(120, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, probe)
    return elapsed


def tail_percentile(times: List[float]) -> Dict[str, float] | None:
    """Highest percentile above the median with at least ten passes beyond it."""
    n = len(times)
    if n <= 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(times)
    return {"percentile": pct, "s": ordered[math.ceil(pct / 100.0 * n) - 1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Only each workload's mc.workers may set the parallelism: pin the
    # native thread pools before numpy loads (child processes inherit
    # this), and drop the CLI's worker override.
    for var in POOL_VARS:
        os.environ[var] = "1"
    os.environ.pop("RISFSO_WORKERS", None)

    if not (SRC / "risfso" / "__init__.py").is_file():
        print(f"error: no risfso sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    from risfso import cli

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    config_path = stem.with_suffix(".cfg")
    config_text = workloads.write_config(workloads.config(args.workload, args.seed), str(config_path))
    spec = cli.validate_config(str(config_path))
    csv_path = str(stem.with_suffix(".csv"))
    record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "configs": {args.workload: config_text}, "resolved": {args.workload: spec.resolved()},
    }

    warm = workloads.run_pass(args.workload, spec, csv_path)
    oracles = checks.ReferenceOracles(spec)
    found = checks.table_checks(spec, warm.table.rows, oracles)
    if warm.pdf_b is not None:
        found += checks.pdf_checks(workloads.PDF_B_GRID, warm.pdf_b)

    if args.trace:
        metrics, attempted, failed = traced_run(args, spec, warm, csv_path, config_path,
                                                found, record)
    else:
        metrics, attempted, failed = untraced_run(args, spec, warm, csv_path, config_path,
                                                  oracles, found, record)

    record["checks"] = {name: {"ok": ok, "detail": detail} for name, ok, detail in found}
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": all(ok for _, ok, _ in found) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, ok, detail in found:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _repeat_passes(seconds, warm, run_one, between=None):
    """Call run_one while another typical pass fits in ``seconds``, and at
    least MIN_PASSES times.

    ``between(elapsed)`` runs before each pass, outside its timing.
    Returns the pass times, the passes attempted and the passes that failed:
    raised, or gave another CSV than the warm-up pass.
    """
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while (attempted < MIN_PASSES or time.perf_counter() - start
           + statistics.median(times or [warm.seconds]) <= seconds):
        if between:
            between(time.perf_counter() - start)
        attempted += 1
        try:
            pass_s, csv = run_one()
        except Exception as exc:  # a failing pass is counted, not fatal
            print(f"pass {attempted} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        if csv != warm.csv:
            failed += 1
        times.append(pass_s)
    return times, attempted, failed


def untraced_run(args, spec, warm, csv_path, config_path, oracles, found, record):
    import checks
    import workloads
    from risfso import cli

    # Set-up probes are spread over the run, between passes, so a passing
    # change in machine load touches few of them.
    setup: List[float] = []
    mc_times: List[float] = []
    mc_csvs: List[str] = []
    if not spec.include_mc:
        # The closed-form sweep draws no samples; its MC throughput is that
        # of an MC pass on the same channel, timed apart from sweep_s. One
        # such pass follows every sweep pass, so the median of both spans
        # the whole run.
        path = OUT / "mc-check.cfg"
        record["configs"]["mc-check"] = workloads.write_config(
            workloads.mc_check_config(args.seed), str(path))
        mspec = cli.validate_config(str(path))
        record["resolved"]["mc-check"] = mspec.resolved()

    def mc_pass():
        t0 = time.perf_counter()
        table = cli.run_sweep(mspec)
        mc_times.append(time.perf_counter() - t0)
        mc_csvs.append(cli.emit(table, "csv"))
        return table

    def between(elapsed):
        if len(setup) < SETUP_PROBES * elapsed / args.seconds:
            setup.append(setup_probe(config_path))
        if not spec.include_mc:
            mc_pass()

    def one():
        p = workloads.run_pass(args.workload, spec, csv_path)
        return p.seconds, p.csv

    times, attempted, failed = _repeat_passes(args.seconds, warm, one, between)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(config_path))
    sweep_s = statistics.median(times)

    rows = warm.table.rows
    failed_rows = checks.failed_rows(spec, rows)
    bad, exact_total = checks.exact_form_misses(rows, oracles)
    # MC work delivered to the table: one estimate per (N, metric) serves
    # every SNR point.
    delivered = sum(n * samples for n, _, samples in
                    {(r.n_elements, r.metric, r.n_samples) for r in rows if r.mc_mean is not None})

    if args.workload == "default-sweep":
        csvs = []
        for w in (1, 2):
            path = OUT / f"determinism-w{w}.cfg"
            record["configs"][path.stem] = workloads.write_config(
                workloads.determinism_config(args.seed, w), str(path))
            dspec = cli.validate_config(str(path))
            record["resolved"][path.stem] = dspec.resolved()
            csvs.append(cli.emit(cli.run_sweep(dspec), "csv"))
        found.append(("determinism_workers_1_2", csvs[0] == csvs[1],
                      "reduced default-sweep CSV byte-identical at workers=1 and 2"))

    if spec.include_mc:
        element_rate = delivered / sweep_s
    else:
        table = mc_pass()
        while len(mc_times) < MIN_PASSES:
            mc_pass()
        found += checks.table_checks(mspec, table.rows, checks.ReferenceOracles(mspec),
                                     prefix="mc_check.")
        found.append(("mc_check.repeatable", len(set(mc_csvs)) == 1,
                      f"all {len(mc_csvs)} MC check passes give the same CSV"))
        element_rate = mspec.mc_samples * sum(mspec.variants[0].n_list) / statistics.median(mc_times)
        record["mc_check_s"] = mc_times

    failed_frac = failed_rows / len(rows)
    exact_bad_frac = bad / exact_total if exact_total else 0.0
    record.update({
        "setup_s": setup, "pass_s": times, "sweep_s_tail": tail_percentile(times),
        "rows": len(rows), "failed_rows": failed_rows, "failed_frac": failed_frac,
        "exact_form_rows": exact_total, "exact_form_bad": bad,
        "exact_form_bad_frac": exact_bad_frac,
        "mc_element_samples_delivered_per_pass": delivered,
    })
    print(f"passes = {len(times)}; sweep_s tail: {record['sweep_s_tail']}")
    print(f"failed_frac = {failed_frac!r} frac ({failed_rows}/{len(rows)} rows)")
    print(f"exact_form_bad_frac = {exact_bad_frac!r} frac ({bad}/{exact_total} rows)")
    metrics = {
        "setup_s": statistics.median(setup),
        "sweep_s": sweep_s,
        "element_samples_per_s": element_rate,
        "peak_rss_mib": peak_rss_mib,
        "rows_complete_frac": 1.0 - failed_frac,
        "exact_form_ok_frac": 1.0 - exact_bad_frac,
    }
    return metrics, attempted, failed


def traced_run(args, spec, warm, csv_path, config_path, found, record):
    import micro
    import tracing
    import workloads
    from risfso import cli

    originals = tracing.snapshot()
    tracer = tracing.Tracer()
    untraced: List[float] = []
    traced: List[float] = []

    def one():
        if len(traced) < len(untraced):
            with tracer:
                p = workloads.run_pass(args.workload, spec, csv_path)
            traced.append(p.seconds)
        else:
            p = workloads.run_pass(args.workload, spec, csv_path)
            untraced.append(p.seconds)
        return p.seconds, p.csv

    # Alternate untraced and traced passes so drift hits both alike.
    _, attempted, failed = _repeat_passes(args.seconds, warm, one)
    while len(traced) < MIN_TRACED_PASSES or len(untraced) < MIN_TRACED_PASSES:
        attempted += 1
        _, csv = one()
        failed += csv != warm.csv
    found.append(("traced_csv_identical", failed == 0,
                  "every traced and untraced pass gives the warm-up pass's CSV"))
    passes = len(traced)

    validate_start = len(tracer.spans)
    with tracer:
        for _ in range(VALIDATE_REPEATS):
            cli.validate_config(str(config_path))
    validate_s = [s.end - s.start for s in tracer.spans[validate_start:]]
    found.append(("originals_restored", tracing.originals_restored(originals),
                  "every wrapped module attribute is the original object again"))

    per_name, errors = tracing.summarize(tracer.spans[:validate_start])
    metrics: Dict[str, float] = {"cli.validate_config.s": statistics.median(validate_s)}
    for metric, (span, stat) in SPAN_METRICS.items():
        metrics[metric] = per_name.get(span, {}).get(stat, 0) / passes
    for layer, count in errors.items():
        metrics[f"{layer}.errors"] = count / passes
    drawn = tracer.draws.element_samples / passes
    metrics["montecarlo.blocks_drawn"] = tracer.draws.blocks / passes
    metrics["montecarlo.element_samples_drawn"] = drawn
    # Nothing drawn means nothing wasted.
    metrics["montecarlo.useful_draw_ratio"] = sum(tracer.draws.distinct.values()) / drawn if drawn else 1.0
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    defaults_path = OUT / "micro-default.cfg"
    workloads.write_config({}, str(defaults_path))
    closed_path = OUT / "micro-closed-form.cfg"
    workloads.write_config(workloads.config("closed-form", args.seed), str(closed_path))
    metrics.update(micro.measure(cli.validate_config(str(defaults_path)),
                                 cli.validate_config(str(closed_path)), workloads.PDF_B_GRID))

    traced_mean = sum(traced) / passes
    share = metrics["montecarlo.estimate_grid.s"] / traced_mean
    print(f"traced passes = {passes}; untraced = {len(untraced)}; "
          f"estimate_grid share of traced sweep_s = {share:.4f}")
    tracer.write(str(Path(csv_path).with_suffix(".spans.csv")))
    record.update({"untraced_pass_s": untraced, "traced_pass_s": traced,
                   "estimate_grid_share": share, "moves": PER_LAYER_MOVES})
    return metrics, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
