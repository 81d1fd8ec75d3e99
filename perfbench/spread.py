"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
with BENCHMARK.json's run_seconds. For every metric it prints the median
and the quartile spread (Q3 - Q1 from statistics.quantiles(n=4), as a
share of the median) next to the metric's bound. --out writes every run's
result, pass times and checks, each workload's configs and resolved spec,
the environment, and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEPT = ("pass_s", "setup_s", "untraced_pass_s", "traced_pass_s", "checks",
        "failed_frac", "exact_form_bad_frac", "estimate_grid_share", "mc_check_s")


def seeds(text: str):
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["per_layer" if args.trace else "end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record_path = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{args.trace}.json"
            record = json.loads(record_path.read_text())
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "exit": proc.returncode, "result": result,
                         **{k: record[k] for k in KEPT if k in record}})
            out.setdefault("environment", record["environment"])
            print(f"{name} seed {seed}: exit {proc.returncode}, correct {result['correct']}",
                  flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            entry = {"median": med, "bound": bound}
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            summary[metric] = entry
            spread = entry.get("spread")
            flag = "  > bound/3" if None not in (bound, spread) and spread > bound / 3 else ""
            print(f"  {metric:>52} median {med:<14.6g} spread {spread}  bound {bound}{flag}")
        out["workloads"][name] = {"configs": record["configs"], "resolved": record["resolved"],
                                  "runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
