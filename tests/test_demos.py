"""Smoke test of the demos: each runs to exit 0 from a copy of the demos folder.

performance_metrics.py is left out for its run time: about 6.6 s on a 2-CPU
host, against about 1 s for the other two together.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"


def _run_demo(tmp_path, name):
    (tmp_path / "demos").mkdir(exist_ok=True)
    script = shutil.copy(DEMOS / name, tmp_path / "demos" / name)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_channel_statistics_runs(tmp_path):
    run = _run_demo(tmp_path, "channel_statistics.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout and not run.stderr


def test_figure_sweeps_rewrites_its_committed_output(tmp_path):
    run = _run_demo(tmp_path, "figure_sweeps.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout and not run.stderr
    written = tmp_path / "demos" / "output"
    committed = sorted(p.name for p in (DEMOS / "output").iterdir())
    assert sorted(p.name for p in written.iterdir()) == committed
    for name in committed:
        assert (written / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name
