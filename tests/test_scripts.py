"""Smoke runs of the experiment scripts under scripts/ at small sizes:
each must exit 0 and write its output files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (script, arguments, output option, files it writes relative to that output)
SCRIPTS = [
    ("circle_bandwidth_sweep", ["--train-n", "50", "--holdout-n", "50", "--grid-count", "3"],
     "sweep.csv", [""]),
    ("junk_derivative_curve", ["--n", "60", "--junk", "2", "--mtry", "1", "2", "--trees", "5"],
     "junk.csv", [""]),
    ("kernel_weight_curves", ["--weak", "5", "--trials", "200"], "weights.csv", [""]),
    ("leaf_count_vs_mtry", ["--n", "60", "--mtry", "1", "5", "--seeds", "2", "--trees", "2"],
     "leaves.csv", [""]),
    ("motivating_histograms", ["--train-n", "60", "--test-n", "60", "--trees", "5"],
     "motivating", ["histograms.csv", "voting_weights_mtry1.csv", "voting_weights_mtry30.csv"]),
    ("synthetic_rmse_table",
     ["--models", "xor", "--trees", "5", "--reps", "2", "--train-n", "60", "--test-n", "60"],
     "table", ["rmse_table.csv", "report_xor.json"]),
]


@pytest.mark.parametrize("script, args, out_name, files", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(tmp_path, script, args, out_name, files):
    out = tmp_path / out_name
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in files:
        path = out / name if name else out
        assert path.is_file() and path.stat().st_size > 0, path
