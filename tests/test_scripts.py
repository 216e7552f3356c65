"""Smoke runs of the experiment scripts and shipped configs, so an API
change cannot break them silently."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def run_script(name, *args):
    run(str(ROOT / "scripts" / name), *args)


def test_sweep_prediction_window_script(tmp_path):
    run_script("sweep_prediction_window.py", "--seeds", "1",
               "--out", str(tmp_path / "rows.csv"))


def test_adversary_game_demo_script():
    run_script("adversary_game_demo.py", "--games", "2", "--T", "12")


def test_dimension_sweep_config_runs_without_failures(tmp_path):
    # d in {1, 2, 4, 8} for polyhedral p = 1 and non-convex ripple: every
    # row must be scored, in every dimension
    run("-m", "soco_lab", "sweep", "--config",
        str(ROOT / "configs" / "dimension_sweep.json"), "--out", str(tmp_path / "rows.csv"))
    summary = json.loads((tmp_path / "rows.summary.json").read_text())
    assert summary["rows"] == 128 and summary["failures"] == 0, summary["errors"]
