"""Smoke runs of the experiment scripts and shipped configs, so an API
change cannot break them silently."""

import hashlib
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


#: sha256 of the CSV each shipped config writes.  A change to these bytes
#: must be explained to the last ulp before the value here is updated.
SHIPPED_CSV_SHA256 = {
    "quadratic_sweep.json":
        "1fd411bb6886b61961c30407401f404dc69d85a82d19ec65ac4b89c425bb0e9c",
    "dimension_sweep.json":
        "f11827fca1df22af5f1921297943616d563ec36c27aca8d0aebcf4855d893fb6",
}


def sweep_config(name, out):
    run("-m", "soco_lab", "sweep", "--config", str(ROOT / "configs" / name),
        "--out", str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_dimension_sweep_config_runs_without_failures(tmp_path):
    # d in {1, 2, 4, 8} for polyhedral p = 1 and non-convex ripple: every
    # row must be scored, in every dimension, and the CSV bytes stay fixed
    digest = sweep_config("dimension_sweep.json", tmp_path / "rows.csv")
    summary = json.loads((tmp_path / "rows.summary.json").read_text())
    assert summary["rows"] == 128 and summary["failures"] == 0, summary["errors"]
    assert digest == SHIPPED_CSV_SHA256["dimension_sweep.json"]


def test_quadratic_sweep_config_csv_is_byte_stable(tmp_path):
    digest = sweep_config("quadratic_sweep.json", tmp_path / "rows.csv")
    assert digest == SHIPPED_CSV_SHA256["quadratic_sweep.json"]
