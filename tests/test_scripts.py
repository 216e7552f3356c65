"""Smoke runs of the experiment scripts, so an API change cannot break
them silently."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sweep_prediction_window_script(tmp_path):
    run_script("sweep_prediction_window.py", "--seeds", "1",
               "--out", str(tmp_path / "rows.csv"))


def test_adversary_game_demo_script():
    run_script("adversary_game_demo.py", "--games", "2", "--T", "12")
