"""Smoke runs of the experiment scripts and shipped configs, so an API
change cannot break them silently."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from soco_lab import (
    Polyhedral,
    RandomWalk,
    StronglyConvex,
    generate_oblivious_instance,
    instance_to_spec,
)

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def run_script(name, *args):
    run(str(ROOT / "scripts" / name), *args)


def test_sweep_prediction_window_script(tmp_path):
    run_script("sweep_prediction_window.py", "--seeds", "1",
               "--out", str(tmp_path / "rows.csv"))


def test_adversary_game_demo_script():
    run_script("adversary_game_demo.py", "--games", "2", "--T", "12")


#: sha256 of the CSV each shipped config writes, and of the summary JSON
#: written next to it.  A change to these bytes must be explained to the
#: last ulp before the value here is updated.
SHIPPED_CSV_SHA256 = {
    "quadratic_sweep.json":
        "1fd411bb6886b61961c30407401f404dc69d85a82d19ec65ac4b89c425bb0e9c",
    "dimension_sweep.json":
        "8e781447dc04717b48ebf137b7d2bc56bd69c33b3e5db32a1440d3d7a57c58c9",
}
SHIPPED_SUMMARY_SHA256 = {
    "quadratic_sweep.json":
        "e951342dea3938bc978a4c58dddeb80e8549ccbe4f2b3975e19392bbb8fd06d2",
    "dimension_sweep.json":
        "39792dba913a10221a9878366f524713b5255fd6462826a0d9d50d7d19f91af0",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def sweep_config(name, out):
    """(CSV sha256, summary sha256) of ``soco-lab sweep`` on a shipped config."""
    run("-m", "soco_lab", "sweep", "--config", str(ROOT / "configs" / name),
        "--out", str(out))
    return sha256(out.read_bytes()), sha256(out.with_suffix(".summary.json").read_bytes())


def test_dimension_sweep_config_runs_without_failures(tmp_path):
    # d in {1, 2, 4, 8} for polyhedral p = 1 and non-convex ripple: every
    # row must be scored, in every dimension, and the output bytes stay fixed
    digests = sweep_config("dimension_sweep.json", tmp_path / "rows.csv")
    summary = json.loads((tmp_path / "rows.summary.json").read_text())
    assert summary["rows"] == 128 and summary["failures"] == 0, summary["errors"]
    assert digests == (SHIPPED_CSV_SHA256["dimension_sweep.json"],
                       SHIPPED_SUMMARY_SHA256["dimension_sweep.json"])


def test_quadratic_sweep_config_csv_is_byte_stable(tmp_path):
    digests = sweep_config("quadratic_sweep.json", tmp_path / "rows.csv")
    assert digests == (SHIPPED_CSV_SHA256["quadratic_sweep.json"],
                       SHIPPED_SUMMARY_SHA256["quadratic_sweep.json"])


#: sha256 of ``soco-lab game --seeds 3 --T 20`` stdout (spike adversary,
#: rsfhc-b learner).
GAME_STDOUT_SHA256 = "549549af680022711c62e90f6b02e6f3d0dd6ff0564ca2c3f62118b27703435b"


def test_game_cli_output_is_byte_stable():
    stdout = run("-m", "soco_lab", "game", "--seeds", "3", "--T", "20")
    assert sha256(stdout.encode()) == GAME_STDOUT_SHA256


def oracle_instance_file(tmp_path, family):
    """A fixed generated 1-D instance: polyhedral p = 1 or quadratic."""
    params = Polyhedral(1.0, p=1) if family == "polyhedral" else StronglyConvex(2.0)
    inst = generate_oblivious_instance(params, RandomWalk(0.5), 4, 1,
                                       np.random.default_rng(11))
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(instance_to_spec(inst)))
    return path


RANGE = ("--grid-lo", "-3", "--grid-hi", "3", "--grid-n", "61")

#: sha256 of ``soco-lab oracle`` output per (family, method, lattice flags).
#: Every value but one was taken before the three oracle dispatchers became
#: ``offline_optimal``, so merging them moved no output.  The exception is
#: ``--grid-n 11`` with no range: it used to be ignored (the 201-point
#: answer came back) and now sizes the default lattice.
ORACLE_SHA256 = {
    ("polyhedral", "auto", ()):
        "aff3f9fe69265a510f897caf14713690924f670714c9823381c405de90658453",
    ("polyhedral", "grid", ()):
        "aff3f9fe69265a510f897caf14713690924f670714c9823381c405de90658453",
    ("polyhedral", "auto", RANGE):
        "a00e13153544ff95e7eaeb97a3910b0219b461ca4c0803b5f1a87f4bf437f8a6",
    ("polyhedral", "grid", RANGE):
        "a00e13153544ff95e7eaeb97a3910b0219b461ca4c0803b5f1a87f4bf437f8a6",
    ("polyhedral", "grid", ("--grid-n", "11")):
        "063a4231832e90012c39422f87c4c795a3d2261810d0ec10cb1f7d18b60a61ca",
    ("strongly_convex", "auto", ()):
        "05153d5e001f117e9468eedacb8cf6d43ba31e69da505261123f85df9755d9aa",
    ("strongly_convex", "grid", ()):
        "81752246a6c719b674de2170d1272461f472601bb73aa743a6fb669e2191a845",
    ("strongly_convex", "exact_quadratic", ()):
        "05153d5e001f117e9468eedacb8cf6d43ba31e69da505261123f85df9755d9aa",
    ("strongly_convex", "auto", RANGE):
        "05153d5e001f117e9468eedacb8cf6d43ba31e69da505261123f85df9755d9aa",
    ("strongly_convex", "grid", RANGE):
        "88700288582f4d75afee0046901d0ad4168b48874251780bb4a0b1908ad724bf",
    ("strongly_convex", "exact_quadratic", RANGE):
        "05153d5e001f117e9468eedacb8cf6d43ba31e69da505261123f85df9755d9aa",
}


def test_oracle_cli_output_is_byte_stable(tmp_path):
    digests = {}
    for family, method, flags in ORACLE_SHA256:
        out = tmp_path / "oracle.json"
        run("-m", "soco_lab", "oracle", "--instance",
            str(oracle_instance_file(tmp_path, family)), "--method", method,
            *flags, "--out", str(out))
        digests[family, method, flags] = sha256(out.read_bytes())
    assert digests == ORACLE_SHA256


#: Runs every start-up path the lab's short commands take, then prints the
#: scipy modules loaded.  scipy is a test-only dependency and no module of
#: the package imports it (``test_package_imports_no_scipy``); this probe
#: also catches a load through another package.
NO_SCIPY_PROBE = """
import contextlib, io, json, sys
from soco_lab.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code == 0, (argv, code, err.getvalue())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_short_commands_load_no_scipy(tmp_path):
    quad = oracle_instance_file(tmp_path, "strongly_convex")
    poly = oracle_instance_file(tmp_path, "polyhedral")
    commands = [
        ["sweep", "--config", str(ROOT / "configs" / name), "--out", str(tmp_path / name)]
        for name in ("quadratic_sweep.json", "dimension_sweep.json")]
    commands += [
        ["oracle", "--instance", str(quad)],
        ["oracle", "--instance", str(poly)],
        ["game", "--seeds", "2", "--T", "12"],
        ["reduce", "--mode", "epigraph", "--instance", str(poly)],
        ["verify-conditions", "--instance", str(quad), "--samples", "200"],
    ]
    stdout = run("-c", NO_SCIPY_PROBE, json.dumps(commands))
    assert json.loads(stdout.splitlines()[-1]) == []


def test_package_imports_no_scipy():
    # scipy is in the test extra only: every import statement of every
    # module of the package, at any depth, must name something else
    found = []
    for path in sorted((ROOT / "src" / "soco_lab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


FAMILY_PARAMS = {"Polyhedral", "StronglyConvex", "Glb", "Ripple"}


def test_family_facts_come_from_the_family_record():
    # outside families.py a module asks ``families.FAMILIES`` about a
    # family: no comparison of a ``.family_tag`` with a string, and no
    # isinstance against a family's parameter class
    found = []
    for path in sorted((ROOT / "src" / "soco_lab").rglob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                tagged = any(isinstance(x, ast.Attribute) and x.attr == "family_tag"
                             for x in operands)
                strings = [x for x in ast.walk(node)
                           if isinstance(x, ast.Constant) and isinstance(x.value, str)]
                if tagged and strings:
                    found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                names = {x.id if isinstance(x, ast.Name) else x.attr
                         for x in ast.walk(node.args[1])
                         if isinstance(x, (ast.Name, ast.Attribute))}
                if names & FAMILY_PARAMS:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
