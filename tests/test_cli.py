import json

import numpy as np
import pytest

from soco_lab import default_grid, instance_to_spec, make_polyhedral, make_strongly_convex
from soco_lab.cli import build_parser, main
from soco_lab.reductions import cbc_to_spec, CbcInstance, interval
from soco_lab.model import movement_cost


@pytest.fixture
def quad_instance_file(tmp_path):
    inst = make_strongly_convex(2.0, [[1.0], [0.5], [1.5]], start=[0.0])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_spec(inst)))
    return path


@pytest.fixture
def config_file(tmp_path):
    config = {
        "instances": [{"id": "demo",
                       "generate": {"family": "strongly_convex",
                                    "params": {"m": 2.0},
                                    "path": {"model": "random_walk", "step": 0.5},
                                    "T": 8, "d": 1}}],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": [2, 4]}],
        "seeds": [1, 2],
        "checks": ["greedy_bound", "prediction_bound"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_cli_run_exit_zero_and_csv(config_file, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["run", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance_id,algorithm,w,seed,cost")
    assert len(lines) == 1 + 2 + 4  # header + greedy rows + dsfhc rows


def test_cli_run_master_seed_override(config_file, tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["run", "--config", str(config_file), "--out", str(out1),
                 "--seed", "99"]) == 0
    assert main(["run", "--config", str(config_file), "--out", str(out2),
                 "--seed", "99"]) == 0
    assert out1.read_text() == out2.read_text()
    out3 = tmp_path / "s3.csv"
    assert main(["run", "--config", str(config_file), "--out", str(out3),
                 "--seed", "100"]) == 0
    assert out3.read_text() != out1.read_text()


def test_cli_run_json_format(config_file, tmp_path):
    out = tmp_path / "rows.json"
    code = main(["run", "--config", str(config_file), "--out", str(out),
                 "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    assert all(row["within_bound"] for row in rows)


def test_cli_sweep_reproducible(config_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.summary.json").exists()


def test_cli_run_nonzero_on_failure(tmp_path):
    config = {"instances": [{"id": "bad",
                             "generate": {"family": "strongly_convex",
                                          "params": {"m": -2.0}, "T": 4, "d": 1}}],
              "algorithms": [{"name": "greedy"}], "seeds": [1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 1


@pytest.mark.parametrize("edit", [
    lambda c: c.update(check=c.pop("checks")),          # used to run no check
    lambda c: c.update(algorithm=c.pop("algorithms")),  # used to give 0 rows
    lambda c: c["algorithms"][1].update(window=c["algorithms"][1].pop("w")),  # w = 1
])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_config_error_exits_two_on_one_line(config_file, tmp_path, capsys,
                                                command, edit):
    config = json.loads(config_file.read_text())
    edit(config)
    config_file.write_text(json.dumps(config))
    assert main([command, "--config", str(config_file),
                 "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("soco-lab: error: ") and "unknown key" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("text", ["{nope", "[]", None])   # None: no file
def test_cli_unreadable_config_exits_two(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"soco-lab: error: {path}: ") and err.count("\n") == 1


def _broken_instance(tmp_path, edit):
    spec = instance_to_spec(make_polyhedral(1.0, [[1.0], [0.0]], p=1, start=[0.0]))
    edit(spec)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec))
    return path


BROKEN_INSTANCES = [
    (lambda spec: spec.pop("x0"), "missing required key 'x0' in instance"),
    (lambda spec: spec["hitting"]["params"].update(alfa=spec["hitting"]["params"].pop("alpha")),
     "unknown key 'alfa' in instance.hitting.params"),
]


@pytest.mark.parametrize("edit, reason", BROKEN_INSTANCES)
@pytest.mark.parametrize("command", [["oracle"], ["reduce", "--mode", "epigraph"],
                                     ["verify-conditions", "--samples", "10"]])
def test_cli_broken_instance_exits_two_on_one_line(tmp_path, capsys, command, edit, reason):
    path = _broken_instance(tmp_path, edit)
    assert main(command + ["--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"soco-lab: error: {path}: {reason}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_broken_chasing_instance_exits_two_on_one_line(tmp_path, capsys):
    path = tmp_path / "cbc.json"
    path.write_text(json.dumps({"dim": 1, "start": [0.0]}))
    assert main(["reduce", "--mode", "duplicate", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"soco-lab: error: {path}: missing key 'bodies'\n"


@pytest.mark.parametrize("edit, reason", BROKEN_INSTANCES)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_broken_inline_instance_is_a_config_error(tmp_path, capsys, command, edit,
                                                      reason):
    # an inline instance is checked when the config is read, not per row
    spec = json.loads(_broken_instance(tmp_path, edit).read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"instances": [{"id": "inline", "instance": spec}],
                                "algorithms": [{"name": "greedy"}]}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "rows.csv")]) == 2
    reason = reason.replace("in instance", "in instances[0].instance")
    err = capsys.readouterr().err
    assert err.startswith(f"soco-lab: error: {path}: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "rows.csv").exists()


def test_cli_oracle(quad_instance_file, tmp_path, capsys):
    code = main(["oracle", "--instance", str(quad_instance_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exact_quadratic"
    assert len(payload["trajectory"]) == 3
    code = main(["oracle", "--instance", str(quad_instance_file),
                 "--method", "grid", "--grid-lo", "-2", "--grid-hi", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["method"] == "grid_dp"


def test_cli_oracle_grid_n_alone_sizes_default_lattice(tmp_path, capsys):
    # --grid-n without a range used to be dropped: the 201-point answer came back
    inst = make_polyhedral(1.0, [[-0.063], [0.549], [0.294], [0.145]], p=1,
                           start=[0.0])
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(instance_to_spec(inst)))
    assert main(["oracle", "--instance", str(path), "--method", "grid",
                 "--grid-n", "11"]) == 0
    points = np.array(json.loads(capsys.readouterr().out)["trajectory"])
    axis = default_grid(inst, 11).axes()[0]
    assert np.isin(points, axis).all()


@pytest.mark.parametrize("flag", ["--grid-lo", "--grid-hi"])
def test_cli_oracle_rejects_half_grid_range(quad_instance_file, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--instance", str(quad_instance_file), "--method", "grid",
              flag, "0.2"])
    assert exc.value.code == 2
    assert "--grid-lo and --grid-hi must be given together" in capsys.readouterr().err


def test_cli_reduce_duplicate(tmp_path, capsys):
    inst = CbcInstance(1, np.zeros(1), (interval(0, 1), interval(1, 2)),
                       movement_cost("norm_l1"))
    path = tmp_path / "cbc.json"
    path.write_text(json.dumps(cbc_to_spec(inst)))
    code = main(["reduce", "--mode", "duplicate", "--instance", str(path),
                 "--w", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["bodies"]) == 6


def test_cli_reduce_epigraph(tmp_path, capsys):
    inst = make_polyhedral(1.0, [[1.0], [0.0]], p=1, start=[0.0])
    path = tmp_path / "soco.json"
    path.write_text(json.dumps(instance_to_spec(inst)))
    code = main(["reduce", "--mode", "epigraph", "--instance", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [b["variant"] for b in payload["bodies"]] == \
        ["epigraph", "zero_plane", "epigraph", "zero_plane"]
    assert payload["start"] == [0.0, 0.0]


def test_cli_verify_conditions(quad_instance_file, capsys):
    code = main(["verify-conditions", "--instance", str(quad_instance_file),
                 "--samples", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "consistent" in out and "lam_hat" in out


def test_cli_game_oblivious(tmp_path, capsys):
    code = main(["game", "--adversary", "oblivious", "--learner", "greedy",
                 "--w", "3", "--T", "12", "--seeds", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["games"] == 3
    assert payload["mean_learner_cost"] >= 0


def test_module_entrypoint_runs(tmp_path, config_file):
    import subprocess
    import sys

    out = tmp_path / "rows.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "soco_lab", "run", "--config", str(config_file),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("instance_id,algorithm")


def test_cli_game_has_no_bins_flag(capsys):
    # the spike adversary quantizes with the game's own 241-point lattice
    with pytest.raises(SystemExit) as exc:
        main(["game", "--bins", "11"])
    assert exc.value.code == 2


def test_cli_game_spike_bound(capsys):
    code = main(["game", "--adversary", "spike", "--learner", "rsfhc-b",
                 "--w", "6", "--T", "30", "--seeds", "10"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_learner_cost"] <= 2.0 * payload["mean_adversary_cost"]


def test_parser_is_built_once_and_parses_alike(capsys):
    # the parser is cached; a parse, or a usage error, leaves it as it was
    assert build_parser() is build_parser()
    argv = ["run", "--config", "c.json", "--seed", "3"]
    first = vars(build_parser().parse_args(argv))
    for bad in (["sweep", "--config", "c.json"], ["run", "--format", "xml"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: soco-lab")
    assert vars(build_parser().parse_args(argv)) == first
    assert first["seed"] == 3 and first["out"] is None and first["format"] == "csv"
    assert vars(build_parser().parse_args(["sweep", "--config", "c", "--out", "o"]))[
        "format"] == "csv"


# (command, reason): a flag value out of its range; each used to print a
# traceback and exit 1, except --seeds 0, which printed NaN, and --m 0,
# which played an all-zero game, both exiting 0
BAD_FLAGS = [
    (["oracle", "--grid-n", "1"], "--grid-n must be at least 2, not 1"),
    (["oracle", "--grid-lo", "1", "--grid-hi", "1"], "--grid-lo must be below --grid-hi"),
    (["oracle", "--grid-lo", "2", "--grid-hi", "-2"], "--grid-lo must be below --grid-hi"),
    (["oracle", "--grid-lo", "0.7", "--grid-hi", "3"],
     "--grid-lo and --grid-hi must cover the start point and every minimizer: "
     "point coordinate 0.0 outside grid range [0.7, 3.0]"),
    (["oracle", "--method", "grid", "--grid-lo", "-2", "--grid-hi", "1.2"],
     "--grid-lo and --grid-hi must cover the start point and every minimizer: "
     "point coordinate 1.5 outside grid range [-2.0, 1.2]"),
    (["game", "--w", "0"], "--w must be at least 1, not 0"),
    (["game", "--T", "0"], "--T must be at least 1, not 0"),
    (["game", "--T", "4"], "--T must be at least --w - 1 = 5, not 4"),
    (["game", "--learner", "sfhc", "--phase", "7", "--w", "6"],
     "--phase must be in 0..5 for --w 6, not 7"),
    (["game", "--learner", "sfhc", "--phase", "-1"], "--phase must be in 0..5 for --w 6"),
    (["game", "--w", "3"], "--learner rsfhc-b needs --w of at least 4, not 3"),
    (["game", "--seeds", "0"], "--seeds must be at least 1, not 0"),
    (["game", "--inflation", "0.5"], "--inflation must be at least 1, not 0.5"),
    (["verify-conditions", "--samples", "0"], "--samples must be at least 1, not 0"),
    (["verify-conditions", "--radius", "0"], "--radius must be positive, not 0.0"),
    (["game", "--m", "0"], "--m must be positive, not 0.0"),
    (["game", "--m", "-1", "--adversary", "oblivious"], "--m must be positive, not -1.0"),
    (["reduce", "--mode", "duplicate", "--w", "0"], "--w must be at least 1, not 0"),
]


@pytest.mark.parametrize("command, reason", BAD_FLAGS)
def test_cli_bad_flag_value_exits_two_on_one_line(quad_instance_file, capsys, command,
                                                  reason):
    if command[0] != "game":
        command = command + ["--instance", str(quad_instance_file)]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"soco-lab: error: {reason}")
    assert captured.err.count("\n") == 1 and captured.out == ""
