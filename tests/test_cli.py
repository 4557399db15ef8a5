import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from math import comb
from pathlib import Path

import numpy as np
import pytest

from robusthmm import (ControlProblem, cli, config, control, expectation,
                       oracles, penalty)
from robusthmm.cli import main
from robusthmm.config import build_exact_prior, load_config
from robusthmm.errors import ConfigError
from robusthmm.expectation import dr_expectation
from robusthmm.models import (GRID_CAP, STATES_CAP, SimplexGrid,
                              parse_framework)
from robusthmm.penalty import (ExactSurface, evolve, initial_exact_surface,
                              initial_grid_surface)
from conftest import CONFIGS


def run_cli(command, config, out, threads=1, extra=()):
    return main([command, "--config", str(config), "--out", str(out),
                 "--threads", str(threads), *extra])


def read_manifest(out):
    return json.loads((Path(out) / "manifest.json").read_text())


def test_filter_reproduces_bayes_update(tmp_path):
    out = tmp_path / "run"
    assert run_cli("filter", CONFIGS / "example1.json", out) == 0
    lines = (out / "filter.csv").read_text().strip().split("\n")
    assert lines[0] == "t,observation,p0,p1"
    assert lines[2] == "1,0,0.75,0.25"


def _long_filter_config(tmp_path, zeros, ones):
    """The ``example1`` model (an identity chain) observing ``zeros`` 0s,
    then ``ones`` 1s: the exact posterior ends favouring state 1."""
    cfg = json.loads((CONFIGS / "example1.json").read_text())
    cfg["horizon"] = zeros + ones
    cfg["observations"] = [0] * zeros + [1] * ones
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    return path


def test_filter_stops_where_a_reachable_state_underflows(tmp_path, capsys):
    # after 700 zeros state 1 holds 3^-700 of the mass, below float64's
    # range, and 1,400 ones would then write [1.0, 0.0] where the posterior
    # favours state 1 with odds 3^700
    path = _long_filter_config(tmp_path, 700, 1400)
    out = tmp_path / "run"
    assert run_cli("filter", path, out) == 4
    assert capsys.readouterr().err == (
        "cap exceeded: belief underflow at step 678: state 1 is reachable "
        "but its float64 probability is 0\n")
    assert not (out / "filter.csv").exists()


def test_filter_inside_float64_range_writes_every_step(tmp_path):
    # 3^-600 is still a float64 (subnormal included); the bytes are those
    # written before the support was tracked
    path = _long_filter_config(tmp_path, 600, 1200)
    out = tmp_path / "run"
    assert run_cli("filter", path, out) == 0
    text = (out / "filter.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "67a745a02095b815be75df0dda6e9f19a0731c38c21e14e6cc7e9bb3ce0fd310")
    assert text.endswith(b"\n1800,1,5.336385165377102e-287,1.0\n")


def test_malformed_config_exits_2_without_artifacts(tmp_path):
    cfg = json.loads((CONFIGS / "example1.json").read_text())
    cfg["generators"][0]["transition"] = [[0.5, 0.0], [0.4, 1.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli("filter", bad, out) == 2
    assert not out.exists()


def test_missing_required_field_is_config_error(tmp_path):
    cfg = json.loads((CONFIGS / "example1.json").read_text())
    del cfg["uncertainty"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_impossible_observation_exits_3(tmp_path):
    cfg = json.loads((CONFIGS / "example1.json").read_text())
    cfg["generators"][0]["emission"] = [[1.0, 0.0], [1.0, 0.0]]
    cfg["simulation"]["emission"] = [[1.0, 0.0], [1.0, 0.0]]
    cfg["observations"] = [1]
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("penalty-evolve", bad, tmp_path / "run") == 3


def test_tree_cap_exits_4(tmp_path):
    cfg = json.loads((CONFIGS / "example1.json").read_text())
    cfg["horizon"] = 13
    cfg["observations"] = [0] * 13
    big = tmp_path / "big.json"
    big.write_text(json.dumps(cfg))
    assert run_cli("expect", big, tmp_path / "run") == 4


_CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from robusthmm.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_capped(command, path, out, extra=()):
    """Exit code, stdout and stderr of the CLI in a child held to 1 GB of
    address space, so a run that sizes memory before its cap check fails
    fast instead of filling memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, command, "--config", str(path),
         "--out", str(out), *extra],
        capture_output=True, text=True, env=env, timeout=60)
    return child.returncode, child.stdout, child.stderr


@pytest.mark.parametrize("n,m,override", [(6, 1000, False),
                                          (2, 10 ** 6, True)])
def test_oversized_grid_exits_4_before_allocating(tmp_path, n, m, override):
    # run in a child held to 1 GB of address space, so a grid that is
    # enumerated before the cap check fails fast instead of filling memory
    extra = ["--grid-resolution", str(m)] if override else []
    cfg = {"n_states": n, "n_symbols": 2, "horizon": 1,
           "grid_resolution": 10 if override else m,
           "framework": "dynamic-dr", "uncertainty": {"k": 1.0},
           "generators": [{"transition": np.eye(n).tolist(),
                           "emission": [[0.5, 0.5]] * n}],
           "prior": {"shape": "zero"}, "observations": [0]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert _run_capped("penalty-evolve", path, out, extra) == (4, "", (
        f"cap exceeded: a grid of n_states {n} and resolution {m} has "
        f"{comb(m + n - 1, n - 1)} cells, over the cap of {GRID_CAP}\n"))
    assert not out.exists()


@pytest.mark.parametrize("n", [STATES_CAP, STATES_CAP + 1])
def test_states_cap_bounds_the_grid(tmp_path, capsys, n):
    # rounding ranks remainders pairwise, quadratic in n_states; the cap
    # keeps it below the size where an argsort ranking would be faster
    cfg = {"n_states": n, "n_symbols": 2, "horizon": 1, "grid_resolution": 1,
           "framework": "dynamic-dr", "uncertainty": {"k": 1.0},
           "generators": [{"transition": np.eye(n).tolist(),
                           "emission": [[0.5, 0.5]] * n}],
           "prior": {"shape": "zero"}, "observations": [0]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    if n == STATES_CAP:
        assert run_cli("penalty-evolve", path, out) == 0
        surface = (out / "surface_t001.csv").read_text()
        assert len(surface.splitlines()) == n + 1
    else:
        assert run_cli("penalty-evolve", path, out) == 4
        assert capsys.readouterr().err == (
            f"cap exceeded: a grid of n_states {n} is over the cap of "
            f"{STATES_CAP} states\n")
        assert not out.exists()


def _strict_json(path):
    """The JSON document at ``path``, refusing ``NaN`` and ``Infinity``."""
    def refuse(token):
        raise AssertionError(f"{path.name} holds {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_overflowed_control_values_are_written_as_text(tmp_path):
    # costs of 1e308 a step sum past the largest float: the values that
    # overflow are written as "inf", the rest of the run as usual
    path = _edited_config(tmp_path, "control_t3.json", lambda cfg: cfg[
        "control"].update(running_cost=[[1e308, 1e308]] * 3))
    out = tmp_path / "run"
    assert run_cli("control", path, out) == 0
    values = _strict_json(out / "values.json")
    assert values["root|0"] == {"value": "inf", "control": 0,
                                "q_values": ["inf", "inf"]}
    assert all(isinstance(entry["value"], float)
               for key, entry in values.items() if key.count("-") == 2)
    assert _strict_json(out / "manifest.json")["root_value"] == "inf"


def test_overflowed_tree_values_are_written_as_text(tmp_path):
    # a payoff of 1.7e308 in each state overflows the centered children and
    # the driver; numpy warns of the overflow, so the run is a child process
    path = _edited_config(tmp_path, "oracle_t3.json",
                          lambda cfg: cfg.update(phi=[1.7e308, 1.7e308]))
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "robusthmm", "expect", "--config", str(path),
         "--out", str(out)], capture_output=True, text=True, env=env,
        timeout=60)
    assert child.returncode == 0, child.stderr
    root = _strict_json(out / "tree.json")["nodes"][0]
    assert root["value"] == 1.7000000000000003e+308
    assert root["z"] == ["-inf", "-inf"] and root["driver"] == "nan"
    assert _strict_json(out / "manifest.json")["root_value"] == root["value"]


def test_grid_convergence_writes_an_infinite_error_as_text(tmp_path):
    # on the sparse 3-state support an exact belief rounds to a cell the
    # grid run excludes, at every resolution of the sweep
    out = tmp_path / "run"
    assert run_cli("oracle-check", CONFIGS / "tree_d3.json", out) == 0
    conv = _strict_json(out / "manifest.json")["grid_convergence"]
    assert conv["sup_errors"] == ["inf", "inf", "inf"]
    assert conv["final_error"] == "inf"


@pytest.mark.parametrize("command", ["simulate", "filter", "penalty-evolve"])
@pytest.mark.parametrize("horizon", [10 ** 30, config.HORIZON_CAP + 1])
def test_oversized_horizon_exits_4_before_allocating(tmp_path, command,
                                                     horizon):
    # a path of 10 ** 30 steps overflows the list that holds its models,
    # and one of 10 ** 12 exhausts memory, unless the horizon is capped
    path = _edited_config(tmp_path, "simulate.json",
                          lambda cfg: cfg.update(horizon=horizon))
    out = tmp_path / "run"
    assert _run_capped(command, path, out) == (4, "", (
        f"cap exceeded: a horizon of {horizon} steps is over the cap of "
        f"{config.HORIZON_CAP}\n"))
    assert not out.exists()


def test_control_cap_names_the_depth_and_the_count(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "control_t3.json").read_text())
    cfg["horizon"] = 7
    cfg["control"]["running_cost"] = [[0.3, 0.0]] * 7
    big = tmp_path / "big.json"
    big.write_text(json.dumps(cfg))
    assert run_cli("control", big, tmp_path / "run") == 4
    assert capsys.readouterr().err == (
        "cap exceeded: 20021 reachable (history, state) pairs by depth 7 "
        "exceed the cap of 20000\n")


@pytest.mark.parametrize("owner,name,value,command,config,message", [
    (penalty, "EXACT_CAP", 8, "oracle-check", "oracle_t3.json",
     "15 tracked beliefs at step 1 would exceed the cap of 8"),
    (expectation, "TREE_CAP", 7, "expect", "oracle_t3.json",
     "8 leaves would exceed the cap of 7"),
    (oracles, "ORACLE_CAP", 14, "oracle-check", "oracle_t3.json",
     "15 models exceed the cap of 14"),
    (ControlProblem, "state_cap", 10, "control", "control_t3.json",
     "13 reachable (history, state) pairs by depth 2 exceed the cap of 10"),
], ids=["EXACT_CAP", "TREE_CAP", "ORACLE_CAP", "state_cap"])
def test_each_cap_is_read_when_it_is_checked(tmp_path, capsys, monkeypatch,
                                            owner, name, value, command,
                                            config, message):
    # each cap is a constant in one place; lowering it there lowers the cap
    # of the next run, so none is bound as a default when a module loads
    monkeypatch.setattr(owner, name, value)
    assert run_cli(command, CONFIGS / config, tmp_path / "run") == 4
    assert capsys.readouterr().err == f"cap exceeded: {message}\n"


def test_penalty_evolve_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli("penalty-evolve", CONFIGS / "oracle_t3.json", out) == 0
    manifest = read_manifest(out)
    assert len(manifest["m_t"]) == 3
    for t in range(4):
        assert (out / f"surface_t{t:03d}.csv").exists()
    assert not list(out.glob(".*.tmp"))


def test_grid_resolution_override(tmp_path):
    out = tmp_path / "run"
    assert run_cli("penalty-evolve", CONFIGS / "oracle_t3.json", out,
                   extra=("--grid-resolution", "20")) == 0
    body = (out / "surface_t000.csv").read_text().strip().split("\n")
    assert len(body) - 1 == 21  # one row per grid point at resolution 20


def test_expect_tree_document(tmp_path):
    out = tmp_path / "run"
    assert run_cli("expect", CONFIGS / "oracle_t3.json", out) == 0
    doc = json.loads((out / "tree.json").read_text())
    assert doc["horizon"] == 3
    assert len(doc["nodes"]) == 2 ** 4 - 1
    root = doc["nodes"][0]
    assert root["history"] == "root"
    assert isinstance(root["value"], float)
    assert (out / root["surface_file"]).exists()


def test_control_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli("control", CONFIGS / "control_t3.json", out) == 0
    policy = json.loads((out / "policy.json").read_text())
    values = json.loads((out / "values.json").read_text())
    states = json.loads((out / "states.json").read_text())
    assert "root|0" in values
    assert all(entry["label"] in ("listen", "idle")
               for entry in policy.values())
    for fname in states.values():
        assert (out / fname).exists()


def test_out_naming_a_file_exits_2_before_solving(tmp_path, capsys,
                                                  monkeypatch):
    solves = []
    monkeypatch.setattr(control, "solve",
                        lambda problem: solves.append(problem))
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert run_cli("control", CONFIGS / "control_t3.json", taken) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot create output directory")
    assert solves == []
    assert taken.read_text() == "keep"


def test_output_directory_is_made_once(tmp_path, monkeypatch):
    made = []
    makedirs = os.makedirs

    def counted(path, *args, **kwargs):
        made.append(path)
        return makedirs(path, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", counted)
    out = tmp_path / "run"
    assert run_cli("control", CONFIGS / "control_t3.json", out) == 0
    assert len(list(out.iterdir())) > 3
    assert made == [str(out)]


def test_parser_is_built_once(tmp_path, monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for run in ("first", "second"):
        assert run_cli("penalty-evolve", CONFIGS / "oracle_t3.json",
                       tmp_path / run) == 0
    # one top-level parser and one per subcommand, made by the first call
    assert len(built) == 1 + len(cli._COMMANDS)
    with pytest.raises(SystemExit) as bad_flag:
        main(["penalty-evolve", "--config", str(CONFIGS / "oracle_t3.json"),
              "--no-such-flag"])
    assert bad_flag.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert len(built) == 1 + len(cli._COMMANDS)


@pytest.mark.parametrize("label", ["dynamic-dr", "static-up"])
def test_penalty_evolve_lets_go_of_each_written_step(tmp_path, monkeypatch,
                                                     label):
    # step t's surface is unreachable once step t + 2 is written: the run
    # renders and writes each step as it arrives and keeps none of them
    refs = []
    step = penalty.forward_image_step

    def remembered(*args, **kwargs):
        surface, report = step(*args, **kwargs)
        refs.append(weakref.ref(surface))  # refs[t - 1] is step t
        return surface, report

    written = []
    add_csv = cli.Run.add_csv

    def spy(run, name, text):
        t = int(name[len("surface_t"):-len(".csv")])
        gc.collect()
        assert t == 0 or refs[t - 1]() is not None
        assert all(ref() is None for ref in refs[:max(0, t - 2)])
        written.append(t)
        return add_csv(run, name, text)

    monkeypatch.setattr(penalty, "forward_image_step", remembered)
    monkeypatch.setattr(cli.Run, "add_csv", spy)
    path = _edited_config(tmp_path, "simulate.json",
                          lambda cfg: cfg.update(framework=label))
    assert run_cli("penalty-evolve", path, tmp_path / "run") == 0
    assert written == list(range(21))
    assert len(read_manifest(tmp_path / "run")["m_t"]) == 20


def test_control_under_a_static_framework_exits_2(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "control_t3.json").read_text())
    cfg["framework"] = "static-dr"
    path = tmp_path / "static.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("control", path, tmp_path / "run") == 2
    assert capsys.readouterr().err == (
        "config error: control: control requires the dynamic generator "
        "scope\n")


@pytest.mark.parametrize("command, config, extra, builds", [
    ("penalty-evolve", "oracle_t3.json", (), [10]),
    ("expect", "oracle_t3.json", (), [10]),
    ("control", "control_t3.json", (), [10]),
    ("penalty-evolve", "oracle_t3.json", ("--grid-resolution", "20"), [20]),
    ("simulate", "simulate.json", (), []),
    ("filter", "simulate.json", (), []),
], ids=["penalty-evolve", "expect", "control", "override", "simulate",
        "filter"])
def test_one_grid_per_run(tmp_path, monkeypatch, command, config, extra,
                          builds):
    built = []
    build = SimplexGrid.build

    def counted(n_states, resolution):
        built.append(resolution)
        return build(n_states, resolution)

    monkeypatch.setattr(SimplexGrid, "build", counted)
    assert run_cli(command, CONFIGS / config, tmp_path / "run",
                   extra=extra) == 0
    assert built == builds


def test_oracle_check_builds_each_grid_prior_once(tmp_path, monkeypatch):
    # the configured grid's prior serves all four exact frameworks and the
    # sweep at its resolution; each other resolution builds its own once
    built = []
    build = config.build_grid_prior

    def counted(prior_cfg, grid):
        built.append(grid.resolution)
        return build(prior_cfg, grid)

    monkeypatch.setattr(config, "build_grid_prior", counted)
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json",
                   tmp_path / "run") == 0
    assert built == [10, 20, 40]


def test_oracle_check_walks_once_per_scope(tmp_path, monkeypatch):
    # one check walks the model set twice, once per scope; each walk serves
    # both frameworks of its scope
    scopes = []
    walk = oracles._walk_models

    def counted(beliefs, values, gens, obs, scope, *args):
        scopes.append(scope)
        return walk(beliefs, values, gens, obs, scope, *args)

    monkeypatch.setattr(oracles, "_walk_models", counted)
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json",
                   tmp_path / "run") == 0
    assert scopes == ["static", "dynamic"]


def test_oracle_check_passes_on_shipped_instance(tmp_path):
    out = tmp_path / "run"
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json", out) == 0
    manifest = read_manifest(out)
    assert manifest["max_abs_diff"] <= 1e-9
    conv = manifest["grid_convergence"]
    assert conv["resolutions"] == [10, 20, 40]
    lines = (out / "oracle_report.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    col = header.index("abs_diff")
    assert max(float(line.split(",")[col]) for line in lines[1:]) <= 1e-9


def _edit_exact_run(monkeypatch, label, edit):
    """Pass the surfaces of oracle-check's exact run for ``label`` through
    ``edit``, leaving every other evolve call alone."""
    scope, framework = parse_framework(label)
    original = cli.evolve

    def edited(surface, gens, obs, fw):
        surfaces, reports = original(surface, gens, obs, fw)
        if (isinstance(surface, ExactSurface) and fw == framework
                and (surface.gen_ids is None) == (scope == "dynamic")):
            surfaces = edit(list(surfaces))
        return surfaces, reports

    monkeypatch.setattr(cli, "evolve", edited)


def _report_gaps(out):
    """The report's rows whose gap exceeds the oracle tolerance."""
    rows = [line.split(",") for line in
            (out / "oracle_report.csv").read_text().splitlines()[1:]]
    return [row for row in rows if float(row[3]) > cli.ORACLE_TOL]


def test_oracle_check_fails_on_a_shifted_exact_surface(tmp_path, monkeypatch):
    # one row of dynamic-up's exact surface at step 1 moves by 1e-6: only
    # that framework's penalty_t1 row carries the gap, and the check fails
    def shift(surfaces):
        s = surfaces[1]
        values = s.values.copy()
        values[int(np.argmax(values))] += 1e-6
        surfaces[1] = ExactSurface(beliefs=s.beliefs, values=values,
                                   gen_ids=s.gen_ids, time=s.time)
        return surfaces

    _edit_exact_run(monkeypatch, "dynamic-up", shift)
    out = tmp_path / "run"
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json", out) == 1
    assert [row[0] for row in _report_gaps(out)] == ["dynamic-up/penalty_t1"]
    assert abs(read_manifest(out)["max_abs_diff"] - 1e-6) < 1e-12


def test_oracle_check_fails_on_a_dropped_exact_row(tmp_path, monkeypatch):
    # static-up's exact surface at step 2 loses its highest row: the
    # reachable sets differ and the check fails
    def drop(surfaces):
        s = surfaces[2]
        keep = np.arange(len(s)) != int(np.argmax(s.values))
        surfaces[2] = ExactSurface(beliefs=s.beliefs[keep],
                                   values=s.values[keep],
                                   gen_ids=s.gen_ids[keep], time=s.time)
        return surfaces

    _edit_exact_run(monkeypatch, "static-up", drop)
    out = tmp_path / "run"
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json", out) == 1
    gaps = _report_gaps(out)
    assert [(row[0], row[4]) for row in gaps] == [
        ("static-up/penalty_t2", "reachable-set")]
    assert float(gaps[0][1]) == float(gaps[0][2]) + 1


def test_oracle_check_fails_on_a_perturbed_payoff_score(tmp_path,
                                                        monkeypatch):
    # the engine's score of payoff 7 under static-dr (the third label
    # checked) moves by 1e-6: its dr_expectation_7 row shows the gap
    calls = []
    original = expectation._dr_scores

    def perturbed(*args):
        values, best = original(*args)
        calls.append(len(values))
        if len(calls) == 3:
            values[7] += 1e-6
        return values, best

    monkeypatch.setattr(expectation, "_dr_scores", perturbed)
    out = tmp_path / "run"
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json", out) == 1
    assert calls == [cli._PHI_DRAWS] * 4
    assert ([row[0] for row in _report_gaps(out)]
            == ["static-dr/dr_expectation_7"])
    assert abs(read_manifest(out)["max_abs_diff"] - 1e-6) < 1e-12


@pytest.mark.parametrize("name", ["oracle_t3.json", "tree_d3.json"])
def test_oracle_check_scores_payoffs_as_one_row_scans(tmp_path, name):
    # the report's engine values of the 50 random payoffs, scored in one
    # batched scan, are bit for bit 50 one-row dr_expectation calls against
    # the last exact surface, under every framework label
    out = tmp_path / "run"
    assert run_cli("oracle-check", CONFIGS / name, out) == 0
    lines = (out / "oracle_report.csv").read_text().splitlines()
    engine = {row[0]: row[2] for row in (line.split(",") for line in lines)}
    cfg = load_config(str(CONFIGS / name))
    rng = np.random.Generator(np.random.Philox(key=2026))
    phis = rng.uniform(-1.0, 1.0, size=(cli._PHI_DRAWS, cfg.n_states))
    grid, values = cfg.grid_prior()
    prior = build_exact_prior(values, grid)
    for label in cli._FRAMEWORK_LABELS:
        scope, framework = parse_framework(label)
        surfaces, _ = evolve(initial_exact_surface(*prior, cfg.gens, scope),
                             cfg.gens, cli._observations(cfg), framework)
        for j, phi in enumerate(phis):
            value, _ = dr_expectation(phi, surfaces[-1], cfg.params)
            assert engine[f"{label}/dr_expectation_{j}"] == repr(value)


def _count_exact_steps(monkeypatch):
    steps = []
    original = penalty.exact_step

    def counted(*args, **kwargs):
        steps.append(args[0].time)
        return original(*args, **kwargs)

    monkeypatch.setattr(penalty, "exact_step", counted)
    return steps


def test_oracle_check_evolves_each_exact_prior_once(tmp_path, monkeypatch):
    # the shipped support prior is the same exact prior at the configured
    # resolution and at 10, 20 and 40: four frameworks of three steps each,
    # and the convergence sweep reuses the dynamic-dr run
    steps = _count_exact_steps(monkeypatch)
    assert run_cli("oracle-check", CONFIGS / "oracle_t3.json",
                   tmp_path / "run") == 0
    assert len(steps) == 4 * 3


def test_convergence_errors_of_priors_that_differ_by_resolution(tmp_path,
                                                                monkeypatch):
    # a zero prior's exact prior is every grid point, so each resolution
    # evolves its own exact run; only resolution 10 shares the dynamic-dr one
    path = _edited_config(tmp_path, "oracle_t3.json",
                          _set(None, "prior", {"shape": "zero"}))
    steps = _count_exact_steps(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("oracle-check", path, out) == 0
    assert len(steps) == 4 * 3 + 2 * 3
    cfg = load_config(str(path))
    obs = list(cfg.observations)
    expected = []
    for m in cli.CONVERGENCE_RESOLUTIONS:
        grid, values = cfg.grid_prior(m)
        gridded, _ = evolve(initial_grid_surface(values, cfg.gens, grid,
                                                 "dynamic"), cfg.gens, obs,
                            "dr")
        exact, _ = evolve(initial_exact_surface(
            *build_exact_prior(values, grid), cfg.gens, "dynamic"),
            cfg.gens, obs, "dr")
        expected.append(max(
            float(np.max(np.abs(g.values[grid.round_rows(e.beliefs)]
                                - e.values)))
            for g, e in zip(gridded, exact)))
    assert len(set(expected)) == 3
    assert read_manifest(out)["grid_convergence"]["sup_errors"] == expected


def test_table_prior_fails_the_sweep_before_any_check(tmp_path, monkeypatch,
                                                      capsys):
    # a table lists one value per point of the configured grid (11 at
    # resolution 10), so the sweep's resolution 20 cannot be built; that
    # fails before any framework check steps an exact surface
    path = _edited_config(tmp_path, "oracle_t3.json",
                          _set(None, "prior",
                               {"shape": "table", "values": [0.0] * 11}))
    steps = _count_exact_steps(monkeypatch)
    assert run_cli("oracle-check", path, tmp_path / "run") == 2
    assert steps == []
    assert capsys.readouterr().err == (
        "config error: prior.values must list one value per grid point (21 "
        "at resolution 20); a table prior exists at one resolution only\n")


def test_exact_runs_are_keyed_by_the_whole_exact_prior(oracle_cfg):
    grid, prior = oracle_cfg.grid_prior()
    beliefs, values = build_exact_prior(prior, grid)
    obs = list(oracle_cfg.observations)
    runs = {}

    def run(b, v, framework="dr", scope="dynamic"):
        return cli._exact_run(runs, b, v, oracle_cfg.gens, obs, framework,
                              scope)

    first = run(beliefs, values)
    assert run(beliefs.copy(), values.copy()) is first
    others = [run(beliefs, values[::-1].copy()), run(beliefs[::-1].copy(),
                                                     values),
              run(beliefs, values, framework="up"),
              run(beliefs, values, scope="static")]
    assert len(runs) == 5 and all(o is not first for o in others)


def test_load_config_closes_the_config_file(monkeypatch):
    opened = []

    def tracked(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(config, "open", tracked, raising=False)
    load_config(str(CONFIGS / "oracle_t3.json"))
    assert len(opened) == 1 and opened[0].closed


@pytest.mark.parametrize("command", ["penalty-evolve", "expect",
                                     "oracle-check"])
def test_overflowing_gamma_excludes_its_continuations_quietly(tmp_path, capsys,
                                                              command):
    # 1e308 per step leaves float64 range after two steps; that continuation
    # is excluded like an inf gamma, with no overflow warning
    path = _edited_config(tmp_path, "oracle_t3.json",
                          lambda cfg: cfg["generators"][1].update(gamma=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, path, tmp_path / "run") == 0
    assert capsys.readouterr().err == ""


def test_static_framework_pipelines(tmp_path):
    # the single-candidate config runs in static scope end to end: surfaces
    # carry a candidate axis and the tree recursion drops the per-step gamma
    out = tmp_path / "evolve"
    assert run_cli("penalty-evolve", CONFIGS / "example1.json", out) == 0
    header = (out / "surface_t001.csv").read_text().split("\n")[0]
    assert header == "x0,x1,p0,p1,gen,value,src_point,src_gen"
    out2 = tmp_path / "expect"
    assert run_cli("expect", CONFIGS / "example1.json", out2) == 0
    doc = json.loads((out2 / "tree.json").read_text())
    assert len(doc["nodes"]) == 3


def test_inf_sentinels_parse_and_run(tmp_path):
    cfg = json.loads((CONFIGS / "oracle_t3.json").read_text())
    cfg["uncertainty"]["k_exp"] = "inf"
    cfg["generators"][2]["gamma"] = "inf"
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(str(path))
    assert loaded.params.k_exp == float("inf")
    assert loaded.gens.prior_penalty[2] == float("inf")
    assert run_cli("penalty-evolve", path, tmp_path / "run") == 0


def test_simulate_deterministic_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", CONFIGS / "simulate.json", out1) == 0
    assert run_cli("simulate", CONFIGS / "simulate.json", out2, threads=8) == 0
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
    m1, m2 = read_manifest(out1), read_manifest(out2)
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


_BELOW_ONE = ["0", "-3", "abc"]


@pytest.mark.parametrize("flag,value", [
    *(("--threads", value) for value in _BELOW_ONE),
    *(("--grid-resolution", value) for value in _BELOW_ONE),
], ids=_BELOW_ONE + [f"grid-resolution={value}" for value in _BELOW_ONE])
def test_thread_count_below_one_exits_2(tmp_path, flag, value):
    # both flags are parsed by one rule, before the config is read
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--config", str(CONFIGS / "example1.json"),
              "--out", str(tmp_path / "run"), flag, value])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_thread_environment_variable_is_not_read(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTHMM_THREADS", "abc")
    assert main(["filter", "--config", str(CONFIGS / "example1.json"),
                 "--out", str(tmp_path / "run")]) == 0


def _edited_config(tmp_path, name, edit):
    cfg = json.loads((CONFIGS / name).read_text())
    edit(cfg)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


def _set_point_mass(belief):
    def edit(cfg):
        cfg["prior"] = {"shape": "point-mass", "belief": belief}
    return edit


@pytest.mark.parametrize("name,edit,command", [
    ("oracle_t3.json",
     lambda cfg: cfg["generators"][1]["transition"][0].__setitem__(
         0, float("nan")), "penalty-evolve"),
    ("example1.json",
     lambda cfg: cfg["simulation"].update(p0=[float("nan"), 1.0]),
     "simulate"),
    ("oracle_t3.json", _set_point_mass([float("nan"), 1.0]),
     "penalty-evolve"),
    ("oracle_t3.json", _set_point_mass([-3.0, 1.0]), "penalty-evolve"),
    ("oracle_t3.json",
     lambda cfg: cfg["prior"]["beliefs"].__setitem__(0, [-0.1, 1.1]),
     "penalty-evolve"),
], ids=["nan-transition", "nan-p0", "nan-point-mass", "negative-point-mass",
        "negative-support-belief"])
def test_invalid_probabilities_exit_2(tmp_path, capsys, name, edit, command):
    path = _edited_config(tmp_path, name, edit)
    assert run_cli(command, path, tmp_path / "run") == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name,edit,command,extra,message", [
    ("example1.json",
     lambda cfg: cfg["simulation"].update(p0=[0.6, 0.6]), "simulate", (),
     "simulation: belief sums to 1.2, not 1"),
    ("oracle_t3.json", _set_point_mass([0.6, 0.6]), "penalty-evolve", (),
     "prior.belief: belief sums to 1.2, not 1"),
    ("oracle_t3.json", lambda cfg: None, "penalty-evolve",
     ("--grid-resolution", "7"),
     "prior support belief [0.2, 0.8] is not a grid point at resolution 7"),
], ids=["p0-sum", "point-mass-sum", "support-off-grid"])
def test_config_errors_print_plain_floats(tmp_path, capsys, name, edit,
                                          command, extra, message):
    path = _edited_config(tmp_path, name, edit)
    assert run_cli(command, path, tmp_path / "run", extra=extra) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("k_exp", [1.0, "inf"])
def test_infinite_k_admits_every_model_and_no_excluded_belief(
        tmp_path, k_exp):
    # k = inf charges every finite penalty nothing, as a huge k does under
    # the hard threshold; excluded beliefs (inf) stay excluded
    def root_value(uncertainty, label):
        path = _edited_config(tmp_path, "oracle_t3.json",
                              _set(None, "uncertainty", uncertainty))
        out = tmp_path / label
        assert run_cli("expect", path, out) == 0
        return read_manifest(out)["root_value"]

    assert (root_value({"k": "inf", "k_exp": k_exp}, "inf")
            == root_value({"k": 1e6, "k_exp": "inf"}, "huge"))


def test_point_mass_prior_pins_one_cell(tmp_path):
    path = _edited_config(tmp_path, "oracle_t3.json",
                          _set_point_mass([0.3, 0.7]))
    out = tmp_path / "run"
    assert run_cli("penalty-evolve", path, out) == 0
    rows = (out / "surface_t000.csv").read_text().strip().split("\n")[1:]
    finite = [row.split(",") for row in rows if ",inf," not in row]
    assert len(finite) == 1
    assert finite[0][2:5] == ["0.3", "0.7", "0.0"]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("label", [3, None, ["dynamic", "dr"]],
                         ids=["number", "null", "list"])
def test_framework_that_is_no_string_exits_2(tmp_path, capsys, command,
                                             label):
    path = _edited_config(tmp_path, "oracle_t3.json",
                          lambda cfg: cfg.update(framework=label))
    assert run_cli(command, path, tmp_path / "run") == 2
    assert capsys.readouterr().err == (
        f"config error: framework: bad framework label {label!r}\n")
    assert not (tmp_path / "run").exists()


def test_support_prior_ranks_its_beliefs_once(monkeypatch):
    # every support belief is validated first, then ranked in one call; a
    # repeated belief keeps its last value, as one assignment per belief did
    calls = []
    original = SimplexGrid.rank

    def counted(self, coords):
        calls.append(len(coords))
        return original(self, coords)

    monkeypatch.setattr(SimplexGrid, "rank", counted)
    grid = SimplexGrid.build(3, 10)
    prior = {"shape": "support", "values": [0.5, 0.0, 0.2, 0.7],
             "beliefs": [[0.1, 0.2, 0.7], [1.0, 0.0, 0.0], [0.1, 0.2, 0.7],
                         [0.0, 0.5, 0.5]]}
    values = config.build_grid_prior(prior, grid)
    assert calls == [4]
    monkeypatch.undo()
    expected = np.full(len(grid), np.inf)
    for b, v in zip(prior["beliefs"], prior["values"]):
        expected[np.flatnonzero((grid.points == b).all(axis=1))] = v
    assert values.tolist() == expected.tolist()
    assert np.isfinite(values).sum() == 3


def test_unknown_config_key_is_named(tmp_path, capsys):
    path = _edited_config(tmp_path, "oracle_t3.json",
                          lambda cfg: cfg.update(horizn=3))
    assert run_cli("penalty-evolve", path, tmp_path / "run") == 2
    assert "horizn" in capsys.readouterr().err



def _point_mass_with_values(cfg):
    # a point-mass prior reads only its belief; "values" belongs to other
    # shapes and is rejected here
    cfg["prior"] = {"shape": "point-mass", "belief": [0.3, 0.7],
                    "values": [0.0]}


@pytest.mark.parametrize("name,edit,command,where,key", [
    ("oracle_t3.json", lambda cfg: cfg["uncertainty"].update(kexp=5.0),
     "penalty-evolve", "uncertainty", "kexp"),
    ("oracle_t3.json", lambda cfg: cfg["prior"].update(valuez=[0.0]),
     "penalty-evolve", "prior (support)", "valuez"),
    ("oracle_t3.json", _point_mass_with_values, "penalty-evolve",
     "prior (point-mass)", "values"),
    ("oracle_t3.json",
     lambda cfg: cfg["generators"][2].update(emissions=[[1.0, 0.0]] * 2),
     "penalty-evolve", "generators[2]", "emissions"),
    ("example1.json", lambda cfg: cfg["simulation"].update(sed=3),
     "simulate", "simulation", "sed"),
    ("control_t3.json", lambda cfg: cfg["control"].update(label=["a"]),
     "control", "control", "label"),
], ids=["uncertainty", "prior", "point-mass-prior", "generator", "simulation",
        "control"])
def test_unknown_nested_key_is_named(tmp_path, capsys, name, edit, command,
                                     where, key):
    path = _edited_config(tmp_path, name, edit)
    assert run_cli(command, path, tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: unknown keys: {key}")
    assert not (tmp_path / "run").exists()


NAN, INF = float("nan"), float("inf")


def _set(block, key, value):
    def edit(cfg):
        (cfg[block] if block else cfg)[key] = value
    return edit


def _table_prior_with_nan(cfg):
    cfg["prior"] = {"shape": "table", "values": [0.0] * 10 + [NAN]}


@pytest.mark.parametrize("name,edit,command", [
    ("oracle_t3.json", _set(None, "phi", [NAN, 1.0]), "expect"),
    ("oracle_t3.json", _set(None, "phi", [INF, 1.0]), "expect"),
    ("control_t3.json", _set("control", "gamma", [1.0, 2.0]), "control"),
    ("control_t3.json", _set("control", "gamma", [[0.0, NAN], [2.0, 0.0]]),
     "control"),
    ("control_t3.json", _set("control", "terminal_cost", [NAN, 1.0]),
     "control"),
    ("control_t3.json",
     _set("control", "running_cost", [[NAN, 0.0], [0.3, 0.0], [0.3, 0.0]]),
     "control"),
    ("oracle_t3.json", _table_prior_with_nan, "penalty-evolve"),
    ("oracle_t3.json", lambda cfg: cfg["prior"]["values"].__setitem__(1, NAN),
     "penalty-evolve"),
    ("oracle_t3.json", lambda cfg: cfg["generators"][1].update(gamma=NAN),
     "penalty-evolve"),
    ("oracle_t3.json", lambda cfg: cfg["generators"][1].update(gamma=-INF),
     "penalty-evolve"),
    ("oracle_t3.json",
     lambda cfg: cfg["generators"][1].update(gamma=10 ** 400),
     "penalty-evolve"),
    ("example1.json", _set("simulation", "seed", 2 ** 128), "simulate"),
    ("oracle_t3.json", _set("prior", "values", None), "penalty-evolve"),
    ("oracle_t3.json", _set("prior", "values", 0.5), "penalty-evolve"),
], ids=["nan-phi", "inf-phi", "control-gamma-row-not-a-list",
        "nan-control-gamma", "nan-terminal-cost", "nan-running-cost",
        "nan-table-prior", "nan-support-prior", "nan-generator-gamma",
        "minus-inf-generator-gamma", "huge-generator-gamma",
        "huge-simulation-seed", "null-support-values",
        "number-support-values"])
def test_bad_numbers_exit_2(tmp_path, capsys, name, edit, command):
    path = _edited_config(tmp_path, name, edit)
    assert run_cli(command, path, tmp_path / "run") == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


def test_oversized_integer_literal_exits_2(tmp_path, capsys):
    # json.dumps cannot write an integer this long, so splice it in as text
    text = (CONFIGS / "oracle_t3.json").read_text()
    path = tmp_path / "edited.json"
    path.write_text(text.replace('"gamma": 0.35', '"gamma": ' + "1" * 5000))
    assert run_cli("penalty-evolve", path, tmp_path / "run") == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


def test_largest_simulation_seed_runs(tmp_path):
    path = _edited_config(tmp_path, "example1.json",
                          _set("simulation", "seed", 2 ** 128 - 1))
    assert run_cli("simulate", path, tmp_path / "run") == 0


def _exclude_every_belief(cfg):
    cfg["prior"]["values"] = ["inf"] * len(cfg["prior"]["values"])


@pytest.mark.parametrize("command,name,edit,extra", [
    ("penalty-evolve", "oracle_t3.json", _exclude_every_belief, ()),
    ("expect", "oracle_t3.json", _exclude_every_belief, ()),
    ("oracle-check", "oracle_t3.json", _exclude_every_belief, ()),
    ("control", "control_t3.json",
     _set(None, "prior", {"shape": "table", "values": ["inf"] * 11}), ()),
    # abs-log-odds puts inf on both cells of a resolution-1 grid
    ("penalty-evolve", "example1.json", lambda cfg: None,
     ("--grid-resolution", "1")),
], ids=["penalty-evolve", "expect", "oracle-check", "control", "override"])
def test_prior_excluding_every_belief_exits_2(tmp_path, capsys, command, name,
                                              edit, extra):
    path = _edited_config(tmp_path, name, edit)
    assert run_cli(command, path, tmp_path / "run", extra=extra) == 2
    assert capsys.readouterr().err == (
        "config error: prior excludes every belief\n")
    assert not (tmp_path / "run").exists()


def _every_subcommand_runs(cfg):
    # the shipped control problem with what the other subcommands read
    cfg.update(observations=[0, 1, 0], phi=[1.0, 0.0], simulation={
        "transition": [[0.9, 0.2], [0.1, 0.8]],
        "emission": [[0.75, 0.25], [0.25, 0.75]], "p0": [0.5, 0.5],
        "seed": 7})


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_control_gamma_row_excluding_every_generator_exits_2(tmp_path, capsys,
                                                             command):
    # the control table is checked while the config is read, so every
    # subcommand refuses it, not only control
    def edit(cfg):
        _every_subcommand_runs(cfg)
        cfg["control"]["gamma"][1] = ["inf", "inf"]

    assert run_cli(command, _edited_config(tmp_path, "control_t3.json",
                                           _every_subcommand_runs),
                   tmp_path / "ok") == 0
    path = _edited_config(tmp_path, "control_t3.json", edit)
    assert run_cli(command, path, tmp_path / "run") == 2
    assert capsys.readouterr().err == (
        "config error: control.gamma: a row excludes every generator\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("prior,message", [
    ({"shape": "cone"}, "unknown prior shape 'cone'"),
    ([0.0] * 11, "prior must be an object with a 'shape' field"),
    ({"shape": "zero", "values": [0.0]}, "prior (zero): unknown keys: values"),
], ids=["unknown-shape", "not-an-object", "unknown-key"])
def test_prior_block_is_checked_for_every_subcommand(tmp_path, capsys,
                                                     command, prior, message):
    # the prior checks that need no grid run while the config is read, so
    # every subcommand refuses the block, also those that never build it
    def edit(cfg):
        _every_subcommand_runs(cfg)
        cfg["prior"] = prior

    path = _edited_config(tmp_path, "control_t3.json", edit)
    assert run_cli(command, path, tmp_path / "run") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,artifact", [("simulate", "path.csv"),
                                              ("filter", "filter.csv")])
@pytest.mark.parametrize("edit,extra", [
    (_set(None, "prior", {"shape": "table", "values": [0.0] * 3}), ()),
    (lambda cfg: None, ("--grid-resolution", str(10 ** 6))),
], ids=["table-of-the-wrong-length", "grid-over-the-cap"])
def test_simulate_and_filter_never_build_the_grid(tmp_path, command,
                                                  artifact, edit, extra):
    # neither reads the penalty's grid or prior, so a prior that cannot be
    # built, or a grid over the cap, changes nothing they write
    clean = tmp_path / "clean"
    assert run_cli(command, CONFIGS / "simulate.json", clean) == 0
    out = tmp_path / "run"
    assert run_cli(command, _edited_config(tmp_path, "simulate.json", edit),
                   out, extra=extra) == 0
    assert (out / artifact).read_bytes() == (clean / artifact).read_bytes()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_horizon_zero_with_a_control_block(tmp_path, capsys, command):
    # [] is the one JSON spelling of a (0, n_controls) running cost; every
    # subcommand but control runs, and control needs a step to choose
    def edit(cfg):
        _every_subcommand_runs(cfg)
        cfg.update(horizon=0, observations=[])
        cfg["control"]["running_cost"] = []

    path = _edited_config(tmp_path, "control_t3.json", edit)
    if command != "control":
        assert run_cli(command, path, tmp_path / "run") == 0
        return
    assert run_cli(command, path, tmp_path / "run") == 2
    assert capsys.readouterr().err == (
        "config error: control: horizon must be at least 1\n")


@pytest.mark.parametrize("edit", [
    _set(None, "prior", {"shape": "support", "beliefs": [[0.05, 0.95]],
                         "values": [0.0]}),
    _set(None, "prior", {"shape": "table", "values": [0.0] * 21}),
    lambda cfg: cfg.update(grid_resolution=10 ** 7),
], ids=["support-on-the-override-grid", "table-of-the-override-grid",
        "configured-grid-over-the-cap"])
def test_override_builds_the_only_grid_and_prior(tmp_path, edit):
    # the prior is built at the override alone: a belief or a table that
    # only the override's grid holds runs, and the configured resolution is
    # validated but never built
    path = _edited_config(tmp_path, "oracle_t3.json", edit)
    out = tmp_path / "run"
    assert run_cli("penalty-evolve", path, out,
                   extra=("--grid-resolution", "20")) == 0
    rows = (out / "surface_t000.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 21
