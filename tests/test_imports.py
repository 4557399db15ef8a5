"""A run imports only the modules its subcommand executes, the package
resolves its public names on first use without changing them, and its
modules import only the standard library, numpy and each other."""

import ast
import json
import os
import subprocess
import sys

import pytest

import robusthmm
from conftest import CONFIGS, REPO

# the public names the package exported when it imported every module
PUBLIC = {
    "errors": ["CapExceeded", "ConfigError", "DegenerateObservation",
               "InfeasibleSurface", "RobustHMMError"],
    "hmm": ["Generator", "Path", "as_filter_state", "filter_step",
            "simulate_path"],
    "models": ["DR", "DYNAMIC", "STATIC", "UP", "GeneratorGrid",
               "SimplexGrid", "UncertaintyParams", "parse_framework"],
    "penalty": ["ExactSurface", "ExtendedPenaltySurface", "PenaltySurface",
                "StepReport", "evolve", "exact_step", "forward_image_step",
                "initial_exact_surface", "initial_grid_surface",
                "render_surface_csv"],
    "expectation": ["ObservationTree", "StateFunctional", "TreeSetup",
                    "backward_expectation", "bsde_decompose", "bsde_driver",
                    "build_observation_tree", "dr_expectation",
                    "fill_backward", "one_step_expectation",
                    "tree_document"],
    "control": ["ControlProblem", "ControlSolution", "ControlValue",
                "brute_force", "evaluate_policy", "solve"],
    "oracles": ["OracleReport", "bernoulli_closed_forms", "oracle_dr_direct",
                "oracle_penalty", "render_report_csv"],
}
BASE = {"robusthmm", "robusthmm.cli", "robusthmm.config", "robusthmm.errors",
        "robusthmm.hmm", "robusthmm.models", "robusthmm.penalty"}


def _loaded_after(code: str) -> set:
    """The ``robusthmm`` modules a fresh interpreter holds after ``code``."""
    probe = (f"import json, sys\n{code}\nprint(json.dumps(sorted(m for m in "
             f"sys.modules if m.split('.')[0] == 'robusthmm')))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command,config,extra", [
    ("simulate", "simulate.json", set()),
    ("filter", "simulate.json", set()),
    ("penalty-evolve", "oracle_t3.json", set()),
    ("expect", "oracle_t3.json", {"robusthmm.expectation"}),
    ("control", "control_t3.json", {"robusthmm.expectation",
                                    "robusthmm.control"}),
    ("oracle-check", "oracle_t3.json", {"robusthmm.expectation",
                                        "robusthmm.oracles"}),
])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, command, config,
                                                 extra):
    argv = [command, "--config", str(CONFIGS / config),
            "--out", str(tmp_path / "run")]
    loaded = _loaded_after(
        f"from robusthmm.cli import main\nassert main({argv!r}) == 0")
    assert loaded == BASE | extra


def test_importing_the_package_loads_no_module():
    assert _loaded_after("import robusthmm") == {"robusthmm"}


def test_every_public_name_resolves_to_its_defining_module():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 50
    assert sorted(robusthmm.__all__) == sorted(names)
    for module, defined in PUBLIC.items():
        home = getattr(robusthmm, module)
        for name in defined:
            assert getattr(robusthmm, name) is getattr(home, name), name
    # moved to models, still importable from where it was defined before
    params = robusthmm.UncertaintyParams
    assert robusthmm.expectation.UncertaintyParams is params
    assert set(names) <= set(dir(robusthmm))
    scope = {}
    exec("from robusthmm import *", scope)
    assert {name for name in scope if name != "__builtins__"} == set(names)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
        robusthmm.no_such  # noqa: B018


SOURCES = sorted((REPO / "src" / "robusthmm").glob("*.py"))


def _imported(path) -> set:
    """Every name a module imports, at the top or inside a function, as a
    dotted absolute name: ``from .penalty import evolve`` in the package
    is ``robusthmm.penalty.evolve``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["robusthmm" * bool(node.level),
                                          node.module]))
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_modules_import_only_the_standard_library_numpy_and_the_package(
        path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "robusthmm"}
    outside = {name.split(".")[0] for name in _imported(path)} - allowed
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_oracles_import_no_engine():
    # the oracles are the independent route to each quantity
    modules = {name.split(".")[1] for name in
               _imported(REPO / "src" / "robusthmm" / "oracles.py")
               if name.startswith("robusthmm.")}
    engines = modules & {"penalty", "expectation", "control"}
    assert not engines, f"oracles.py imports {sorted(engines)}"
