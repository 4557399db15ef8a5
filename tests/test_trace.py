"""The benchmark's layer tracer, ``bench/spans.py``, wraps package
functions and class attributes by name. A rename or merge in the package
that leaves one of those names behind, that makes a static-scope step
count no cells, that renders a surface file past the traced renderer,
that miscounts the tree's nodes, that steps an exact surface past the
traced exact step, or that moves the state cap off the control problem,
fails here instead of only under ``bench/run.py --trace 1``.
"""

import importlib.util
import json
import sys

from conftest import CONFIGS, REPO
from robusthmm import ControlProblem, cli
from robusthmm.cli import main


def _load_spans():
    """``bench/spans.py`` as a module, leaving no bytecode under bench/."""
    spec = importlib.util.spec_from_file_location(
        "spans", REPO / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def _with_label(tmp_path, name, label):
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["framework"] = label
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_bench_tracer_wraps_every_layer(tmp_path):
    spans = _load_spans()
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in benchmark["per_layer"]} - {"trace.overhead_s"}
    tracer = spans.Tracer()
    tracer.install()
    traced = cli.render_surface_csv
    batches = []  # the number of texts each traced render call returned

    def counted(*args, **kwargs):
        texts = traced(*args, **kwargs)
        batches.append(len(texts))
        return texts

    cli.render_surface_csv = counted
    try:
        static = _with_label(tmp_path, "oracle_t3.json", "static-dr")
        assert main(["penalty-evolve", "--config", str(static),
                     "--out", str(tmp_path / "static")]) == 0
        assert tracer.layer_metrics()["penalty.cell_steps"] > 0
        runs = [("penalty-evolve",
                 _with_label(tmp_path, "oracle_t3.json", "dynamic-up")),
                ("expect", CONFIGS / "oracle_t3.json"),
                ("control", CONFIGS / "control_t3.json")]
        for command, config in runs:
            assert main([command, "--config", str(config),
                         "--out", str(tmp_path / command)]) == 0
    finally:
        cli.render_surface_csv = traced
        tracer.remove()
    metrics = tracer.layer_metrics()
    assert wanted <= set(metrics)
    # the one traced tree, oracle_t3.json's H=3 over 2 symbols
    assert metrics["expectation.tree_nodes"] == 1 + 2 + 4 + 8
    # the one traced solve reads its cap off the problem it is handed
    assert metrics["control.states"] > 0
    assert metrics["control.cap_headroom"] == (
        1.0 - metrics["control.states"] / ControlProblem.state_cap)
    # every surface file is rendered under the traced name, once; a call
    # renders a batch: one step of penalty-evolve, tree nodes or states
    surface_files = list(tmp_path.rglob("surface_*.csv"))
    assert len(surface_files) > len(runs)
    assert metrics["penalty.render_calls"] == len(batches)
    assert sum(batches) == len(surface_files)
    assert len(batches) < len(surface_files)


def test_bench_tracer_counts_the_exact_steps_of_oracle_check(tmp_path):
    # oracle_t3.json checks four frameworks of three exact steps each, all
    # through the traced exact_step (a kernel call that bypasses that name
    # reads fewer here); the 50 payoffs of each check are scored in one
    # batched scan, not through the traced one-row dr_expectation
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert main(["oracle-check", "--config",
                     str(CONFIGS / "oracle_t3.json"),
                     "--out", str(tmp_path / "oracle-check")]) == 0
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    assert metrics["penalty.exact_step_calls"] == 4 * 3
    assert metrics["expectation.sup_scan_calls"] == 0
