"""Batch front end: read a JSON run configuration (:mod:`robusthmm.config`),
execute one of the pipeline subcommands, and write CSV/JSON artifacts.

Subcommands: ``simulate``, ``filter``, ``penalty-evolve``, ``expect``,
``control``, ``oracle-check``; the last four build the grid and prior before
any output, and ``simulate`` and ``filter`` never do. Exit codes: 0 success, 1
oracle-check mismatch, 2 invalid configuration, 3 infeasible (an observation is
impossible under every admitted model), 4 enumeration cap exceeded, or
float64's range exceeded: ``filter`` carries the exact support of the posterior
and stops where a supported state's probability underflows to 0.

Runs are serial; ``--threads`` is accepted for compatibility and ignored.
Artifacts are written atomically (temp file + rename) and are byte-identical
across runs for a fixed configuration; the run manifest is the only file
carrying a wall-clock field. JSON artifacts are strict JSON: a value that is
infinite or NaN is written as text (``"inf"``, ``"-inf"``, ``"nan"``).

A run imports only the modules its subcommand executes: ``control``,
``expectation`` and ``oracles`` are imported inside the subcommands that
run them, so ``simulate``, ``filter`` and ``penalty-evolve`` load none of
the three.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import RunConfig, build_exact_prior, load_config
from .errors import (CapExceeded, ConfigError, DegenerateObservation,
                     InfeasibleSurface)
from .hmm import filter_step, simulate_path
from .models import DR, DYNAMIC, GeneratorGrid, parse_framework
from .penalty import (_blocks, evolve, evolve_steps, initial_exact_surface,
                      initial_grid_surface, render_surface_csv)

ORACLE_TOL = 1e-9
CONVERGENCE_RESOLUTIONS = (10, 20, 40)
_PHI_DRAWS = 50


# ---------------------------------------------------------------------------
# artifact plumbing

def _json_number(x: float):
    """``x`` as strict JSON takes it: a finite float as is, an infinite or
    NaN one as its text, ``"inf"``, ``"-inf"`` or ``"nan"``."""
    return x if math.isfinite(x) else str(float(x))


def _write_atomic(out_dir: str, name: str, text: str) -> str:
    final = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, final)
    return name


def _add_surfaces(run, names: list, surfaces: list) -> None:
    """Write each surface's CSV, rendered in the level kernels' batches."""
    for block in _blocks(surfaces, surfaces[0].values.size):
        texts = render_surface_csv(surfaces[block])
        for name, text in zip(names[block], texts):
            run.add_csv(name, text)


def _write_json(out_dir: str, name: str, doc: dict) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return _write_atomic(out_dir, name, text)


class Run:
    """Collects artifacts and finishes with a manifest.

    The output directory is made here, before any computation, so a path
    that cannot be one fails as a configuration error, not after the job.
    """

    def __init__(self, command: str, cfg: RunConfig, out_dir: str):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory "
                              f"{out_dir!r}: {exc}") from None
        self.command = command
        self.cfg = cfg
        self.out_dir = out_dir
        self.files: list[str] = []
        self.extra: dict = {}
        self.started = time.perf_counter()

    def pmap(self, fn, items):
        """Order-preserving map over independent work items."""
        return [fn(item) for item in items]

    def add_csv(self, name: str, text: str) -> str:
        self.files.append(_write_atomic(self.out_dir, name, text))
        return name

    def add_json(self, name: str, doc: dict) -> str:
        self.files.append(_write_json(self.out_dir, name, doc))
        return name

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config_sha256": hashlib.sha256(self.cfg.raw_bytes).hexdigest(),
            "package_version": __version__,
            "files": sorted(self.files),
            "wall_time_s": round(time.perf_counter() - self.started, 6),
        }
        manifest.update(self.extra)
        _write_json(self.out_dir, "manifest.json", manifest)


def _simulated_path(cfg: RunConfig):
    sim = cfg.simulation
    return simulate_path([sim["model"]] * cfg.horizon, sim["p0"], cfg.horizon,
                         sim["seed"])


def _observations(cfg: RunConfig) -> list[int]:
    if cfg.observations is not None:
        return list(cfg.observations)
    if cfg.simulation is None:
        raise ConfigError("need explicit observations or a simulation block")
    return [int(y) for y in _simulated_path(cfg).observed]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(run: Run) -> int:
    cfg = run.cfg
    if cfg.simulation is None:
        raise ConfigError("simulate needs a simulation block")
    path = _simulated_path(cfg)
    lines = ["t,hidden,observation", f"0,{int(path.hidden[0])},"]
    for t in range(1, cfg.horizon + 1):
        lines.append(f"{t},{int(path.hidden[t])},{int(path.observed[t - 1])}")
    run.add_csv("path.csv", "\n".join(lines) + "\n")
    run.extra["seed"] = cfg.simulation["seed"]
    return 0


def _cmd_filter(run: Run) -> int:
    cfg = run.cfg
    if cfg.simulation is None:
        raise ConfigError("filter needs a simulation block naming the model")
    obs = _observations(cfg)
    model, p = cfg.simulation["model"], cfg.simulation["p0"]
    support = p > 0  # the states the exact posterior gives positive mass
    header = ["t", "observation"] + [f"p{i}" for i in range(cfg.n_states)]
    lines = [",".join(header), ",".join(["0", "", *map(repr, p.tolist())])]
    for t, y in enumerate(obs, start=1):
        p = filter_step(p, model, y)
        support = (model.transition > 0) @ support & (model.emission[:, y] > 0)
        lost = np.flatnonzero(support & (p == 0))
        if lost.size:
            raise CapExceeded(
                f"belief underflow at step {t}: state {lost[0]} is reachable "
                f"but its float64 probability is 0")
        lines.append(",".join([str(t), str(y), *map(repr, p.tolist())]))
    run.add_csv("filter.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_penalty_evolve(run: Run) -> int:
    cfg = run.cfg
    obs = _observations(cfg)
    run.extra["m_t"] = m_t = []  # each step is written, then let go
    for t, (surface, report) in enumerate(evolve_steps(
            cfg.initial_surface(), cfg.gens, obs, cfg.framework)):
        run.add_csv(f"surface_t{t:03d}.csv",
                    render_surface_csv([surface], [report])[0])
        if report is not None:
            m_t.append(report.m_t)
    run.extra["observations"] = obs
    return 0


def _cmd_expect(run: Run) -> int:
    from .expectation import (StateFunctional, TreeSetup,
                              backward_expectation, bsde_decompose,
                              history_label, tree_document)
    cfg = run.cfg
    if cfg.phi is None:
        raise ConfigError("expect needs a phi field (payoff per state)")
    setup = TreeSetup(gens=cfg.gens, framework=cfg.framework,
                      horizon=cfg.horizon,
                      initial_surface=cfg.initial_surface(),
                      params=cfg.params)
    tree = backward_expectation(StateFunctional(values=cfg.phi), setup)
    bsde_decompose(tree, setup)
    names = [f"surface_{history_label(h)}.csv" for h in tree.histories()]
    _add_surfaces(run, names, tree.nodes)
    run.add_json("tree.json", tree_document(tree, dict(enumerate(names))))
    run.extra["root_value"] = _json_number(float(tree.values[0][0]))
    return 0


def _cmd_control(run: Run) -> int:
    from .control import solve
    from .expectation import history_label
    problem = run.cfg.control_problem()
    solution = solve(problem)
    names = [f"surface_state_{sid:04d}.csv"
             for sid in range(len(solution.registry))]
    _add_surfaces(run, names, solution.registry)
    values_doc, policy_doc = {}, {}
    for (history, sid), record in sorted(solution.values.items()):
        key = f"{history_label(history)}|{sid}"
        values_doc[key] = {
            "value": _json_number(record.value), "control": record.control,
            "q_values": None if record.q_values is None
            else [_json_number(q) for q in record.q_values]}
        if record.control is not None:
            policy_doc[key] = {"control": record.control,
                               "label": problem.labels[record.control]}
    run.add_json("values.json", values_doc)
    run.add_json("policy.json", policy_doc)
    run.add_json("states.json", {str(k): v for k, v in enumerate(names)})
    run.extra["root_value"] = _json_number(solution.root_value)
    return 0


_FRAMEWORK_LABELS = ("static-up", "dynamic-up", "static-dr", "dynamic-dr")


def _exact_run(runs: dict, beliefs, values, gens: GeneratorGrid, obs,
               framework: str, scope: str) -> list:
    """The exact surfaces of one prior through ``obs``, evolved once per
    oracle-check: ``runs`` maps (scope, framework, belief bytes, value
    bytes) of the exact prior to the surfaces already evolved from it."""
    key = (scope, framework, beliefs.tobytes(), values.tobytes())
    if key not in runs:
        runs[key] = evolve(initial_exact_surface(beliefs, values, gens, scope),
                           gens, obs, framework)[0]
    return runs[key]


def _check_one_framework(label: str, cfg: RunConfig, prior, obs, phis, runs,
                         walks):
    """Exact-tree evolution from the exact ``prior`` versus enumeration, plus
    worst-case expectations of the payoff rows ``phis`` against enumerated
    models, for one framework label. ``walks`` holds one walk of the model
    set per scope, which scores both frameworks, every observation prefix
    and every payoff."""
    from .expectation import _dr_scores
    from .oracles import (OracleReport, _walk_models, payoff_values,
                          penalty_table)
    scope, framework = parse_framework(label)
    surfaces = _exact_run(runs, *prior, cfg.gens, obs, framework, scope)
    if scope not in walks:
        walks[scope] = _walk_models(*prior, cfg.gens, obs, scope, None)
    levels = walks[scope][framework]
    reports = []
    for t, (surface, models) in enumerate(zip(surfaces, levels)):
        oracle = penalty_table(models, scope)
        engine = surface.as_lookup()
        if set(oracle) != set(engine):
            reports.append(OracleReport(
                quantity=f"{label}/penalty_t{t}", oracle_value=float(len(oracle)),
                engine_value=float(len(engine)), instance="reachable-set"))
            continue
        anchor = max(oracle, key=lambda k: abs(oracle[k] - engine[k])) \
            if oracle else None
        reports.append(OracleReport(
            quantity=f"{label}/penalty_t{t}",
            oracle_value=oracle[anchor] if anchor is not None else 0.0,
            engine_value=engine[anchor] if anchor is not None else 0.0,
            instance=f"sup-over-{len(oracle)}-rows"))
    oracle_vals = payoff_values(levels[-1], phis, k=cfg.params.k,
                                k_exp=cfg.params.k_exp)
    final = surfaces[-1]  # every payoff's dr_expectation, one gemv each
    dr_vals = _dr_scores((final.beliefs[None] @ phis[:, :, None])[..., 0],
                         final.values[None], cfg.params)[0]
    for j, (oracle_val, engine_val) in enumerate(zip(oracle_vals, dr_vals)):
        reports.append(OracleReport(quantity=f"{label}/dr_expectation_{j}",
                                    oracle_value=float(oracle_val),
                                    engine_value=engine_val,
                                    instance="random-phi"))
    return reports


def _convergence_error(grid, values, cfg: RunConfig, obs, runs) -> float:
    """Sup-norm gap between a grid run from prior ``values`` on ``grid`` and
    the exact run, over every step and every reachable exact belief, all
    rounded by one call. The exact run comes from ``runs`` when an earlier
    item of the same check evolved the same exact prior."""
    gridded, _ = evolve(initial_grid_surface(values, cfg.gens, grid, DYNAMIC),
                        cfg.gens, obs, DR)
    exact = _exact_run(runs, *build_exact_prior(values, grid), cfg.gens, obs,
                       DR, DYNAMIC)
    cells = grid.round_rows(np.concatenate([s.beliefs for s in exact]))
    steps = np.repeat(np.arange(len(exact)), [len(s) for s in exact])
    on_grid = np.stack([s.values for s in gridded])[steps, cells]
    return float(np.max(np.abs(on_grid - np.concatenate([s.values
                                                         for s in exact]))))


def _cmd_oracle_check(run: Run) -> int:
    from .oracles import render_report_csv
    cfg = run.cfg
    obs = _observations(cfg)
    # every sweep prior is built before any check runs, so a bad one fails fast
    sweep = [cfg.grid_prior(m) for m in CONVERGENCE_RESOLUTIONS]
    grid, values = cfg.grid_prior()
    prior = build_exact_prior(values, grid)
    rng = np.random.Generator(np.random.Philox(key=2026))
    phis = rng.uniform(-1.0, 1.0, size=(_PHI_DRAWS, cfg.n_states))
    runs: dict = {}  # exact runs of this check, see _exact_run
    walks: dict = {}  # model walks of this check, one per scope
    report_batches = run.pmap(
        lambda label: _check_one_framework(label, cfg, prior, obs, phis, runs,
                                           walks), _FRAMEWORK_LABELS)
    reports = [r for batch in report_batches for r in batch]
    errors = run.pmap(lambda pair: _convergence_error(*pair, cfg, obs, runs),
                      sweep)
    run.add_csv("oracle_report.csv", render_report_csv(reports))
    max_diff = max(r.abs_diff for r in reports)
    run.extra["max_abs_diff"] = _json_number(max_diff)
    # a sup error is inf where an exact belief rounds to an excluded cell
    errors = [_json_number(e) for e in errors]
    run.extra["grid_convergence"] = {
        "resolutions": list(CONVERGENCE_RESOLUTIONS),
        "sup_errors": errors,
        "final_error": errors[-1],
    }
    return 0 if max_diff <= ORACLE_TOL else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "filter": _cmd_filter,
    "penalty-evolve": _cmd_penalty_evolve,
    "expect": _cmd_expect,
    "control": _cmd_control,
    "oracle-check": _cmd_oracle_check,
}
_GRID_COMMANDS = {"penalty-evolve", "expect", "control", "oracle-check"}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


@functools.cache  # one parser per process, built on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robusthmm",
        description="Penalty-surface filtering, expectation, and control "
                    "pipelines for finite hidden Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON run configuration")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: config output_dir "
                              "or ./out)")
        cmd.add_argument("--threads", type=_positive_int, default=1,
                         help="accepted for compatibility; runs are serial")
        cmd.add_argument("--grid-resolution", type=_positive_int, default=None,
                         help="override the configured simplex resolution")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.grid_resolution)
        if args.command in _GRID_COMMANDS:
            cfg.grid_prior()  # before Run makes the output directory
        out_dir = args.out or cfg.output_dir or "out"
        run = Run(args.command, cfg, out_dir)
        code = _COMMANDS[args.command](run)
        run.finish()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleSurface, DegenerateObservation) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
