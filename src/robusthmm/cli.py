"""Batch front end: validate a JSON run configuration, execute one of the
pipeline subcommands, and write CSV/JSON artifacts.

Subcommands: ``simulate``, ``filter``, ``penalty-evolve``, ``expect``,
``control``, ``oracle-check``. Exit codes: 0 success, 1 oracle-check
mismatch, 2 invalid configuration, 3 infeasible (an observation is impossible
under every admitted model), 4 enumeration cap exceeded, or float64's range
exceeded: ``filter`` carries the exact support of the posterior and stops
where a supported state's probability underflows to 0.

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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (CapExceeded, ConfigError, DegenerateObservation,
                     InfeasibleSurface)
from .hmm import Generator, as_filter_state, filter_step, simulate_path
from .models import (DR, DYNAMIC, GeneratorGrid, SimplexGrid,
                     UncertaintyParams, normalize_penalties, parse_framework)
from .penalty import (_blocks, evolve, evolve_steps, initial_exact_surface,
                      initial_grid_surface, render_surface_csv)

ORACLE_TOL = 1e-9
HORIZON_CAP = 10 ** 6  # steps of one run
CONVERGENCE_RESOLUTIONS = (10, 20, 40)
_PHI_DRAWS = 50
_CONFIG_KEYS = frozenset({
    "n_states", "n_symbols", "horizon", "grid_resolution", "framework",
    "uncertainty", "generators", "control", "prior", "observations",
    "simulation", "phi", "output_dir"})
_UNCERTAINTY_KEYS = frozenset({"k", "k_exp"})
_GENERATOR_KEYS = frozenset({"transition", "emission", "gamma"})
_CONTROL_KEYS = frozenset({"labels", "gamma", "running_cost",
                           "terminal_cost"})
_SIMULATION_KEYS = frozenset({"transition", "emission", "p0", "seed"})
_PRIOR_KEYS = {  # per shape, the keys build_grid_prior reads
    "zero": frozenset({"shape"}),
    "point-mass": frozenset({"shape", "belief"}),
    "abs-log-odds": frozenset({"shape"}),
    "table": frozenset({"shape", "values"}),
    "support": frozenset({"shape", "beliefs", "values"}),
}


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    """Validated run configuration; one schema for every subcommand. The
    grid and the prior on it are built once, while validating."""

    n_states: int
    horizon: int
    scope: str
    framework: str
    params: UncertaintyParams
    gens: GeneratorGrid
    prior_cfg: dict
    grid: SimplexGrid
    prior_values: np.ndarray
    observations: list | None
    simulation: dict | None
    phi: np.ndarray | None
    control: dict | None
    output_dir: str | None
    raw_bytes: bytes

    def initial_surface(self):
        """The time-zero grid surface of the configured prior and scope."""
        return initial_grid_surface(self.prior_values, self.gens, self.grid,
                                    self.scope)

    def control_problem(self):
        """The configured :class:`~robusthmm.control.ControlProblem`, from
        the control block and the dynamic generator scope."""
        from .control import ControlProblem
        from .expectation import StateFunctional
        if self.control is None:
            raise ConfigError("control needs a control block")
        try:
            return ControlProblem(
                labels=tuple(self.control["labels"]), gens=self.gens,
                gammas=self.control["gamma"],
                initial_surface=self.initial_surface(),
                framework=self.framework, horizon=self.horizon,
                params=self.params,
                running_cost=self.control["running_cost"],
                terminal_cost=StateFunctional(
                    values=self.control["terminal_cost"]))
        except ValueError as exc:  # the static generator scope
            raise ConfigError(f"control: {exc}") from None


def _number(value, where: str) -> float:
    """A config number: finite, or +inf (also spelled ``"inf"``)."""
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number or \"inf\"")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: number out of range") from None
    if math.isnan(value) or value == -math.inf:
        raise ConfigError(f"{where}: expected a number or \"inf\", "
                          f"got {value}")
    return value


def _require(cfg: dict, key: str, where: str = "config"):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    if key not in cfg:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return cfg[key]


def _check_keys(block, allowed, where: str) -> None:
    """Reject a non-object block or one with keys outside ``allowed``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys: {', '.join(unknown)}")


def _int_field(cfg, key, minimum, where="config") -> int:
    value = _require(cfg, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer")
    if value < minimum:
        raise ConfigError(f"{where}: {key} must be >= {minimum}")
    return value


def _matrix(raw, shape, where) -> np.ndarray:
    """A config array of the given shape with finite entries; ``[]`` is
    the one JSON spelling of a shape with no rows, (0, U) included."""
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: not a numeric array") from None
    if arr.shape == (0,) and shape[:1] == (0,):
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ConfigError(f"{where}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where}: entries must be finite")
    return arr


def load_config(path: str, resolution: int | None = None) -> RunConfig:
    """The validated config, its grid and prior built at ``resolution``
    (``--grid-resolution``) if given, else at ``grid_resolution``."""
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
        cfg = json.loads(raw_bytes)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:  # malformed JSON, or an oversized integer
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _check_keys(cfg, _CONFIG_KEYS, "config")

    n = _int_field(cfg, "n_states", 1)
    d = _int_field(cfg, "n_symbols", 1)
    horizon = _int_field(cfg, "horizon", 0)
    if horizon > HORIZON_CAP:  # before anything is sized by it
        raise CapExceeded(f"a horizon of {horizon} steps is over the cap of "
                          f"{HORIZON_CAP}")
    configured = _int_field(cfg, "grid_resolution", 1)
    if resolution is None:
        resolution = configured
    elif resolution < 1:
        raise ConfigError("--grid-resolution must be >= 1")
    try:
        scope, framework = parse_framework(_require(cfg, "framework"))
    except ValueError as exc:
        raise ConfigError(f"framework: {exc}") from None

    unc = _require(cfg, "uncertainty")
    _check_keys(unc, _UNCERTAINTY_KEYS, "uncertainty")
    try:
        params = UncertaintyParams(k=_number(_require(unc, "k", "uncertainty"),
                                             "uncertainty.k"),
                                   k_exp=_number(unc.get("k_exp", 1.0),
                                                 "uncertainty.k_exp"))
    except ValueError as exc:
        raise ConfigError(f"uncertainty: {exc}") from None

    raw_gens = _require(cfg, "generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise ConfigError("generators must be a nonempty list")
    candidates, gammas = [], []
    for i, entry in enumerate(raw_gens):
        where = f"generators[{i}]"
        _check_keys(entry, _GENERATOR_KEYS, where)
        trans = _matrix(_require(entry, "transition", where), (n, n),
                        f"{where}.transition")
        emit = _matrix(_require(entry, "emission", where), (n, d),
                       f"{where}.emission")
        try:
            candidates.append(Generator(transition=trans, emission=emit))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        gammas.append(_number(entry.get("gamma", 0.0), f"{where}.gamma"))

    control_cfg = cfg.get("control")
    if control_cfg is not None:
        _check_keys(control_cfg, _CONTROL_KEYS, "control")
        labels = _require(control_cfg, "labels", "control")
        if not isinstance(labels, list) or not labels:
            raise ConfigError("control.labels must be a nonempty list")
        table = _require(control_cfg, "gamma", "control")
        if (not isinstance(table, list) or len(table) != len(labels)
                or any(not isinstance(row, list) or len(row) != len(candidates)
                       for row in table)):
            raise ConfigError(
                "control.gamma must be one row per control, one entry per generator")
        gamma = np.array(
            [[_number(v, "control.gamma") for v in row] for row in table])
        if not np.isfinite(gamma).any(axis=1).all():
            raise ConfigError("control.gamma: a row excludes every generator")
        run_table = _matrix(_require(control_cfg, "running_cost", "control"),
                            (horizon, len(labels)), "control.running_cost")
        term = _matrix(_require(control_cfg, "terminal_cost", "control"),
                       (n,), "control.terminal_cost")
        control_cfg = {"labels": [str(x) for x in labels], "gamma": gamma,
                       "running_cost": run_table, "terminal_cost": term}

    try:
        gens = GeneratorGrid(candidates=tuple(candidates),
                             prior_penalty=np.array(gammas))
    except (ValueError, InfeasibleSurface) as exc:
        raise ConfigError(f"generators: {exc}") from None

    prior_cfg = _require(cfg, "prior")
    if not isinstance(prior_cfg, dict) or "shape" not in prior_cfg:
        raise ConfigError("prior must be an object with a 'shape' field")
    shape = prior_cfg["shape"]
    if isinstance(shape, str) and shape in _PRIOR_KEYS:
        _check_keys(prior_cfg, _PRIOR_KEYS[shape], f"prior ({shape})")

    observations = cfg.get("observations")
    if observations is not None:
        if (not isinstance(observations, list)
                or any(isinstance(y, bool) or not isinstance(y, int)
                       or not 0 <= y < d for y in observations)):
            raise ConfigError(f"observations must be symbols in [0, {d})")
        if len(observations) != horizon:
            raise ConfigError(
                f"observations lists {len(observations)} symbols but the "
                f"horizon is {horizon}")

    simulation = cfg.get("simulation")
    if simulation is not None:
        where = "simulation"
        _check_keys(simulation, _SIMULATION_KEYS, where)
        trans = _matrix(_require(simulation, "transition", where), (n, n),
                        f"{where}.transition")
        emit = _matrix(_require(simulation, "emission", where), (n, d),
                       f"{where}.emission")
        try:
            model = Generator(transition=trans, emission=emit)
            p0 = as_filter_state(_matrix(_require(simulation, "p0", where),
                                         (n,), f"{where}.p0"))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        seed = _int_field(simulation, "seed", 0, where)
        if seed >= 2 ** 128:
            raise ConfigError(f"{where}: seed must be < 2**128")
        simulation = {"model": model, "p0": p0, "seed": seed}

    phi = cfg.get("phi")
    if phi is not None:
        phi = _matrix(phi, (n,), "phi")

    out_dir = cfg.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output_dir must be a string")

    # build the prior eagerly so bad tables fail fast
    grid = SimplexGrid.build(n, resolution)
    prior_values = build_grid_prior(prior_cfg, grid)

    return RunConfig(n_states=n, horizon=horizon, scope=scope,
                     framework=framework, params=params, gens=gens,
                     prior_cfg=prior_cfg, grid=grid, prior_values=prior_values,
                     observations=observations, simulation=simulation,
                     phi=phi, control=control_cfg, output_dir=out_dir,
                     raw_bytes=raw_bytes)


def build_grid_prior(prior_cfg: dict, grid: SimplexGrid) -> np.ndarray:
    """Initial penalty values on the grid from a named prior shape; a prior
    that excludes every grid point is a configuration error."""
    shape = prior_cfg["shape"]
    if shape == "zero":
        values = np.zeros(len(grid))
    elif shape == "point-mass":
        belief = _matrix(_require(prior_cfg, "belief", "prior"),
                         (grid.n_states,), "prior.belief")
        try:
            belief = as_filter_state(belief)
        except ValueError as exc:
            raise ConfigError(f"prior.belief: {exc}") from None
        values = np.full(len(grid), np.inf)
        values[grid.round_to_index(belief)] = 0.0
    elif shape == "abs-log-odds":
        if grid.n_states != 2:
            raise ConfigError("abs-log-odds prior needs exactly two states")
        with np.errstate(divide="ignore"):
            ratio = grid.points[:, 0] / grid.points[:, 1]
            values = np.abs(np.where(ratio > 0, np.log(ratio), -np.inf))
    elif shape == "table":
        raw_vals = _require(prior_cfg, "values", "prior")
        if not isinstance(raw_vals, list) or len(raw_vals) != len(grid):
            raise ConfigError(
                f"prior.values must list one value per grid point "
                f"({len(grid)} at resolution {grid.resolution}); a table "
                f"prior exists at one resolution only")
        values = np.array([_number(v, "prior.values") for v in raw_vals])
    elif shape == "support":
        beliefs = _require(prior_cfg, "beliefs", "prior")
        raw_vals = _require(prior_cfg, "values", "prior")
        if (not isinstance(beliefs, list) or not isinstance(raw_vals, list)
                or len(beliefs) != len(raw_vals)):
            raise ConfigError("prior.beliefs and prior.values must align")
        coords, support = [], []
        for b, v in zip(beliefs, raw_vals):
            b = _matrix(b, (grid.n_states,), "prior.beliefs")
            support.append(_number(v, "prior.values"))
            try:
                coords.append(grid.exact_coords(b))
            except ValueError:
                raise ConfigError(
                    f"prior support belief {b.tolist()} is not a grid point "
                    f"at resolution {grid.resolution}") from None
        values = np.full(len(grid), np.inf)
        # one rank call; a repeated belief keeps its last value
        ranks = grid.rank(np.reshape(coords, (-1, grid.n_states)))
        for i, v in zip(ranks.tolist(), support):
            values[i] = v
    else:
        raise ConfigError(f"unknown prior shape {shape!r}")
    if not np.isfinite(values).any():
        raise ConfigError("prior excludes every belief")
    return values


def build_exact_prior(values: np.ndarray, grid: SimplexGrid):
    """Exact-belief prior from grid prior values: the grid points the prior
    does not exclude, and their values normalized to minimum zero."""
    finite = np.isfinite(values)
    return grid.points[finite], normalize_penalties(values[finite])


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


def _check_one_framework(label: str, cfg: RunConfig, obs, phis, runs, walks):
    """Exact-tree evolution versus enumeration, plus worst-case expectations
    of the payoff rows ``phis`` against enumerated models, for one framework
    label. ``walks`` holds one walk of the model set per scope, which scores
    both frameworks, every observation prefix and every payoff."""
    from .expectation import _dr_scores
    from .oracles import (OracleReport, _walk_models, payoff_values,
                          penalty_table)
    scope, framework = parse_framework(label)
    beliefs, values = build_exact_prior(cfg.prior_values, cfg.grid)
    surfaces = _exact_run(runs, beliefs, values, cfg.gens, obs, framework,
                          scope)
    if scope not in walks:
        walks[scope] = _walk_models(beliefs, values, cfg.gens, obs, scope,
                                    None)
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
    grids = [cfg.grid if m == cfg.grid.resolution
             else SimplexGrid.build(cfg.n_states, m)
             for m in CONVERGENCE_RESOLUTIONS]
    sweep = [(grid, cfg.prior_values if grid is cfg.grid
              else build_grid_prior(cfg.prior_cfg, grid)) for grid in grids]
    rng = np.random.Generator(np.random.Philox(key=2026))
    phis = rng.uniform(-1.0, 1.0, size=(_PHI_DRAWS, cfg.n_states))
    runs: dict = {}  # exact runs of this check, see _exact_run
    walks: dict = {}  # model walks of this check, one per scope
    report_batches = run.pmap(
        lambda label: _check_one_framework(label, cfg, obs, phis, runs, walks),
        _FRAMEWORK_LABELS)
    reports = [r for batch in report_batches for r in batch]
    errors = run.pmap(lambda prior: _convergence_error(*prior, cfg, obs, runs),
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
        cmd.add_argument("--grid-resolution", type=int, default=None,
                         help="override the configured simplex resolution")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.grid_resolution)
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
