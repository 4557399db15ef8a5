"""The run configuration: one JSON schema for every subcommand, validated by
:func:`load_config` into a :class:`RunConfig` without building a grid; the
grid and the prior on it are built by :meth:`RunConfig.grid_prior`, for the
subcommands that read them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, ConfigError, InfeasibleSurface
from .hmm import Generator, as_filter_state
from .models import (GeneratorGrid, SimplexGrid, UncertaintyParams,
                     normalize_penalties, parse_framework)

HORIZON_CAP = 10 ** 6  # steps of one run
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


@dataclass
class RunConfig:
    """Validated run configuration; one schema for every subcommand. The
    grid and its prior are built by :meth:`grid_prior`, on first use."""

    n_states: int
    horizon: int
    grid_resolution: int  # the --grid-resolution override, else the config's
    scope: str
    framework: str
    params: UncertaintyParams
    gens: GeneratorGrid
    prior_cfg: dict
    observations: list | None
    simulation: dict | None
    phi: np.ndarray | None
    control: dict | None
    output_dir: str | None
    raw_bytes: bytes
    _grid_priors: dict = field(default_factory=dict, init=False, repr=False)

    def grid_prior(self, m: int | None = None):
        """The grid at resolution ``m`` (default ``grid_resolution``) and
        the configured prior's values on it, built on the first call."""
        m = self.grid_resolution if m is None else m
        if m not in self._grid_priors:
            grid = SimplexGrid.build(self.n_states, m)
            self._grid_priors[m] = grid, build_grid_prior(self.prior_cfg, grid)
        return self._grid_priors[m]

    def initial_surface(self):
        """The time-zero grid surface of the configured prior and scope."""
        from .penalty import initial_grid_surface
        grid, values = self.grid_prior()
        return initial_grid_surface(values, self.gens, grid, self.scope)

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
    """``cfg[key]`` of a block that is already checked to be an object."""
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
    """The validated config; its grid and prior are built at ``resolution``
    (``--grid-resolution``) if given, else at ``grid_resolution``."""
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
        cfg = json.loads(raw_bytes)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an oversized integer, or nesting too deep to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _check_keys(cfg, _CONFIG_KEYS, "config")

    n = _int_field(cfg, "n_states", 1)
    d = _int_field(cfg, "n_symbols", 1)
    horizon = _int_field(cfg, "horizon", 0)
    if horizon > HORIZON_CAP:  # before anything is sized by it
        raise CapExceeded(f"a horizon of {horizon} steps is over the cap of "
                          f"{HORIZON_CAP}")
    configured = _int_field(cfg, "grid_resolution", 1)
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
    if not isinstance(shape, str) or shape not in _PRIOR_KEYS:
        raise ConfigError(f"unknown prior shape {shape!r}")
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

    return RunConfig(n_states=n, horizon=horizon,
                     grid_resolution=configured if resolution is None
                     else resolution, scope=scope, framework=framework,
                     params=params, gens=gens, prior_cfg=prior_cfg,
                     observations=observations, simulation=simulation,
                     phi=phi, control=control_cfg, output_dir=out_dir,
                     raw_bytes=raw_bytes)


def build_grid_prior(prior_cfg: dict, grid: SimplexGrid) -> np.ndarray:
    """Initial penalty values on the grid from an admitted prior block; a
    prior that excludes every grid point is a configuration error."""
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
    else:  # "support", the last shape load_config admits
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
    if not np.isfinite(values).any():
        raise ConfigError("prior excludes every belief")
    return values


def build_exact_prior(values: np.ndarray, grid: SimplexGrid):
    """Exact-belief prior from grid prior values: the grid points the prior
    does not exclude, and their values normalized to minimum zero."""
    finite = np.isfinite(values)
    return grid.points[finite], normalize_penalties(values[finite])

