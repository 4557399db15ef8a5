"""Brute-force and closed-form ground truths for the engines.

Everything here is computed from the defining formulas by plain enumeration:
walk every (initial belief, generator path) pair with the one-step Bayes
filter, accumulate its penalty, and group by where it lands. The walk goes
level by level, extending each surviving path prefix once per generator,
lists the models in (prior belief, lexicographic generator path) order, and
keeps every level: level ``t`` holds the models of the first ``t``
observations. One walk therefore serves every observation prefix and a whole
stack of payoffs; :func:`penalty_table` and :func:`payoff_values` score one
level each. These functions deliberately do not import the
surface-propagation or expectation engines, so the two routes to each
quantity stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceeded, DegenerateObservation
from .hmm import filter_step
from .models import (DR, DYNAMIC, STATIC, GeneratorGrid, SimplexGrid,
                     gamma_at)

ORACLE_CAP_DEFAULT = 10 ** 6


@dataclass(frozen=True)
class OracleReport:
    """One engine-versus-oracle comparison, difference always recorded."""

    quantity: str
    oracle_value: float
    engine_value: float
    instance: str
    abs_diff: float = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "abs_diff",
                           abs(self.oracle_value - self.engine_value))


def render_report_csv(reports: Sequence[OracleReport]) -> str:
    lines = ["quantity,oracle_value,engine_value,abs_diff,instance"]
    for r in reports:
        lines.append(",".join([r.quantity, repr(float(r.oracle_value)),
                               repr(float(r.engine_value)),
                               repr(float(r.abs_diff)), r.instance]))
    return "\n".join(lines) + "\n"


def _walk_models(prior_beliefs, prior_values, gens: GeneratorGrid, obs,
                 framework: str, scope: str, grid: SimplexGrid | None,
                 cap: int) -> list[list]:
    """The surviving models after every step: level ``t`` lists the models
    of ``obs[:t]`` as (belief, accumulated raw penalty, first generator
    index), in (prior belief, lexicographic generator path) order. Dead
    models (zero-probability steps or infinite penalty) are skipped.

    The walk goes level by level: each surviving prefix is extended once
    with each admissible generator (in the static scope only its own), so a
    shared prefix is filtered once, not once per path through it. Each step
    keeps one fixed float-op sequence, so equal beliefs come out with equal
    bytes. With a ``grid``, each level after the prior is re-rounded by one
    :meth:`~robusthmm.models.SimplexGrid.round_rows` call, which rounds
    every row as it would round that row alone. The cap bounds the models
    of the last level and is checked before any filtering.
    """
    prior_beliefs = np.asarray(prior_beliefs, dtype=np.float64)
    prior_values = np.asarray(prior_values, dtype=np.float64)
    n_steps = len(obs)
    n_models = len(prior_values) * (len(gens) if scope == STATIC
                                    else len(gens) ** n_steps)
    if n_models > cap:
        raise CapExceeded(f"{n_models} models exceed the cap of {cap}")
    frontier = []
    for b0, pen0 in zip(prior_beliefs, prior_values):
        if not np.isfinite(pen0):
            continue
        if scope == DYNAMIC:
            frontier.append((b0 + 0.0, float(pen0), 0))
            continue
        for g in range(len(gens)):
            penalty = float(pen0) + float(gens.prior_penalty[g])
            if np.isfinite(penalty):
                frontier.append((b0 + 0.0, penalty, g))
    levels = [frontier]
    gamma = gamma_at(gens)
    for t, y in enumerate(obs, start=1):
        extended = []
        for belief, penalty, first in frontier:
            for g in (range(len(gens)) if scope == DYNAMIC else (first,)):
                gen = gens.candidates[g]
                step_penalty = penalty
                if scope == DYNAMIC:
                    step_penalty += float(gamma[g])
                    if not np.isfinite(step_penalty):
                        continue
                mass = float((gen.transition @ belief) @ gen.emission[:, y])
                if mass <= 0.0:
                    continue
                if framework == DR:
                    step_penalty -= log(mass)
                extended.append((filter_step(belief, gen, y) + 0.0,
                                 step_penalty, g if t == 1 else first))
        if grid is not None and extended:
            cells = grid.round_rows(np.array([e[0] for e in extended]))
            extended = [(point, step_penalty, first)
                        for point, (_, step_penalty, first)
                        in zip(grid.points[cells] + 0.0, extended)]
        frontier = extended
        levels.append(frontier)
    return levels


def penalty_table(models: Sequence[tuple], scope: str,
                  grid: SimplexGrid | None = None) -> dict:
    """Penalty per reachable belief of one level of :func:`_walk_models`.

    Keys are belief bytes (exact tracking) or grid cell indices (with a
    ``grid``); in the static scope the key is the (generator index, belief)
    pair. Values are normalized so the global minimum is zero.
    """
    if grid is not None and models:
        wheres = grid.round_rows(np.array([b for b, _, _ in models])).tolist()
    else:
        wheres = [belief.tobytes() for belief, _, _ in models]
    table: dict = {}
    for where, (_, penalty, g) in zip(wheres, models):
        key = (g, where) if scope == STATIC else where
        if key not in table or penalty < table[key]:
            table[key] = penalty
    if not table:
        return table
    floor = min(table.values())
    return {k: v - floor for k, v in table.items()}


def payoff_values(models: Sequence[tuple], phis: np.ndarray, k: float,
                  k_exp: float = 1.0) -> np.ndarray:
    """Worst-case expectation of each payoff row of ``phis`` (draws x
    states) over one level of :func:`_walk_models`: every model contributes
    its conditional expectation of the payoff minus its converted,
    class-normalized penalty."""
    if not models:
        raise DegenerateObservation("every model excludes the observations")
    floor = min(penalty for _, penalty, _ in models)
    rho = []
    for _, penalty, _ in models:
        alpha = penalty - floor
        if k_exp == inf:
            rho.append(0.0 if alpha <= k else inf)
        else:
            rho.append((alpha / k) ** k_exp)
    beliefs = np.array([belief for belief, _, _ in models])
    return (_expectations(beliefs, phis) - np.array(rho)[:, None]).max(axis=0)


def oracle_penalty(prior_beliefs, prior_values, gens: GeneratorGrid,
                   obs: Sequence[int], framework: str, scope: str,
                   grid: SimplexGrid | None = None,
                   cap: int = ORACLE_CAP_DEFAULT) -> dict:
    """Penalty per reachable terminal belief, by direct enumeration: the
    :func:`penalty_table` of the last level of one walk, which re-rounds
    to ``grid`` after every step when one is given."""
    levels = _walk_models(prior_beliefs, prior_values, gens, obs, framework,
                          scope, grid, cap)
    return penalty_table(levels[-1], scope, grid)


def oracle_dr_direct(phis, prior_beliefs, prior_values, gens: GeneratorGrid,
                     obs: Sequence[int], framework: str, scope: str, k: float,
                     k_exp: float = 1.0, grid: SimplexGrid | None = None,
                     cap: int = ORACLE_CAP_DEFAULT) -> np.ndarray:
    """Worst-case expectations of terminal-state payoffs by raw enumeration:
    the :func:`payoff_values` of the last level of one walk.

    ``phis`` stacks one payoff per row (draws x states); the result holds one
    value per row. No surface is ever built, and one walk of the model set
    serves every row.
    """
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 2:
        raise ValueError(f"phis must be a (draws x states) stack, got shape "
                         f"{phis.shape}")
    levels = _walk_models(prior_beliefs, prior_values, gens, obs, framework,
                          scope, grid, cap)
    return payoff_values(levels[-1], phis, k, k_exp)


def _expectations(beliefs: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """``beliefs @ phis.T``, each entry with the bits of ``belief @ phi``.

    Both operands are padded to at least two rows: a one-row product goes
    down the BLAS matrix-vector route, which rounds differently from the
    vector dot product, while the matrix-matrix route matched it bit for bit
    (OpenBLAS 0.3.31 SkylakeX kernels, 1 to 9 states, 1 to 1000 rows).
    """
    m, d = len(beliefs), len(phis)
    if m < 2:
        beliefs = np.concatenate([beliefs, beliefs])
    if d < 2:
        phis = np.concatenate([phis, phis])
    return (beliefs @ phis.T)[:m, :d]


def bernoulli_closed_forms(a: float, b: float, obs: Sequence[int],
                           kappa0: Callable[[np.ndarray], np.ndarray]):
    """Closed-form penalty updates for the two-state identity-chain model
    where symbol 0 has probability ``a`` (state 1) or ``b`` (state 2).

    ``kappa0`` maps initial log-odds to initial penalties. Returns two
    vectorized functions of the time-``t`` log-odds: the fixed-prior penalty
    (a pure shift of ``kappa0``) and the data-driven penalty (shift plus
    log-evidence, normalized to minimum zero within each queried batch).
    """
    if not (0 < a < 1 and 0 < b < 1):
        raise ValueError("a and b must lie in (0, 1)")
    n0 = sum(1 for y in obs if y == 0)
    n1 = len(obs) - n0
    shift = n0 * log(a / b) + n1 * log((1 - a) / (1 - b))

    def fixed_prior(ells):
        ells = np.asarray(ells, dtype=np.float64)
        return kappa0(ells - shift)

    def data_driven(ells):
        ells = np.asarray(ells, dtype=np.float64)
        ell0 = ells - shift
        p1 = 1.0 / (1.0 + np.exp(-ell0))
        p2 = 1.0 - p1
        evidence = (p1 * a ** n0 * (1 - a) ** n1
                    + p2 * b ** n0 * (1 - b) ** n1)
        raw = kappa0(ell0) - np.log(evidence)
        finite = raw[np.isfinite(raw)]
        return raw - finite.min()

    return fixed_prior, data_driven
