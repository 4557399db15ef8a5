"""Brute-force and closed-form ground truths for the engines.

Everything here is computed from the defining formulas by plain enumeration:
walk every (initial belief, generator path) pair with the one-step Bayes
filter, accumulate its UP and DR penalties, and group by where it lands. One
stacked Bayes update per generator a level keeps the one-row filter's bits:
posteriors are ``filter_step``'s, masses the per-row ``(T @ b) @ e[:, y]``,
log masses ``math.log``'s. Level ``t`` holds the models of the first ``t``
observations as arrays, in (prior belief, lexicographic generator path)
order, so one walk per scope serves both frameworks, every prefix and a
stack of payoffs. Nothing here imports the surface-propagation or
expectation engines, so the two routes to each quantity stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CapExceeded, DegenerateObservation
from .models import (DR, DYNAMIC, STATIC, UP, GeneratorGrid, SimplexGrid,
                     row_bytes)

ORACLE_CAP = 10 ** 6  # models of the last level of one walk


class _Report(NamedTuple):
    quantity: str
    oracle_value: float
    engine_value: float
    instance: str
    abs_diff: float


class OracleReport(_Report):
    """One engine-versus-oracle comparison, difference always recorded: an
    immutable named tuple built from the first four fields, by position or
    keyword, whose constructor computes ``abs_diff``."""

    __slots__ = ()

    def __new__(cls, quantity: str, oracle_value: float, engine_value: float,
                instance: str):
        return tuple.__new__(cls, (quantity, oracle_value, engine_value,
                                   instance, abs(oracle_value - engine_value)))

    @classmethod
    def _make(cls, iterable):  # _replace rebuilds here: abs_diff anew
        return cls(*tuple(iterable)[:4])

    def __getnewargs__(self):  # copy and pickle rebuild from four fields
        return tuple(self[:4])


def render_report_csv(reports: Sequence[OracleReport]) -> str:
    """The report CSV: one row per report, each number as
    ``repr(float(x))``."""
    return "quantity,oracle_value,engine_value,abs_diff,instance\n" + "".join([
        f"{q},{float(o)!r},{float(e)!r},{float(d)!r},{i}\n"
        for q, o, e, i, d in reports])


@dataclass(frozen=True)
class Level:
    """The surviving models of one observation prefix, one row each: their
    (models x states) beliefs, raw penalties and first generator indices."""

    beliefs: np.ndarray
    penalties: np.ndarray
    first: np.ndarray

    def __len__(self):
        return len(self.penalties)

    def __iter__(self):
        """The models as (belief, penalty, first generator) tuples."""
        return zip(self.beliefs, self.penalties.tolist(), self.first.tolist())


def _bayes_rows(beliefs: np.ndarray, gen, y: int):
    """One stacked Bayes update of a (rows x states) block: which rows give
    ``y`` positive mass, their masses and their posteriors."""
    emit = gen.emission[:, y]
    pred = (gen.transition[None] @ beliefs[:, :, None])[:, :, 0]
    mass = (pred[:, None, :] @ emit[None, :, None])[:, 0, 0]
    live = mass > 0.0
    weighted = emit * pred[live]
    return live, mass[live], weighted / weighted.sum(axis=1, keepdims=True)


def _walk_models(prior_beliefs, prior_values, gens: GeneratorGrid, obs,
                 scope: str,
                 grid: SimplexGrid | None) -> dict[str, list[Level]]:
    """The surviving models after every step, per framework: level ``t`` of
    ``walk[framework]`` holds the models of ``obs[:t]`` in (prior belief,
    lexicographic generator path) order; dead models (zero-probability
    steps or infinite penalty in that framework) are dropped.

    Each level extends every surviving prefix with each admissible
    generator (in the static scope only its own) by one :func:`_bayes_rows`
    call per generator, which steps a model's UP and DR penalties side by
    side while either is finite, and one ``lexsort`` on (parent, generator)
    restores the order. With a ``grid``, each level after the prior is
    re-rounded by one :meth:`~robusthmm.models.SimplexGrid.round_rows` call.
    ``ORACLE_CAP`` bounds the models of the last level and is checked
    first.
    """
    beliefs = np.asarray(prior_beliefs, dtype=np.float64) + 0.0
    penalties = np.asarray(prior_values, dtype=np.float64)
    n_gens = len(gens)
    n_models = len(penalties) * (n_gens if scope == STATIC
                                 else n_gens ** len(obs))
    if n_models > ORACLE_CAP:
        raise CapExceeded(f"{n_models} models exceed the cap of {ORACLE_CAP}")
    first = np.zeros(len(penalties), dtype=np.int64)
    if scope == STATIC:
        with np.errstate(over="ignore"):
            penalties = (penalties[:, None] + gens.prior_penalty).ravel()
        beliefs = np.repeat(beliefs, n_gens, axis=0)
        first = np.tile(np.arange(n_gens), len(first))
    live = np.isfinite(penalties)
    # one penalty column per framework, (UP, DR)
    levels = [(beliefs[live], np.tile(penalties[live, None], 2), first[live])]
    for t, y in enumerate(obs, start=1):
        (last_beliefs, last_penalties, last_first), parts = levels[-1], []
        for g, gen in enumerate(gens.candidates):
            if scope == DYNAMIC:
                with np.errstate(over="ignore"):
                    step = last_penalties + gens.prior_penalty[g]
                rows = np.flatnonzero(np.isfinite(step).any(axis=1))
            else:
                step, rows = last_penalties, np.flatnonzero(last_first == g)
            live, mass, post = _bayes_rows(last_beliefs[rows], gen, y)
            rows, step = rows[live], step[rows[live]]
            step[:, 1] -= [log(m) for m in mass.tolist()]
            parts.append((rows, np.full(len(rows), g), post + 0.0, step))
        parent, pick, beliefs, penalties = map(np.concatenate, zip(*parts))
        if grid is not None and len(beliefs):
            beliefs = grid.points[grid.round_rows(beliefs)] + 0.0
        order = np.lexsort((pick, parent))
        levels.append((beliefs[order], penalties[order], pick[order]
                       if t == 1 else last_first[parent[order]]))
    walk: dict = {UP: [], DR: []}
    for beliefs, penalties, first in levels:
        for column, framework in enumerate((UP, DR)):
            keep = np.isfinite(penalties[:, column])
            rows = slice(None) if keep.all() else keep
            walk[framework].append(Level(
                beliefs[rows], penalties[rows, column], first[rows]))
    return walk


def penalty_table(models: Level, scope: str,
                  grid: SimplexGrid | None = None) -> dict:
    """Penalty per reachable belief of one level of :func:`_walk_models`.

    Keys are belief bytes (exact tracking) or grid cell indices (with a
    ``grid``); in the static scope the key is the (generator index, belief)
    pair. Values are normalized so the global minimum is zero.
    """
    if grid is not None and len(models):
        keys = grid.round_rows(models.beliefs).tolist()
    else:
        keys = row_bytes(models.beliefs)
    if scope == STATIC:
        keys = zip(models.first.tolist(), keys)
    table: dict = {}
    for key, penalty in zip(keys, models.penalties.tolist()):
        if key not in table or penalty < table[key]:
            table[key] = penalty
    if not table:
        return table
    floor = min(table.values())
    return {k: v - floor for k, v in table.items()}


def payoff_values(models: Level, phis: np.ndarray, k: float,
                  k_exp: float = 1.0) -> np.ndarray:
    """Worst-case expectation of each payoff row of ``phis`` (draws x
    states) over one level of :func:`_walk_models`: every model contributes
    its conditional expectation of the payoff minus its converted,
    class-normalized penalty."""
    if not len(models):
        raise DegenerateObservation("every model excludes the observations")
    alpha = models.penalties - models.penalties.min()
    with np.errstate(over="ignore"):
        rho = (np.where(alpha <= k, 0.0, inf) if k_exp == inf
               else (alpha / k) ** k_exp)
    return (_expectations(models.beliefs, phis) - rho[:, None]).max(axis=0)


def oracle_penalty(prior_beliefs, prior_values, gens: GeneratorGrid,
                   obs: Sequence[int], framework: str, scope: str,
                   grid: SimplexGrid | None = None) -> dict:
    """Penalty per reachable terminal belief, by direct enumeration: the
    :func:`penalty_table` of the last level of one walk, which re-rounds
    to ``grid`` after every step when one is given."""
    walk = _walk_models(prior_beliefs, prior_values, gens, obs, scope, grid)
    return penalty_table(walk[framework][-1], scope, grid)


def oracle_dr_direct(phis, prior_beliefs, prior_values, gens: GeneratorGrid,
                     obs: Sequence[int], framework: str, scope: str, k: float,
                     k_exp: float = 1.0,
                     grid: SimplexGrid | None = None) -> np.ndarray:
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
    walk = _walk_models(prior_beliefs, prior_values, gens, obs, scope, grid)
    return payoff_values(walk[framework][-1], phis, k, k_exp)


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
