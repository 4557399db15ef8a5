"""Worst-case expectations against penalty surfaces, the backward
(dynamically consistent) expectation on the observation tree, and its
martingale decomposition.

The one-period functional is ``sup over models of (linear expectation minus
rho(penalty))`` where ``rho(x) = (x / k) ** k_exp`` converts accumulated
penalties into units of the payoff; ``k_exp = inf`` turns the penalty into a
hard confidence set (models with penalty above ``k`` are discarded, the rest
enter unpenalized).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import CapExceeded, InfeasibleSurface
from .models import GeneratorGrid, UncertaintyParams
from .penalty import (ExactSurface, _blocks, _candidate_penalties,
                      _default_gammas, _rows, step_level)

TREE_CAP = 4096  # leaves of one observation tree
_NO_BELIEF = "surface excludes every belief"


def _rho(alpha: np.ndarray, params: UncertaintyParams) -> np.ndarray:
    """Penalties in payoff units, ``(alpha / k) ** k_exp``: ``x ** inf`` is
    0 on [0, 1] and ``inf`` above, ``k = inf`` charges every finite
    ``alpha`` nothing, and ``alpha = inf`` always maps to ``inf``."""
    if params.k == inf:
        return np.where(alpha < inf, 0.0, inf)
    if params.k_exp == inf:
        return np.where(alpha <= params.k, 0.0, np.inf)
    with np.errstate(over="ignore"):
        return (alpha / params.k) ** params.k_exp


@dataclass(frozen=True)
class StateFunctional:
    """Payoff per hidden state."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1 or not np.isfinite(v).all():
            raise ValueError("payoff values must be a finite vector")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def dr_expectation(phi, surface, params: UncertaintyParams):
    """Worst-case expectation of a current-state payoff against a surface.

    Scans every tracked belief (and candidate, where the surface carries
    them) exactly; returns the value and the first argmax belief in
    canonical order. The one-surface case of :func:`_dr_scores`.
    """
    beliefs = _rows(surface)[0]
    values, (best,) = _dr_scores(beliefs @ np.asarray(phi, float),
                                 surface.values.ravel()[None], params)
    return _feasible(values, [surface], _NO_BELIEF)[0], beliefs[best].copy()


def _dr_scores(linear, penalties, params: UncertaintyParams):
    """Per row of a (surfaces x rows) penalty block on one set of beliefs
    whose payoff is ``linear``: the sup of payoff minus rho (``-inf`` where
    the row excludes every belief) and its first argmax row, as lists."""
    scores = linear - _rho(penalties, params)
    best = scores.argmax(axis=1)
    return scores[np.arange(len(scores)), best].tolist(), best.tolist()


def _feasible(values: list, surfaces, what: str) -> list:
    """A level's scan values; if some are ``-inf``, the error names the step
    and how many of the level's surfaces are infeasible."""
    lost = values.count(-inf)
    if lost:
        raise InfeasibleSurface(f"{what} at step {surfaces[0].time}: {lost} "
                                f"of {len(surfaces)} surfaces infeasible")
    return values


def _dr_rows(surfaces, phi, params: UncertaintyParams) -> list:
    """:func:`dr_expectation` values of a level's surfaces. A grid's beliefs
    are scored once, against each block of penalties."""
    phi = np.asarray(phi, dtype=np.float64)
    values, linear = [], None
    for block in _blocks(surfaces, surfaces[0].values.size):
        chunk = surfaces[block]
        if linear is None or isinstance(chunk[0], ExactSurface):
            linear = _rows(chunk[0])[0] @ phi
        values += _dr_scores(linear, np.array([s.values.ravel()
                                               for s in chunk]), params)[0]
    return _feasible(values, surfaces, _NO_BELIEF)


def _sup_rows(surfaces, payoffs, gens: GeneratorGrid,
              gammas: np.ndarray | None, params: UncertaintyParams,
              centered: bool = False) -> list:
    """The batched sup scan: per surface ``r``, the max over (candidate,
    belief) of the predictive symbol row (less ``1 / d`` when ``centered``,
    the BSDE pairing) dotted with ``payoffs[r]``, minus rho of the
    continuation penalty. A grid's rows are memoized in ``gens.predictive``
    and paired with each payoff by its own matrix-vector product."""
    payoffs = np.asarray(payoffs, dtype=np.float64)
    best = []
    for block in _blocks(surfaces, len(gens) * surfaces[0].values.shape[0]):
        beliefs, before = _candidate_penalties(surfaces[block], gens, gammas)
        key = getattr(surfaces[block.start], "grid", None)
        preds = gens.predictive.get(key)
        if preds is None:
            preds = np.stack([(beliefs @ gen.transition.T) @ gen.emission
                              for gen in gens.candidates])
            if key is not None:
                gens.predictive[key] = preds
        if centered:
            preds = preds - 1.0 / gens.n_symbols
        linear = (preds[None] @ payoffs[block, None, :, None])[..., 0]
        scores = (linear - _rho(before, params)).reshape(len(linear), -1)
        best.extend(scores.max(axis=1).tolist() if scores.size else [-inf])
    return _feasible(best, surfaces,
                     "every model is excluded in the one-step scan")


def one_step_expectation(xi_next, surface, gens: GeneratorGrid,
                         gammas: np.ndarray | None,
                         params: UncertaintyParams) -> float:
    """Worst-case expectation of a next-symbol payoff vector.

    ``xi_next[y]`` is the value attained if symbol ``y`` is observed next;
    the scan weighs it by each model's predictive symbol distribution; the
    one-surface case of :func:`_sup_rows`.
    """
    return _sup_rows([surface], [xi_next], gens, gammas, params)[0]


def bsde_driver(z, surface, gens: GeneratorGrid,
                gammas: np.ndarray | None,
                params: UncertaintyParams) -> float:
    """One-step nonlinearity of the backward equation: the worst-case value
    of ``z`` paired against centered symbol indicators."""
    return _sup_rows([surface], [z], gens, gammas, params, centered=True)[0]


@dataclass
class ObservationTree:
    """All observation histories up to the horizon, stored by depth.

    ``levels[t]`` lists the ``d ** t`` penalty surfaces of depth ``t`` in
    lexicographic history order, so entry ``i``'s children are entries
    ``i * d`` to ``i * d + d - 1`` of ``levels[t + 1]``. ``values[t]``
    (shape ``(d ** t,)``) holds the values of depth ``t``, and ``z[t]``
    (``(d ** t, d)``) and ``drivers[t]`` (``(d ** t,)``) its martingale
    decomposition. An entry is None until its pass fills it; the leaves'
    ``z`` and driver stay None.
    """

    n_symbols: int
    horizon: int
    levels: list
    values: list
    z: list
    drivers: list

    @property
    def nodes(self) -> list:
        """Every surface, level after level."""
        return list(itertools.chain.from_iterable(self.levels))

    def histories(self) -> list[tuple]:
        """The observation history of each entry of :attr:`nodes`."""
        return [history for t in range(self.horizon + 1)
                for history in itertools.product(range(self.n_symbols),
                                                 repeat=t)]


@dataclass(frozen=True)
class TreeSetup:
    """Everything needed to grow surfaces along the observation tree.

    The generator scope is the initial surface's. ``gammas`` is the
    per-step candidate penalty in the dynamic scope (None in the static
    scope), looked up once here for every step of the tree.
    """

    gens: GeneratorGrid
    framework: str
    horizon: int
    initial_surface: object
    params: UncertaintyParams
    gammas: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gammas", _default_gammas(
            self.initial_surface, self.gens))


def build_observation_tree(setup: TreeSetup) -> ObservationTree:
    """Grow the full tree of histories, evolving a surface along each edge;
    a level is stepped at once by :func:`~robusthmm.penalty.step_level`,
    and more than ``TREE_CAP`` leaves are refused before any step."""
    d = setup.gens.n_symbols
    if d ** setup.horizon > TREE_CAP:
        raise CapExceeded(
            f"{d ** setup.horizon} leaves would exceed the cap of {TREE_CAP}")
    levels = [[setup.initial_surface]]
    for _ in range(setup.horizon):
        levels.append(list(itertools.chain.from_iterable(step_level(
            levels[-1], setup.gens, setup.gammas, setup.framework))))
    return ObservationTree(n_symbols=d, horizon=setup.horizon, levels=levels,
                           values=[None] * len(levels),
                           z=[None] * len(levels),
                           drivers=[None] * len(levels))


def fill_backward(tree: ObservationTree, setup: TreeSetup,
                  terminal_depth: int) -> None:
    """Propagate values from ``terminal_depth`` back to the root by the
    one-step worst-case expectation, one batched scan per level. Values at
    ``terminal_depth`` must already be set."""
    if tree.values[terminal_depth] is None:
        raise ValueError("terminal values must be filled first")
    for t in range(terminal_depth - 1, -1, -1):
        tree.values[t] = np.array(_sup_rows(
            tree.levels[t], tree.values[t + 1].reshape(-1, tree.n_symbols),
            setup.gens, setup.gammas, setup.params))


def backward_expectation(phi: StateFunctional,
                         setup: TreeSetup) -> ObservationTree:
    """Dynamically consistent expectation of a terminal-state payoff.

    Leaves are valued by :func:`dr_expectation` against the leaf surface;
    interior nodes take the one-step worst-case expectation of their
    children. The root value is the time-zero expectation.
    """
    tree = build_observation_tree(setup)
    tree.values[-1] = np.array(_dr_rows(tree.levels[-1], phi.values,
                                        setup.params))
    fill_backward(tree, setup, setup.horizon)
    return tree


def bsde_decompose(tree: ObservationTree, setup: TreeSetup) -> ObservationTree:
    """Fill the martingale part ``z`` and driver of every interior node.

    ``z`` collects the children's values centered to mean zero (the
    representation is only fixed up to adding a constant to all components,
    so the mean-zero member is the canonical choice); the driver is the
    worst-case pairing of ``z`` with centered symbol indicators. The node
    value then reconstructs as ``mean(children) + driver``.
    """
    if any(values is None for values in tree.values):
        raise ValueError("tree values must be filled first")
    for t in range(tree.horizon):
        kids = tree.values[t + 1].reshape(-1, tree.n_symbols)
        tree.z[t] = kids - kids.mean(axis=1, keepdims=True)
        tree.drivers[t] = np.array(_sup_rows(
            tree.levels[t], tree.z[t], setup.gens, setup.gammas,
            setup.params, centered=True))
    return tree


def history_label(history: tuple) -> str:
    return "-".join(str(int(y)) for y in history) if history else "root"


def _json_list(array: np.ndarray) -> list:
    """``array.tolist()``, each non-finite entry as its text."""
    finite = np.isfinite(array)
    if finite.all():
        return array.tolist()
    return np.where(finite, array.astype(object), array.astype(str)).tolist()


def tree_document(tree: ObservationTree,
                  surface_files: dict | None = None) -> dict:
    """JSON-ready dump of the tree: per node the history, value, martingale
    part, driver, and the surface file it references (``surface_files``
    maps a node's position in ``tree.nodes`` to its file). Strict JSON has
    no infinite or NaN number, so such an entry, which only an overflow
    makes, is its text: ``"inf"``, ``"-inf"`` or ``"nan"``."""
    def per_node(arrays):
        return [entry for t, array in enumerate(arrays) for entry in (
            [None] * tree.n_symbols ** t if array is None
            else _json_list(array))]

    columns = zip(tree.histories(), per_node(tree.values), per_node(tree.z),
                  per_node(tree.drivers))
    nodes = [{"history": history_label(history), "value": value, "z": z,
              "driver": driver,
              "surface_file": (surface_files or {}).get(index)}
             for index, (history, value, z, driver) in enumerate(columns)]
    return {"n_symbols": tree.n_symbols, "horizon": tree.horizon,
            "nodes": nodes}
