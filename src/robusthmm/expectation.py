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

from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import CapExceeded, InfeasibleSurface
from .models import GeneratorGrid
from .penalty import (ExactSurface, _blocks, _candidate_penalties,
                      _default_gammas, _rows, step_level)

TREE_CAP_DEFAULT = 4096


@dataclass(frozen=True)
class UncertaintyParams:
    """Aversion level ``k > 0`` and penalty exponent ``k_exp in [1, inf]``."""

    k: float
    k_exp: float = 1.0

    def __post_init__(self):
        if not (self.k > 0):
            raise ValueError("k must be positive")
        if not (self.k_exp >= 1):
            raise ValueError("k_exp must be at least 1")


def penalty_to_rho(alpha: float, params: UncertaintyParams) -> float:
    """Convert an accumulated penalty into payoff units.

    ``(alpha / k) ** k_exp`` with the conventions ``x ** inf = 0`` for
    ``x in [0, 1]`` and ``+inf`` otherwise; ``k = inf`` charges every finite
    ``alpha`` nothing, and ``alpha = +inf`` always maps to ``+inf``.
    """
    if alpha < 0:
        raise ValueError("penalties must be nonnegative")
    return float(_rho(np.asarray([alpha]), params)[0])


def _rho(alpha: np.ndarray, params: UncertaintyParams) -> np.ndarray:
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
    (value,), (best,) = _dr_scores(beliefs @ np.asarray(phi, float),
                                   surface.values.ravel()[None], params)
    return value, beliefs[best].copy()


def _dr_scores(linear, penalties, params: UncertaintyParams):
    """Per row of a (surfaces x rows) penalty block on one set of beliefs
    whose payoff is ``linear``: the sup of payoff minus rho and its first
    argmax row, as lists."""
    scores = linear - _rho(penalties, params)
    best = scores.argmax(axis=1)
    values = scores[np.arange(len(scores)), best].tolist()
    if -inf in values:
        raise InfeasibleSurface("surface excludes every belief")
    return values, best.tolist()


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
    return values


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
    if -inf in best:
        raise InfeasibleSurface("every model is excluded in the one-step scan")
    return best


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
class TreeNode:
    """One observation history with its penalty surface and value slots."""

    index: int
    history: tuple[int, ...]
    children: tuple[int, ...] = ()
    surface: object = None
    value: float | None = None
    z: np.ndarray | None = None
    driver: float | None = None

    @property
    def depth(self) -> int:
        return len(self.history)


@dataclass
class ObservationTree:
    """All observation histories up to the horizon, level by level, each
    carrying the penalty surface conditioned on that history."""

    n_symbols: int
    horizon: int
    nodes: list[TreeNode] = field(default_factory=list)

    def nodes_at_depth(self, depth: int) -> list[TreeNode]:
        """One level of the tree: levels are stored one after another, so
        depth ``t`` is the ``n_symbols ** t`` nodes after the shallower
        ones."""
        start = sum(self.n_symbols ** t for t in range(depth))
        return self.nodes[start:start + self.n_symbols ** depth]


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
    cap: int = TREE_CAP_DEFAULT
    gammas: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gammas", _default_gammas(
            self.initial_surface, self.gens))


def build_observation_tree(setup: TreeSetup) -> ObservationTree:
    """Grow the full tree of histories, evolving a surface along each edge;
    a level is stepped at once by :func:`~robusthmm.penalty.step_level`."""
    d = setup.gens.n_symbols
    if d ** setup.horizon > setup.cap:
        raise CapExceeded(
            f"{d ** setup.horizon} leaves would exceed the cap of {setup.cap}")
    tree = ObservationTree(n_symbols=d, horizon=setup.horizon)
    tree.nodes.append(TreeNode(index=0, history=(),
                               surface=setup.initial_surface))
    for depth in range(setup.horizon):
        parents = tree.nodes_at_depth(depth)
        children = step_level([p.surface for p in parents], setup.gens,
                              setup.gammas, setup.framework)
        for parent, surfaces in zip(parents, children):
            first = len(tree.nodes)
            tree.nodes.extend(
                TreeNode(index=first + y, history=parent.history + (y,),
                         surface=surface)
                for y, surface in enumerate(surfaces))
            parent.children = tuple(range(first, len(tree.nodes)))
    return tree


def fill_backward(tree: ObservationTree, setup: TreeSetup,
                  terminal_depth: int) -> None:
    """Propagate node values from ``terminal_depth`` back to the root by the
    one-step worst-case expectation, one batched scan per level. Values at
    ``terminal_depth`` must already be set."""
    for node in tree.nodes_at_depth(terminal_depth):
        if node.value is None:
            raise ValueError("terminal values must be filled first")
    for t in range(terminal_depth - 1, -1, -1):
        nodes = tree.nodes_at_depth(t)
        payoffs = [[tree.nodes[c].value for c in node.children]
                   for node in nodes]
        values = _sup_rows([node.surface for node in nodes], payoffs,
                           setup.gens, setup.gammas, setup.params)
        for node, value in zip(nodes, values):
            node.value = value


def backward_expectation(phi: StateFunctional,
                         setup: TreeSetup) -> ObservationTree:
    """Dynamically consistent expectation of a terminal-state payoff.

    Leaves are valued by :func:`dr_expectation` against the leaf surface;
    interior nodes take the one-step worst-case expectation of their
    children. The root value is the time-zero expectation.
    """
    tree = build_observation_tree(setup)
    leaves = tree.nodes_at_depth(setup.horizon)
    values = _dr_rows([leaf.surface for leaf in leaves], phi.values,
                      setup.params)
    for node, value in zip(leaves, values):
        node.value = value
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
    for t in range(tree.horizon):
        nodes = tree.nodes_at_depth(t)
        for node in nodes:
            child_vals = np.array([tree.nodes[c].value for c in node.children])
            if any(v is None for v in child_vals):
                raise ValueError("tree values must be filled first")
            node.z = child_vals - child_vals.mean()
        drivers = _sup_rows([node.surface for node in nodes],
                            [node.z for node in nodes], setup.gens,
                            setup.gammas, setup.params, centered=True)
        for node, driver in zip(nodes, drivers):
            node.driver = driver
    return tree


def history_label(history: tuple) -> str:
    return "-".join(str(int(y)) for y in history) if history else "root"


def tree_document(tree: ObservationTree,
                  surface_files: dict | None = None) -> dict:
    """JSON-ready dump of the tree: per node the history, value, martingale
    part, driver, and the surface file it references."""
    nodes = []
    for node in tree.nodes:
        entry = {
            "history": history_label(node.history),
            "value": node.value,
            "z": None if node.z is None else [float(v) for v in node.z],
            "driver": node.driver,
            "surface_file": (surface_files or {}).get(node.index),
        }
        nodes.append(entry)
    return {"n_symbols": tree.n_symbols, "horizon": tree.horizon,
            "nodes": nodes}
