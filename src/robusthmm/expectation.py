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
from .penalty import _candidate_penalties, _default_gammas, _rows, _step_for

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
    canonical order.
    """
    phi = np.asarray(phi, dtype=np.float64)
    beliefs, penalties, _ = _rows(surface)
    scores = beliefs @ phi - _rho(penalties, params)
    best = int(np.argmax(scores))
    if scores[best] == -inf:
        raise InfeasibleSurface("surface excludes every belief")
    return float(scores[best]), beliefs[best].copy()


def _predictive_rows(beliefs: np.ndarray, gen) -> np.ndarray:
    return (beliefs @ gen.transition.T) @ gen.emission


def _sup_over_models(linear_fn, surface, gens: GeneratorGrid,
                     gammas: np.ndarray | None, params: UncertaintyParams,
                     ) -> float:
    """Maximize ``linear_fn(predictive row) - rho(penalty)`` over every
    (candidate, belief) pair, at the continuation penalties of
    :func:`~robusthmm.penalty._candidate_penalties`."""
    beliefs, before = _candidate_penalties(surface, gens, gammas)
    scores = np.array([linear_fn(_predictive_rows(beliefs, gen))
                       - _rho(before[g], params)
                       for g, gen in enumerate(gens.candidates)])
    best = float(scores.max()) if scores.size else -inf
    if best == -inf:
        raise InfeasibleSurface("every model is excluded in the one-step scan")
    return best


def one_step_expectation(xi_next, surface, gens: GeneratorGrid,
                         gammas: np.ndarray | None,
                         params: UncertaintyParams) -> float:
    """Worst-case expectation of a next-symbol payoff vector.

    ``xi_next[y]`` is the value attained if symbol ``y`` is observed next;
    the scan weighs it by each model's predictive symbol distribution.
    """
    xi = np.asarray(xi_next, dtype=np.float64)
    return _sup_over_models(lambda pred: pred @ xi, surface, gens, gammas,
                            params)


def bsde_driver(z, surface, gens: GeneratorGrid,
                gammas: np.ndarray | None,
                params: UncertaintyParams) -> float:
    """One-step nonlinearity of the backward equation: the worst-case value
    of ``z`` paired against centered symbol indicators."""
    z = np.asarray(z, dtype=np.float64)
    d = gens.n_symbols
    return _sup_over_models(lambda pred: (pred - 1.0 / d) @ z, surface, gens,
                            gammas, params)


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
    """Grow the full tree of histories, evolving a surface along each edge."""
    d = setup.gens.n_symbols
    if d ** setup.horizon > setup.cap:
        raise CapExceeded(
            f"{d ** setup.horizon} leaves would exceed the cap of {setup.cap}")
    tree = ObservationTree(n_symbols=d, horizon=setup.horizon)
    tree.nodes.append(TreeNode(index=0, history=(),
                               surface=setup.initial_surface))
    step = _step_for(setup.initial_surface)
    for depth in range(setup.horizon):
        for parent in tree.nodes_at_depth(depth):
            first = len(tree.nodes)
            for y in range(d):
                surface = step(parent.surface, setup.gens, setup.gammas, y,
                               setup.framework)[0]
                tree.nodes.append(TreeNode(index=len(tree.nodes),
                                           history=parent.history + (y,),
                                           surface=surface))
            parent.children = tuple(range(first, len(tree.nodes)))
    return tree


def fill_backward(tree: ObservationTree, setup: TreeSetup,
                  terminal_depth: int) -> None:
    """Propagate node values from ``terminal_depth`` back to the root by the
    one-step worst-case expectation. Values at ``terminal_depth`` must
    already be set."""
    for node in tree.nodes_at_depth(terminal_depth):
        if node.value is None:
            raise ValueError("terminal values must be filled first")
    for t in range(terminal_depth - 1, -1, -1):
        for node in tree.nodes_at_depth(t):
            child_vals = np.array([tree.nodes[c].value for c in node.children])
            node.value = one_step_expectation(child_vals, node.surface,
                                              setup.gens, setup.gammas,
                                              setup.params)


def backward_expectation(phi: StateFunctional,
                         setup: TreeSetup) -> ObservationTree:
    """Dynamically consistent expectation of a terminal-state payoff.

    Leaves are valued by :func:`dr_expectation` against the leaf surface;
    interior nodes take the one-step worst-case expectation of their
    children. The root value is the time-zero expectation.
    """
    tree = build_observation_tree(setup)
    for node in tree.nodes_at_depth(setup.horizon):
        node.value, _ = dr_expectation(phi.values, node.surface,
                                       setup.params)
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
        for node in tree.nodes_at_depth(t):
            child_vals = np.array([tree.nodes[c].value for c in node.children])
            if any(v is None for v in child_vals):
                raise ValueError("tree values must be filled first")
            z = child_vals - child_vals.mean()
            node.z = z
            node.driver = bsde_driver(z, node.surface, setup.gens,
                                      setup.gammas, setup.params)
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
