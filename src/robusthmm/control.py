"""Finite-horizon robust control where controls shape the per-step
generator penalty.

The controller state is the pair (observation history, penalty surface): the
surface summarizes everything the past controls and observations imply about
the hidden chain. A successor surface is the forward image step of its state
under the control's penalty row, so it depends on the (state, control, symbol)
triple alone and each triple is stepped once. One enumerator lists the
reachable surfaces per history node (deduplicated by value hash, bounded by
the state cap), expanding the controls ``controls(history)`` names: all of
them for the solver, the policy's choice for the evaluator. A level's new
triples go through the level kernel together, one call per (control,
symbol), and are then interned in (history, state, control, symbol) order,
so state ids do not depend on the batching. Values are then filled bottom
up, one batched leaf scan and one batched q-value scan per level, and a
policy is a plain ``{history: control}`` map.

Costs: choosing control ``u`` at a node of depth ``t`` pays the running cost
indexed ``t`` immediately; the terminal cost is charged against the leaf
surface by an infimum over beliefs of expected cost minus converted penalty
(beliefs whose converted penalty is infinite are excluded from the scan).
Every other scan takes the sup, so this leaf picks the least plausible
belief (ROADMAP item 1, open). Gammas: the forward step under ``u`` charges
``problem.gammas[u]`` and the q-value scan of ``u`` zeros, where the tree
charges ``setup.gammas`` in both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import ClassVar

import numpy as np

from .errors import CapExceeded, InfeasibleSurface
from .expectation import StateFunctional, _rho, _sup_rows
from .models import GeneratorGrid, UncertaintyParams, normalize_penalties
from .penalty import PenaltySurface, _blocks, step_level

_HASH_DECIMALS = 12


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """A finite control set acting through per-control generator penalties:
    ``gammas`` is the ``(n_controls, n_candidates)`` table of the per-step
    penalty each control puts on each candidate, each row normalized to
    minimum zero here.

    A run starts from ``initial_surface``, which must be a grid surface in
    the dynamic generator scope (a :class:`PenaltySurface`), and steps it
    under ``framework``. ``running_cost`` is a ``(horizon, n_controls)``
    array; ``terminal_cost`` gives the cost per hidden state.
    """

    labels: tuple[str, ...]
    gens: GeneratorGrid
    gammas: np.ndarray
    initial_surface: PenaltySurface
    framework: str
    horizon: int
    params: UncertaintyParams
    running_cost: np.ndarray
    terminal_cost: StateFunctional
    state_cap: ClassVar[int] = 20000  # (history, state) pairs enumerated
    policy_cap: ClassVar[int] = 10 ** 7  # policies brute_force tries

    def __post_init__(self):
        if not self.labels:
            raise ValueError("control set must be nonempty")
        if not isinstance(self.initial_surface, PenaltySurface):
            raise ValueError("control requires the dynamic generator scope")
        gammas = np.asarray(self.gammas, dtype=np.float64)
        if gammas.shape != (len(self.labels), len(self.gens)):
            raise ValueError("control penalty table must be "
                             "(n_controls, n_candidates)")
        gammas = np.stack([normalize_penalties(row) for row in gammas])
        gammas.flags.writeable = False
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        rc = np.asarray(self.running_cost, dtype=np.float64)
        if rc.shape != (self.horizon, len(self.labels)):
            raise ValueError("running cost table must be (horizon, n_controls)")
        object.__setattr__(self, "running_cost", rc)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "gammas", gammas)

    @property
    def n_controls(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ControlValue:
    """Value at one (node, surface) pair with its per-control breakdown."""

    value: float
    control: int | None
    q_values: tuple[float, ...] | None


class StateRegistry:
    """Interned penalty surfaces, deduplicated by rounded value hash."""

    def __init__(self):
        self.surfaces: list[PenaltySurface] = []
        self._ids: dict = {}

    @staticmethod
    def key_of(surface: PenaltySurface) -> tuple:
        rounded = np.round(surface.values, _HASH_DECIMALS) + 0.0
        return (surface.time, rounded.tobytes())

    def intern(self, surface: PenaltySurface) -> int:
        key = self.key_of(surface)
        hit = self._ids.get(key)
        if hit is not None:
            return hit
        self.surfaces.append(surface)
        self._ids[key] = len(self.surfaces) - 1
        return len(self.surfaces) - 1

    def __len__(self) -> int:
        return len(self.surfaces)


@dataclass
class ControlSolution:
    """Solver output: the ``{history: control}`` policy, the value and choice
    per (history, state) pair, the surface registry, and the successor map
    (state, control, symbol) -> state."""

    policy: dict
    values: dict
    registry: StateRegistry
    successors: dict
    levels: list

    @property
    def root_value(self) -> float:
        return self.values[((), self.levels[0][()][0])].value


def _terminal_rows(cost, surfaces: list, params: UncertaintyParams) -> list:
    """Leaf values of a level's surfaces: per surface, the infimum over
    beliefs of expected cost minus converted penalty, scanning only beliefs
    the surface does not exclude. The cells' cost is computed once; a
    surface with one usable cell costs it alone, as that one-row product
    rounds apart from the full one."""
    cost = np.asarray(cost, float)
    points = surfaces[0].grid.points
    linear, values = points @ cost, []
    for block in _blocks(surfaces, len(points)):
        rho = _rho(np.array([s.values for s in surfaces[block]]), params)
        usable = np.isfinite(rho)
        if not usable.any(axis=1).all():
            raise InfeasibleSurface("terminal surface excludes every belief")
        scores = np.where(usable, linear - rho, inf)
        for r in np.flatnonzero(usable.sum(axis=1) == 1):
            scores[r, usable[r]] = points[usable[r]] @ cost - rho[r, usable[r]]
        # the first least entry, so a tie of 0.0 and -0.0 keeps its order
        pick = scores.argmin(axis=1)
        values.extend(scores[np.arange(len(scores)), pick].tolist())
    return values


def _enumerate_states(problem: ControlProblem, controls):
    """Reachable (node, surface) pairs level by level from the root, with
    the successor map (state, control, symbol) -> state.

    ``controls(history)`` lists the controls to expand at a node: every
    control for the solver, the policy's choice for the evaluator. A triple
    reached again from another history is looked up, not stepped again.
    """
    d = problem.gens.n_symbols
    registry = StateRegistry()
    levels = [{(): [registry.intern(problem.initial_surface)]}]
    successors: dict = {}
    total = 1
    for _ in range(problem.horizon):
        level, new_level = levels[-1], {}
        expand = {history: controls(history) for history in level}
        stepped = {}  # (state, control) -> children per symbol
        for u in range(problem.n_controls):
            ids = list(dict.fromkeys(
                s for history, state_ids in level.items()
                if u in expand[history] for s in state_ids))
            if ids:
                stepped.update(zip(((s, u) for s in ids), step_level(
                    [registry.surfaces[s] for s in ids], problem.gens,
                    problem.gammas[u], problem.framework)))
        for history, state_ids in level.items():
            # each child history's ids as dict keys, in first-seen order
            children = {history + (y,): {} for y in range(d)}
            for state_id in state_ids:
                for u in expand[history]:
                    for y in range(d):
                        child_id = successors.get((state_id, u, y))
                        if child_id is None:
                            child_id = registry.intern(
                                stepped[(state_id, u)][y])
                            successors[(state_id, u, y)] = child_id
                        children[history + (y,)][child_id] = None
            for child_history, ids in children.items():
                new_level[child_history] = list(ids)
                total += len(ids)
                if total > problem.state_cap:
                    raise CapExceeded(
                        f"{total} reachable (history, state) pairs by depth "
                        f"{len(child_history)} exceed the cap of "
                        f"{problem.state_cap}")
        levels.append(new_level)
    return registry, levels, successors


def _fill_values(problem: ControlProblem, registry, levels, successors,
                 controls) -> dict:
    """Backward pass shared by the solver and the policy evaluator.

    At each node only the controls ``controls(history)`` lists get a
    q-value (the rest read ``inf``), and the least of them is charged, ties
    going to the control listed first.
    """
    d = problem.gens.n_symbols
    leaves = [(h, s) for h, state_ids in levels[-1].items() for s in state_ids]
    leaf_values = _terminal_rows(
        problem.terminal_cost.values,
        [registry.surfaces[s] for _, s in leaves], problem.params)
    values = {key: ControlValue(value, None, None)
              for key, value in zip(leaves, leaf_values)}
    for level in reversed(levels[:-1]):
        expand = {history: controls(history) for history in level}
        scans = [(history, s, u) for history, state_ids in level.items()
                 for s in state_ids for u in expand[history]]
        payoffs = [[values[(h + (y,), successors[(s, u, y)])].value
                    for y in range(d)] for h, s, u in scans]
        sups = dict(zip(scans, _sup_rows(
            [registry.surfaces[s] for _, s, _ in scans], payoffs,
            problem.gens, np.zeros(len(problem.gens)), problem.params)))
        for history, state_ids in level.items():
            t, us = len(history), expand[history]
            for state_id in state_ids:
                q_values = [inf] * problem.n_controls
                for u in us:
                    q_values[u] = (float(problem.running_cost[t, u])
                                   + sups[(history, state_id, u)])
                pick = us[int(np.argmin([q_values[u] for u in us]))]
                values[(history, state_id)] = ControlValue(
                    float(q_values[pick]), pick, tuple(q_values))
    return values


def solve(problem: ControlProblem) -> ControlSolution:
    """Dynamic-programming solution of the control problem.

    Enumerates reachable (node, surface) states, fills values bottom up, and
    extracts the minimizing control everywhere; ties resolve to the lowest
    control index. The returned policy holds the optimal control at every
    history reached from the root. A subproblem rooted mid-tree is a problem
    of its own: the child surface, ``horizon - 1`` and ``running_cost[1:]``.
    """
    def every_control(history):
        return range(problem.n_controls)

    registry, levels, successors = _enumerate_states(problem, every_control)
    values = _fill_values(problem, registry, levels, successors,
                          every_control)
    policy: dict = {}
    frontier = {(): levels[0][()][0]}
    for _ in levels[:-1]:
        reached = {}
        for history, sid in frontier.items():
            u = policy[history] = values[(history, sid)].control
            for y in range(problem.gens.n_symbols):
                reached[history + (y,)] = successors[(sid, u, y)]
        frontier = reached
    return ControlSolution(policy=policy, values=values, registry=registry,
                           successors=successors, levels=levels)


def evaluate_policy(problem: ControlProblem, policy: dict) -> ControlSolution:
    """Cost of a fixed ``{history: control}`` policy from the root, on the
    states it actually reaches.

    Same enumeration and backward recursion as :func:`solve`, expanding and
    charging only the policy's choice; the result dominates the optimal
    value pointwise. The enumeration enforces ``problem.state_cap``. A
    reached history the policy does not map raises ``KeyError``, and a
    choice outside ``range(problem.n_controls)`` raises ``ValueError``.
    """
    def chosen(history):
        u = int(policy[history])
        if not 0 <= u < problem.n_controls:
            raise ValueError(f"policy chooses control {u} at history "
                             f"{history}, outside "
                             f"range({problem.n_controls})")
        return (u,)

    registry, levels, successors = _enumerate_states(problem, chosen)
    values = _fill_values(problem, registry, levels, successors, chosen)
    return ControlSolution(policy=policy, values=values, registry=registry,
                           successors=successors, levels=levels)


def decision_nodes(problem: ControlProblem) -> list[tuple]:
    """All histories at which a control is chosen, in level/lex order."""
    d = problem.gens.n_symbols
    nodes: list[tuple] = []
    for t in range(problem.horizon):
        nodes.extend(itertools.product(range(d), repeat=t))
    return nodes


def brute_force(problem: ControlProblem) -> float:
    """Minimal root cost over every predictable policy, by enumeration.

    Exponential in the tree size; the verification oracle for the solver's
    dynamic programming recursion.
    """
    nodes = decision_nodes(problem)
    n_policies = problem.n_controls ** len(nodes)
    if n_policies > problem.policy_cap:
        raise CapExceeded(
            f"{n_policies} policies exceed the cap of {problem.policy_cap}")
    best = inf
    for assignment in itertools.product(range(problem.n_controls),
                                        repeat=len(nodes)):
        cost = evaluate_policy(problem,
                               dict(zip(nodes, assignment))).root_value
        if cost < best:
            best = cost
    return best
