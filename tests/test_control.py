import itertools
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusthmm import (CapExceeded, ControlProblem, Generator, GeneratorGrid,
                       SimplexGrid, StateFunctional, UncertaintyParams,
                       brute_force, evaluate_policy,
                       initial_exact_surface, initial_grid_surface,
                       one_step_expectation, solve)
from robusthmm import InfeasibleSurface, control, expectation, penalty
from robusthmm.control import StateRegistry, decision_nodes
from conftest import LEVEL_SHAPES, level_case

P1 = UncertaintyParams(k=1.0, k_exp=1.0)


def _uninformative_problem(horizon=2, run_costs=None, terminal=7.5):
    """Single uninformative candidate: every surface stays flat at zero, so
    value backs out the pure cost flow."""
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
                              emission=np.full((2, 2), 0.5)),),
        prior_penalty=np.array([0.0]),
        control_penalty=np.array([[0.0], [0.0]]))
    grid = SimplexGrid.build(2, 5)
    if run_costs is None:
        run_costs = np.zeros((horizon, 2))
    return ControlProblem(labels=("a", "b"), gens=gens,
                          initial_surface=initial_grid_surface(
                              np.zeros(len(grid)), gens, grid, "dynamic"),
                          framework="dr", horizon=horizon, params=P1,
                          running_cost=np.asarray(run_costs, float),
                          terminal_cost=StateFunctional(
                              values=np.full(2, terminal)))


def _sensing_problem(horizon=2, grid_m=8):
    """Two controls trade a running fee against an informative penalty row."""
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.9, 0.2], [0.1, 0.8]]),
                              emission=np.array([[0.75, 0.25], [0.25, 0.75]])),
                    Generator(transition=np.array([[0.9, 0.2], [0.1, 0.8]]),
                              emission=np.full((2, 2), 0.5))),
        prior_penalty=np.array([0.0, 0.0]),
        control_penalty=np.array([[0.0, 2.0], [2.0, 0.0]]))
    grid = SimplexGrid.build(2, grid_m)
    return ControlProblem(labels=("listen", "idle"), gens=gens,
                          initial_surface=initial_grid_surface(
                              np.zeros(len(grid)), gens, grid, "dynamic"),
                          framework="dr", horizon=horizon, params=P1,
                          running_cost=np.tile([0.3, 0.0], (horizon, 1)),
                          terminal_cost=StateFunctional(
                              values=np.array([2.0, 0.5])))


def test_constant_costs_give_constant_value():
    problem = _uninformative_problem(horizon=2, terminal=7.5)
    solution = solve(problem)
    for record in solution.values.values():
        assert abs(record.value - 7.5) < 1e-9
    # every control ties, so the extracted policy is the first control
    for (history, sid), record in solution.values.items():
        if record.control is not None:
            assert record.control == 0


def test_dominated_control_is_never_chosen():
    run = np.array([[0.0, 1.0], [0.0, 1.0]])
    problem = _uninformative_problem(horizon=2, run_costs=run)
    solution = solve(problem)
    for record in solution.values.values():
        if record.control is not None:
            assert record.control == 0
    # forcing the dominated control pays the excess once per step
    worst = evaluate_policy(problem,
                            {h: 1 for h in [()] + [(y,) for y in range(2)]})
    assert abs(worst.root_value - (solution.root_value + 2.0)) < 1e-9


def test_solver_matches_policy_enumeration():
    problem = _sensing_problem(horizon=2)
    solution = solve(problem)
    assert abs(brute_force(problem) - solution.root_value) < 1e-9


def test_optimal_policy_evaluates_to_value_and_others_dominate():
    problem = _sensing_problem(horizon=2)
    solution = solve(problem)
    assert set(solution.policy) == set(decision_nodes(problem))
    replay = evaluate_policy(problem, solution.policy)
    assert abs(replay.root_value - solution.root_value) < 1e-12
    nodes = [()] + [(y,) for y in range(2)]
    for assignment in itertools.product(range(2), repeat=len(nodes)):
        cost = evaluate_policy(problem,
                               dict(zip(nodes, assignment))).root_value
        assert cost >= solution.root_value - 1e-9


@pytest.mark.parametrize("control", [-1, 2])
def test_evaluate_policy_rejects_control_out_of_range(control):
    problem = _sensing_problem(horizon=2)
    policy = {h: control for h in [(), (0,), (1,)]}
    with pytest.raises(ValueError,
                       match=rf"control {control} at history \(\), "
                             rf"outside range\(2\)"):
        evaluate_policy(problem, policy)


def test_dynamic_programming_identity_on_policy():
    problem = _sensing_problem(horizon=3)
    solution = solve(problem)
    d = problem.gens.n_symbols
    frontier = [((), solution.levels[0][()][0])]
    while frontier:
        history, sid = frontier.pop()
        record = solution.values[(history, sid)]
        if record.control is None:
            continue
        u = record.control
        child_vals = np.array([
            solution.values[(history + (y,),
                             solution.successors[(sid, u, y)])].value
            for y in range(d)])
        one_step = one_step_expectation(
            child_vals, solution.registry.surfaces[sid], problem.gens,
            np.zeros(len(problem.gens)), problem.params)
        recomposed = problem.running_cost[len(history), u] + one_step
        assert abs(record.value - recomposed) < 1e-9
        for y in range(d):
            frontier.append((history + (y,), solution.successors[(sid, u, y)]))


def test_nodes_sharing_surface_share_value():
    problem = _sensing_problem(horizon=3)
    solution = solve(problem)
    by_state: dict = {}
    for (history, sid), record in solution.values.items():
        by_state.setdefault(sid, set()).add(round(record.value, 12))
    for values in by_state.values():
        assert len(values) == 1


def test_each_state_control_symbol_triple_is_stepped_once(monkeypatch):
    # control steps through the level kernel; every row it is handed is one
    # (state, control, symbol) triple, so a triple stepped twice shows here
    rows = []
    level_kernel = penalty._grid_level

    def counting_kernel(surfaces, *args):
        rows.append(len(surfaces))
        return level_kernel(surfaces, *args)

    monkeypatch.setattr(penalty, "_grid_level", counting_kernel)
    solution = solve(_sensing_problem(horizon=4))
    assert sum(rows) == len(solution.successors) == 316
    assert len(rows) < len(solution.successors)


def test_policy_charges_its_own_control_where_histories_share_a_state():
    # the flat surface is reached from both (0,) and (1,), which the policy
    # expands under different controls
    problem = _uninformative_problem(horizon=2, run_costs=[[0, 1], [0, 1]])
    result = evaluate_policy(problem, {(): 0, (0,): 0, (1,): 1})
    assert result.levels[1] == {(0,): [1], (1,): [1]}
    assert result.values[((0,), 1)].value == pytest.approx(7.5, abs=1e-12)
    assert result.values[((1,), 1)].value == pytest.approx(8.5, abs=1e-12)
    assert result.root_value == pytest.approx(8.0, abs=1e-12)


def test_bellman_difference_recomputation():
    problem = _sensing_problem(horizon=2)
    solution = solve(problem)
    d = problem.gens.n_symbols
    for (history, sid), record in solution.values.items():
        if record.control is None:
            continue
        qs = []
        for u in range(problem.n_controls):
            child_vals = np.array([
                solution.values[(history + (y,),
                                 solution.successors[(sid, u, y)])].value
                for y in range(d)])
            sup = one_step_expectation(
                child_vals, solution.registry.surfaces[sid], problem.gens,
                np.zeros(len(problem.gens)), problem.params)
            qs.append(problem.running_cost[len(history), u] + sup)
        assert abs(min(qs) - record.value) < 1e-12
        assert record.q_values == tuple(qs)


def test_resolving_subtree_reproduces_policy():
    problem = _sensing_problem(horizon=3)
    solution = solve(problem)
    root_sid = solution.levels[0][()][0]
    for y in range(2):
        child_sid = solution.successors[(root_sid, solution.policy[()], y)]
        sub = solve(problem, root_history=(y,),
                    root_surface=solution.registry.surfaces[child_sid])
        assert sub.policy == {h: u for h, u in solution.policy.items()
                              if h[:1] == (y,)}
        for (history, sid), record in sub.values.items():
            if record.control is None:
                continue
            surface = sub.registry.surfaces[sid]
            orig_sid = solution.registry._ids[StateRegistry.key_of(surface)]
            assert (solution.values[(history, orig_sid)].control
                    == record.control)
            assert abs(solution.values[(history, orig_sid)].value
                       - record.value) < 1e-12


def test_caps_raise():
    problem = _sensing_problem(horizon=3)
    object.__setattr__(problem, "state_cap", 5)
    with pytest.raises(CapExceeded, match=r"^9 reachable \(history, state\) "
                       r"pairs by depth 2 exceed the cap of 5$"):
        solve(problem)
    problem2 = _sensing_problem(horizon=3)
    object.__setattr__(problem2, "policy_cap", 10)
    with pytest.raises(CapExceeded):
        brute_force(problem2)


def test_policy_lookup_failure():
    problem = _sensing_problem(horizon=2)
    with pytest.raises(KeyError):
        evaluate_policy(problem, {(): 0})


def test_brute_force_single_control_equals_policy_evaluation():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.9, 0.2], [0.1, 0.8]]),
                              emission=np.array([[0.75, 0.25],
                                                 [0.25, 0.75]])),),
        prior_penalty=np.array([0.0]),
        control_penalty=np.array([[0.0]]))
    grid = SimplexGrid.build(2, 6)
    problem = ControlProblem(labels=("only",), gens=gens,
                             initial_surface=initial_grid_surface(
                                 np.zeros(len(grid)), gens, grid, "dynamic"),
                             framework="dr", horizon=2, params=P1,
                             running_cost=np.array([[0.5], [0.5]]),
                             terminal_cost=StateFunctional(
                                 values=np.array([1.0, 0.0])))
    only = {h: 0 for h in [()] + [(y,) for y in range(2)]}
    assert brute_force(problem) == evaluate_policy(problem, only).root_value


def test_brute_force_horizon_one_is_direct_scan():
    problem = _sensing_problem(horizon=1)
    per_control = []
    for u in range(problem.n_controls):
        per_control.append(evaluate_policy(problem, {(): u}).root_value)
    assert brute_force(problem) == min(per_control)


def test_static_scope_rejected():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.eye(2),
                              emission=np.full((2, 2), 0.5)),),
        prior_penalty=np.array([0.0]),
        control_penalty=np.array([[0.0], [0.0]]))
    grid = SimplexGrid.build(2, 4)
    # a static grid surface and a dynamic exact one
    for initial in (initial_grid_surface(np.zeros(len(grid)), gens, grid,
                                         "static"),
                    initial_exact_surface(grid.points, np.zeros(len(grid)),
                                          gens, "dynamic")):
        with pytest.raises(ValueError, match="dynamic generator scope"):
            ControlProblem(labels=("a", "b"), gens=gens,
                           initial_surface=initial, framework="dr",
                           horizon=1, params=P1,
                           running_cost=np.zeros((1, 2)),
                           terminal_cost=StateFunctional(values=np.zeros(2)))


def _reference_terminal(cost, surface, params):
    # one surface: the usable cells compacted, then one product
    rho = expectation._rho(surface.values, params)
    usable = np.isfinite(rho)
    if not usable.any():
        raise InfeasibleSurface("terminal surface excludes every belief")
    scores = surface.grid.points[usable] @ cost - rho[usable]
    return float(scores[int(np.argmin(scores))])


@given(LEVEL_SHAPES.map(lambda shape: shape[:-1] + ("dynamic",)),
       st.sampled_from([P1, UncertaintyParams(k=0.7, k_exp=2.0),
                        UncertaintyParams(k=0.6, k_exp=inf)]),
       st.sampled_from([1, 7, penalty._CELL_BUDGET]), st.integers(0, 99))
@settings(max_examples=200, deadline=None)
def test_batched_leaves_match_terminal_value(shape, params, budget, seed):
    # surfaces with a single usable cell included: that one-row product
    # rounds apart from the full product's row, and must still match
    _, surfaces, _ = level_case(*shape)
    rng = np.random.Generator(np.random.Philox(seed))
    cost = np.where(rng.random(shape[1]) < 0.2, -0.0,
                    rng.normal(size=shape[1]))
    try:
        expected = [_reference_terminal(cost, s, params) for s in surfaces]
    except InfeasibleSurface:
        with pytest.raises(InfeasibleSurface):
            control._terminal_rows(cost, surfaces, params)
        return
    with mock.patch.object(penalty, "_CELL_BUDGET", budget):
        values = control._terminal_rows(cost, surfaces, params)
    for surface, value, ref_value in zip(surfaces, values, expected):
        (one_value,) = control._terminal_rows(cost, [surface], params)
        assert (np.float64(value).tobytes() == np.float64(one_value).tobytes()
                == np.float64(ref_value).tobytes())
