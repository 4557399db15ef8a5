"""Metamorphic properties of the engines: relabelling symbols or hidden
states changes nothing but the labels, and the backward expectation is
monotone in the payoff. Each runs on the shipped oracle instance and on a
random three-state, three-symbol one, whose matrices have none of the
shipped instance's symmetries (its emission matrices are symmetric, so a
symbol swap there cannot tell an emission row from a column).

Control's properties run on the shipped control instance, whose surfaces
are not flat, so a value that ignored them would show: a terminal shift
shifts every value, every value is monotone in the costs, costs and ``k``
scaled together scale the values at ``k_exp = 1``, and relabelling the
controls relabels the policy."""

from types import SimpleNamespace

import numpy as np
import pytest

from robusthmm import (ControlProblem, Generator, GeneratorGrid, SimplexGrid,
                       StateFunctional, TreeSetup, UncertaintyParams,
                       backward_expectation, dr_expectation, evolve,
                       initial_exact_surface, initial_grid_surface, solve)
from robusthmm.cli import build_exact_prior

LABELS = [("static", "up"), ("dynamic", "up"), ("static", "dr"),
          ("dynamic", "dr")]
INSTANCES = ["oracle_t3", "random"]


@pytest.fixture(params=INSTANCES)
def instance(request, oracle_cfg):
    """Generators, grid, prior values on the grid, observations and
    uncertainty parameters of one instance."""
    if request.param == "oracle_t3":
        return SimpleNamespace(
            gens=oracle_cfg.gens, grid=oracle_cfg.grid,
            prior_values=oracle_cfg.prior_values,
            obs=list(oracle_cfg.observations) + [0, 1, 1],
            params=oracle_cfg.params)
    rng = np.random.Generator(np.random.Philox(key=5))
    grid = SimplexGrid.build(3, 4)
    values = rng.exponential(size=len(grid))
    values[rng.random(len(grid)) < 0.3] = np.inf
    values[0] = 0.0
    gens = GeneratorGrid(
        candidates=tuple(
            Generator(transition=rng.dirichlet(np.ones(3), size=3).T,
                      emission=rng.dirichlet(np.ones(3), size=3))
            for _ in range(3)),
        prior_penalty=np.array([0.0, 0.3, 0.7]))
    return SimpleNamespace(gens=gens, grid=grid, prior_values=values,
                           obs=[0, 2, 1, 2],
                           params=UncertaintyParams(k=0.8))


def _relabelled(gens, transition, emission):
    """``gens`` with every candidate's matrices passed through the maps."""
    return GeneratorGrid(
        candidates=tuple(Generator(transition=transition(g.transition),
                                   emission=emission(g.emission))
                         for g in gens.candidates),
        prior_penalty=gens.prior_penalty)


def _initial_surfaces(inst, gens, scope, beliefs_perm=None):
    """The grid and the exact time-zero surface of an instance's prior."""
    beliefs, values = build_exact_prior(inst.prior_values, inst.grid)
    if beliefs_perm is not None:
        beliefs = beliefs[:, beliefs_perm]
    return {"grid": initial_grid_surface(inst.prior_values, gens, inst.grid,
                                         scope),
            "exact": initial_exact_surface(beliefs, values, gens, scope)}


def _cycle(size):
    """A relabelling that is not its own inverse where size > 2."""
    return np.roll(np.arange(size), -1)


@pytest.mark.parametrize("scope,framework", LABELS)
def test_relabelling_symbols_leaves_every_surface_bit_identical(
        instance, scope, framework):
    # new symbol j is old symbol perm[j]
    gens = instance.gens
    perm = _cycle(gens.n_symbols)
    inverse = np.argsort(perm)
    swapped = _relabelled(gens, lambda t: t, lambda e: e[:, perm])
    new_obs = [int(inverse[y]) for y in instance.obs]
    before = _initial_surfaces(instance, gens, scope)
    after = _initial_surfaces(instance, swapped, scope)
    for kind in ("grid", "exact"):
        want, want_reports = evolve(before[kind], gens, instance.obs,
                                    framework)
        got, got_reports = evolve(after[kind], swapped, new_obs, framework)
        for a, b in zip(want, got, strict=True):
            assert a.values.tobytes() == b.values.tobytes(), kind
            if kind == "exact":
                assert a.beliefs.tobytes() == b.beliefs.tobytes()
        assert [r.m_t for r in want_reports] == [r.m_t for r in got_reports]


def _match_rows(surface, relabelled, inverse):
    """Pair each row of ``relabelled`` with the row of ``surface`` at the
    same belief (state labels mapped back by ``inverse``) and candidate;
    returns the largest belief and value gaps."""
    back = relabelled.beliefs[:, inverse]
    gaps = np.abs(back[:, None, :] - surface.beliefs[None, :, :]).max(axis=2)
    if surface.gen_ids is not None:
        same = relabelled.gen_ids[:, None] == surface.gen_ids[None, :]
        gaps = np.where(same, gaps, np.inf)
    nearest = gaps.argmin(axis=1)
    assert sorted(nearest.tolist()) == list(range(len(surface)))
    value_gap = np.abs(relabelled.values - surface.values[nearest]).max()
    return float(gaps.min(axis=1).max()), float(value_gap)


@pytest.mark.parametrize("scope,framework", LABELS)
def test_relabelling_states_permutes_exact_beliefs(instance, scope,
                                                   framework):
    # new state i is old state perm[i]
    gens = instance.gens
    perm = _cycle(gens.n_states)
    inverse = np.argsort(perm)
    swapped = _relabelled(gens, lambda t: t[np.ix_(perm, perm)],
                          lambda e: e[perm])
    want, _ = evolve(_initial_surfaces(instance, gens, scope)["exact"],
                     gens, instance.obs, framework)
    got, _ = evolve(_initial_surfaces(instance, swapped, scope,
                                      perm)["exact"],
                    swapped, instance.obs, framework)
    rng = np.random.Generator(np.random.Philox(key=11))
    phis = rng.uniform(-1.0, 1.0, size=(20, gens.n_states))
    for a, b in zip(want, got, strict=True):
        assert len(a) == len(b)
        belief_gap, value_gap = _match_rows(a, b, inverse)
        assert belief_gap <= 1e-12 and value_gap <= 1e-12
        for phi in phis:
            value, _ = dr_expectation(phi, a, instance.params)
            relabelled, _ = dr_expectation(phi[perm], b, instance.params)
            assert abs(value - relabelled) <= 1e-12


@pytest.mark.parametrize("scope,framework", LABELS)
@pytest.mark.parametrize("kind", ["grid", "exact"])
def test_backward_expectation_is_monotone_in_the_payoff(instance, kind,
                                                        scope, framework):
    gens = instance.gens
    setup = TreeSetup(
        gens=gens, framework=framework, horizon=3,
        initial_surface=_initial_surfaces(instance, gens, scope)[kind],
        params=instance.params)
    rng = np.random.Generator(np.random.Philox(key=13))
    for _ in range(5):
        lo = rng.uniform(-2.0, 2.0, gens.n_states)
        hi = lo + rng.uniform(0.0, 0.5, gens.n_states)
        low = backward_expectation(StateFunctional(values=lo), setup)
        high = backward_expectation(StateFunctional(values=hi), setup)
        for t, (a, b) in enumerate(zip(low.values, high.values,
                                       strict=True)):
            assert (b >= a).all(), (t, a, b)


def _control_problem(cfg, running=None, terminal=None, params=None,
                     gens=None, labels=None):
    """The control problem of a config, with the named parts replaced."""
    control = cfg.control
    return ControlProblem(
        labels=tuple(control["labels"] if labels is None else labels),
        gens=cfg.gens if gens is None else gens,
        initial_surface=cfg.initial_surface(), framework=cfg.framework,
        horizon=cfg.horizon, params=cfg.params if params is None else params,
        running_cost=control["running_cost"] if running is None else running,
        terminal_cost=StateFunctional(values=control["terminal_cost"]
                                      if terminal is None else terminal))


@pytest.mark.parametrize("shift", [0.7, -1.3, 5.0])
def test_terminal_shift_shifts_every_control_value(control_cfg, shift):
    base = solve(_control_problem(control_cfg))
    moved = solve(_control_problem(
        control_cfg, terminal=control_cfg.control["terminal_cost"] + shift))
    assert moved.values.keys() == base.values.keys()
    for key, record in base.values.items():
        assert moved.values[key].value == pytest.approx(record.value + shift,
                                                        abs=1e-12)
        assert moved.values[key].control == record.control


@pytest.mark.parametrize("part", ["running", "terminal"])
def test_control_values_are_monotone_in_the_costs(control_cfg, part):
    base = solve(_control_problem(control_cfg))
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(3):
        if part == "running":
            cost = control_cfg.control["running_cost"]
            higher = _control_problem(
                control_cfg, running=cost + rng.uniform(0.0, 0.5, cost.shape))
        else:
            cost = control_cfg.control["terminal_cost"]
            higher = _control_problem(
                control_cfg, terminal=cost + rng.uniform(0.0, 0.5, cost.shape))
        raised = solve(higher)
        assert raised.values.keys() == base.values.keys()
        for key, record in base.values.items():
            assert raised.values[key].value >= record.value, key


def test_scaling_costs_and_k_together_scales_control_values(control_cfg):
    # at k_exp = 1, rho(alpha) = alpha / k, so costs x lam with k / lam
    # multiply every payoff and every converted penalty by lam
    assert control_cfg.params.k_exp == 1.0
    lam = 2.5
    base = solve(_control_problem(control_cfg))
    scaled = solve(_control_problem(
        control_cfg, running=control_cfg.control["running_cost"] * lam,
        terminal=control_cfg.control["terminal_cost"] * lam,
        params=UncertaintyParams(k=control_cfg.params.k / lam)))
    assert scaled.root_value == pytest.approx(lam * base.root_value,
                                              abs=1e-12)
    for key, record in base.values.items():
        assert scaled.values[key].value == pytest.approx(lam * record.value,
                                                         abs=1e-12)
        assert scaled.values[key].control == record.control


def test_swapping_control_labels_swaps_the_policy(control_cfg):
    # the shipped problem's q-values never tie, so the swap is exact
    gens = control_cfg.gens
    swapped = GeneratorGrid(candidates=gens.candidates,
                            prior_penalty=gens.prior_penalty,
                            control_penalty=gens.control_penalty[::-1])
    base = solve(_control_problem(control_cfg))
    relabelled = solve(_control_problem(
        control_cfg, running=control_cfg.control["running_cost"][:, ::-1],
        gens=swapped, labels=control_cfg.control["labels"][::-1]))
    assert set(base.policy.values()) == {0, 1}
    assert relabelled.policy == {h: 1 - u for h, u in base.policy.items()}
    assert relabelled.root_value == pytest.approx(base.root_value, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the control leaf "
                   "takes an infimum over beliefs, not the sup; the root "
                   "value reads -2.941 today")
def test_constant_control_costs_give_their_sum(control_cfg):
    running = np.zeros_like(control_cfg.control["running_cost"])
    problem = _control_problem(control_cfg, running=running,
                               terminal=np.ones(control_cfg.n_states))
    assert solve(problem).root_value == pytest.approx(1.0, abs=1e-12)
