import itertools
from math import inf, log
from pathlib import Path

import numpy as np
import pytest

import robusthmm.oracles
from robusthmm import CapExceeded, Generator, GeneratorGrid, SimplexGrid
from robusthmm.cli import _check_one_framework, build_exact_prior
from robusthmm.hmm import filter_step
from robusthmm.models import gamma_at
from robusthmm.oracles import (ORACLE_CAP_DEFAULT, OracleReport, _walk_models,
                               bernoulli_closed_forms, oracle_dr_direct,
                               oracle_penalty, render_report_csv)
from conftest import example1_generator

FRAMEWORKS = [(scope, framework) for scope in ("static", "dynamic")
              for framework in ("up", "dr")]


def single_gen():
    return GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))


def test_single_model_pins_one_belief():
    table = oracle_penalty(np.array([[0.5, 0.5]]), np.zeros(1), single_gen(),
                           [0, 1], "up", "dynamic")
    assert len(table) == 1
    assert list(table.values()) == [0.0]


def test_equal_terminal_beliefs_keep_min_penalty():
    beliefs = np.array([[0.5, 0.5], [0.5, 0.5]])
    # duplicate support rows collapse before walking; emulate two models with
    # different penalties landing on one belief via two generator choices
    gens = GeneratorGrid(candidates=(example1_generator(),
                                     example1_generator(0.7, 0.3)),
                         prior_penalty=np.array([0.0, 0.9]))
    uninformative = [  # both candidates leave (1,0) fixed and emit symbol 0
        np.array([[1.0, 0.0]]), np.zeros(1)]
    table = oracle_penalty(uninformative[0], uninformative[1], gens, [0],
                           "up", "dynamic")
    assert len(table) == 1
    assert list(table.values()) == [0.0]  # min(0.0, 0.9) normalized


def test_oracle_cap():
    gens = GeneratorGrid(candidates=(example1_generator(),
                                     example1_generator(0.7, 0.3)),
                         prior_penalty=np.zeros(2))
    with pytest.raises(CapExceeded):
        oracle_penalty(np.array([[0.5, 0.5]]), np.zeros(1), gens, [0] * 21,
                       "up", "dynamic", cap=10 ** 6)


def test_dr_direct_singleton_is_plain_expectation():
    value, = oracle_dr_direct(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]),
                              np.zeros(1), single_gen(), [0], "dr", "dynamic",
                              k=1.0)
    assert abs(value - 0.75) < 1e-12  # posterior after one symbol-0 step


def test_dr_direct_confidence_set_selects_max():
    # two admitted models inside the threshold: plain max of expectations
    beliefs = np.array([[0.3, 0.7], [0.6, 0.4]])
    gens = GeneratorGrid(
        candidates=(example1_generator(0.5, 0.5),),  # uninformative
        prior_penalty=np.array([0.0]))
    value, = oracle_dr_direct(np.array([[1.0, 0.0]]), beliefs,
                              np.array([0.0, 0.3]), gens, [0], "up",
                              "dynamic", k=1.0, k_exp=np.inf)
    assert abs(value - 0.6) < 1e-12


def test_closed_forms_degenerate_cases():
    kappa0 = lambda ells: np.abs(ells)
    fixed, _ = bernoulli_closed_forms(0.75, 0.25, [], kappa0)
    ells = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(fixed(ells), kappa0(ells))
    fixed_ab, _ = bernoulli_closed_forms(0.4, 0.4, [0, 1, 0], kappa0)
    assert np.array_equal(fixed_ab(ells), kappa0(ells))


def test_closed_form_shift_is_log3():
    kappa0 = lambda ells: np.abs(ells)
    fixed, _ = bernoulli_closed_forms(0.75, 0.25, [0], kappa0)
    assert abs(float(fixed(np.array([np.log(3)]))[0])) < 1e-12


def test_report_csv_layout():
    reports = [OracleReport(quantity="q", oracle_value=1.0, engine_value=1.5,
                            instance="demo")]
    text = render_report_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,oracle_value,engine_value,abs_diff,instance"
    assert lines[1] == "q,1.0,1.5,0.5,demo"


def test_oracles_do_not_import_the_engines():
    source = (Path(__file__).resolve().parent.parent / "src" / "robusthmm"
              / "oracles.py").read_text()
    for banned in ("penalty", "expectation", "control"):
        assert f"from .{banned} import" not in source
        assert f"import robusthmm.{banned}" not in source


# ---------------------------------------------------------------------------
# the walk's op order, pinned against a path-by-path reference walker

def _reference_walk(prior_beliefs, prior_values, gens, obs, framework, scope,
                    grid):
    """Re-filter every full generator path from its prior belief."""
    n_steps = len(obs)
    gamma = gamma_at(gens)
    if scope == "static":
        paths = [(g,) * max(n_steps, 1) for g in range(len(gens))]
    else:
        paths = list(itertools.product(range(len(gens)), repeat=n_steps))
    results = []
    for b0, pen0 in zip(np.asarray(prior_beliefs, dtype=np.float64),
                        np.asarray(prior_values, dtype=np.float64)):
        if not np.isfinite(pen0):
            continue
        for path in paths:
            penalty = float(pen0)
            if scope == "static":
                penalty += float(gens.prior_penalty[path[0]])
            if not np.isfinite(penalty):
                continue
            belief = b0 + 0.0
            dead = False
            for t, y in enumerate(obs, start=1):
                g = path[t - 1]
                gen = gens.candidates[g]
                if scope == "dynamic":
                    penalty += float(gamma[g])
                    if not np.isfinite(penalty):
                        dead = True
                        break
                mass = float((gen.transition @ belief) @ gen.emission[:, y])
                if mass <= 0.0:
                    dead = True
                    break
                if framework == "dr":
                    penalty -= log(mass)
                belief = filter_step(belief, gen, y) + 0.0
                if grid is not None:
                    belief = grid.points[grid.round_to_index(belief)] + 0.0
            if not dead:
                results.append((belief, penalty, path[0] if path else 0))
    return results


def _reference_dr_direct(phi, results, k, k_exp=1.0):
    """The per-payoff, per-model scoring loop the stacked call replaces."""
    floor = min(penalty for _, penalty, _ in results)
    best = -inf
    for belief, penalty, _ in results:
        alpha = penalty - floor
        rho = ((0.0 if alpha <= k else inf) if k_exp == inf
               else (alpha / k) ** k_exp)
        best = max(best, float(belief @ phi) - rho)
    return best


def _random_instance(seed):
    """A small instance with dead ends: some emission columns are zero, one
    candidate has penalty inf, some prior beliefs are excluded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    d = int(rng.integers(2, 4))
    return _instance(rng, n, d)


def _instance(rng, n, d):
    """:func:`_random_instance` at ``n`` states and ``d`` symbols."""
    candidates = []
    for _ in range(3):
        trans = rng.dirichlet(np.ones(n), size=n).T
        emit = rng.dirichlet(np.ones(d), size=n)
        if rng.random() < 0.5:
            emit[:, int(rng.integers(d))] = 0.0
            emit /= emit.sum(axis=1, keepdims=True)
        candidates.append(Generator(transition=trans, emission=emit))
    gammas = rng.uniform(0.0, 1.0, size=3)
    gammas[int(rng.integers(3))] = inf
    gens = GeneratorGrid(candidates=tuple(candidates), prior_penalty=gammas)
    beliefs = SimplexGrid.build(n, 3).points
    values = rng.uniform(0.0, 1.0, size=len(beliefs))
    values[rng.random(len(beliefs)) < 0.3] = inf
    return n, d, gens, beliefs, values, rng


def _as_bits(results):
    return [(belief.tobytes(), float(penalty).hex(), int(first))
            for belief, penalty, first in results]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("scope,framework", FRAMEWORKS)
def test_walk_matches_path_by_path_reference(seed, scope, framework):
    n, d, gens, beliefs, values, rng = _random_instance(seed)
    for horizon in range(4):
        obs = [int(y) for y in rng.integers(0, d, size=horizon)]
        for grid in (None, SimplexGrid.build(n, 7)):
            levels = _walk_models(beliefs, values, gens, obs, framework,
                                  scope, grid, ORACLE_CAP_DEFAULT)
            # level t holds the models of the prefix obs[:t]
            assert len(levels) == horizon + 1
            for t, level in enumerate(levels):
                reference = _reference_walk(beliefs, values, gens, obs[:t],
                                            framework, scope, grid)
                assert _as_bits(level) == _as_bits(reference)
            if not reference:
                continue
            phis = rng.uniform(-1.0, 1.0, size=(5, n))
            stacked = oracle_dr_direct(phis, beliefs, values, gens, obs,
                                       framework, scope, k=0.7, grid=grid)
            for phi, value in zip(phis, stacked):
                assert value == _reference_dr_direct(phi, reference, k=0.7)


@pytest.mark.parametrize("seed", [1, 2])  # every framework keeps models
@pytest.mark.parametrize("scope,framework", FRAMEWORKS)
def test_walk_matches_reference_at_four_states(seed, scope, framework):
    # the stacked products must keep the per-row bits beyond 2 and 3 states
    n, d, gens, beliefs, values, rng = _instance(
        np.random.default_rng([4, seed]), 4, 3)
    obs = [int(y) for y in rng.integers(0, d, size=4)]
    for grid in (None, SimplexGrid.build(n, 7)):
        levels = _walk_models(beliefs, values, gens, obs, framework, scope,
                              grid, ORACLE_CAP_DEFAULT)
        assert len(levels) == len(obs) + 1 and len(levels[-1]) > 0
        for t, level in enumerate(levels):
            reference = _reference_walk(beliefs, values, gens, obs[:t],
                                        framework, scope, grid)
            assert _as_bits(level) == _as_bits(reference)


@pytest.mark.parametrize("scope,framework", FRAMEWORKS)
def test_gridded_walk_rounds_by_level(scope, framework, monkeypatch):
    # each frontier level is rounded by one round_rows call, never point by
    # point; the results are pinned bit for bit by the reference tests above
    n, d, gens, beliefs, values, rng = _random_instance(3)
    grid = SimplexGrid.build(n, 7)
    obs = [int(y) for y in rng.integers(0, d, size=3)]

    def refuse(*args):
        raise AssertionError("round_to_index called during a gridded walk")

    monkeypatch.setattr(SimplexGrid, "round_to_index", refuse)
    rounds = []
    original = SimplexGrid.round_rows

    def counted(self, rows):
        rounds.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(SimplexGrid, "round_rows", counted)
    table = oracle_penalty(beliefs, values, gens, obs, framework, scope,
                           grid=grid)
    assert table
    # one call per level, then one to key the terminal cells
    assert len(rounds) == len(obs) + 1
    oracle_dr_direct(np.ones((2, n)), beliefs, values, gens, obs, framework,
                     scope, k=0.7, grid=grid)
    assert len(rounds) == 2 * len(obs) + 1


# ---------------------------------------------------------------------------
# metamorphic properties of the oracles

def _shipped(oracle_cfg):
    beliefs, values = build_exact_prior(oracle_cfg.prior_values,
                                        oracle_cfg.grid)
    return beliefs, values, oracle_cfg.gens, list(oracle_cfg.observations)


def _phi_stack(n_states, rows=50, seed=7):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.uniform(-1.0, 1.0, size=(rows, n_states))


@pytest.mark.parametrize("scope,framework", FRAMEWORKS)
def test_excluded_candidate_changes_nothing(oracle_cfg, scope, framework):
    beliefs, values, gens, obs = _shipped(oracle_cfg)
    dead = Generator(transition=np.eye(2), emission=np.full((2, 2), 0.5))
    padded = GeneratorGrid(candidates=gens.candidates + (dead,),
                           prior_penalty=np.append(gens.prior_penalty, inf))
    phis = _phi_stack(oracle_cfg.n_states)
    for t in range(len(obs) + 1):
        assert (oracle_penalty(beliefs, values, padded, obs[:t], framework,
                               scope)
                == oracle_penalty(beliefs, values, gens, obs[:t], framework,
                                  scope))
    args = (beliefs, values)
    kwargs = dict(obs=obs, framework=framework, scope=scope, k=1.0)
    assert np.array_equal(oracle_dr_direct(phis, *args, padded, **kwargs),
                          oracle_dr_direct(phis, *args, gens, **kwargs))


@pytest.mark.parametrize("scope,framework", FRAMEWORKS)
def test_dr_direct_translation_and_monotonicity(oracle_cfg, scope, framework):
    beliefs, values, gens, obs = _shipped(oracle_cfg)
    phis = _phi_stack(oracle_cfg.n_states)

    def oracle(stack):
        return oracle_dr_direct(stack, beliefs, values, gens, obs, framework,
                                scope, k=1.0)

    base = oracle(phis)
    for c in (-1.5, 0.25, 3.0):
        assert np.max(np.abs(oracle(phis + c) - (base + c))) <= 1e-12
    bump = np.random.default_rng(3).uniform(0.0, 0.5, size=phis.shape)
    bump[::3] = 0.0
    assert np.all(oracle(phis + bump) >= base)


@pytest.mark.parametrize("scope,framework", FRAMEWORKS)
def test_stacked_rows_equal_one_row_calls(oracle_cfg, scope, framework):
    beliefs, values, gens, obs = _shipped(oracle_cfg)
    phis = _phi_stack(oracle_cfg.n_states)
    stacked = oracle_dr_direct(phis, beliefs, values, gens, obs, framework,
                               scope, k=1.0)
    assert stacked.shape == (len(phis),)
    for phi, value in zip(phis, stacked):
        single = oracle_dr_direct(phi[None, :], beliefs, values, gens, obs,
                                  framework, scope, k=1.0)
        assert single.shape == (1,) and single[0] == value


# ---------------------------------------------------------------------------
# walk-count regression guard: one walk per model set, not one per payoff

def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(robusthmm.oracles, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(robusthmm.oracles, name, counted)
    return calls


def _count_rows(monkeypatch):
    """Rows per stacked Bayes step of the walk, one entry per call."""
    rows = []
    original = robusthmm.oracles._bayes_rows

    def counted(beliefs, *args):
        rows.append(len(beliefs))
        return original(beliefs, *args)

    monkeypatch.setattr(robusthmm.oracles, "_bayes_rows", counted)
    return rows


def test_stacked_call_walks_once(oracle_cfg, monkeypatch):
    beliefs, values, gens, obs = _shipped(oracle_cfg)
    assert len(beliefs) == 5 and len(gens) == 3 and len(obs) == 3
    rows = _count_rows(monkeypatch)
    oracle_dr_direct(_phi_stack(oracle_cfg.n_states), beliefs, values, gens,
                     obs, "dr", "dynamic", k=1.0)
    # one stacked step per generator and level, each prefix filtered once
    assert len(rows) == 3 * 3
    assert sum(rows) == 5 * (3 + 9 + 27)


def test_cap_is_checked_before_walking(monkeypatch):
    rows = _count_rows(monkeypatch)
    gens = GeneratorGrid(candidates=(example1_generator(),
                                     example1_generator(0.7, 0.3)),
                         prior_penalty=np.zeros(2))
    with pytest.raises(CapExceeded):
        oracle_dr_direct(np.zeros((50, 2)), np.array([[0.5, 0.5]]),
                         np.zeros(1), gens, [0] * 21, "dr", "dynamic", k=1.0)
    assert rows == []


@pytest.mark.parametrize("label", ["static-up", "dynamic-up", "static-dr",
                                   "dynamic-dr"])
def test_oracle_check_walks_once(oracle_cfg, label, monkeypatch):
    # one walk scores every prefix's penalties and all 50 payoffs
    walks = _count_calls(monkeypatch, "_walk_models")
    obs = list(oracle_cfg.observations)
    reports = _check_one_framework(label, oracle_cfg, obs, {})
    assert len(walks) == 1
    assert len(reports) == len(obs) + 1 + 50
    assert max(r.abs_diff for r in reports) <= 1e-9
