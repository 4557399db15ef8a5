from dataclasses import replace
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusthmm import expectation, penalty
from robusthmm import (ExtendedPenaltySurface, Generator, GeneratorGrid,
                       InfeasibleSurface, SimplexGrid, StateFunctional,
                       TreeSetup,
                       UncertaintyParams, backward_expectation, bsde_decompose,
                       bsde_driver, dr_expectation, fill_backward, gamma_at,
                       initial_exact_surface, initial_grid_surface,
                       one_step_expectation)
from robusthmm.oracles import oracle_dr_direct, oracle_penalty
from conftest import LEVEL_SHAPES, example1_generator, level_case

P1 = UncertaintyParams(k=1.0, k_exp=1.0)


def ex1_grid_of(count=2):
    cands = (
        Generator(transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
                  emission=np.array([[0.7, 0.3], [0.3, 0.7]])),
        Generator(transition=np.array([[0.55, 0.45], [0.45, 0.55]]),
                  emission=np.array([[0.6, 0.4], [0.4, 0.6]])),
    )[:count]
    return GeneratorGrid(candidates=cands,
                         prior_penalty=np.array([0.0, 0.35][:count]))


# ---------------------------------------------------------------------------
# rho

def _rho(penalties, params):
    return expectation._rho(np.array(penalties, dtype=float), params).tolist()


def test_rho_basic_values():
    assert _rho([0.0], P1) == [0.0]
    assert _rho([2.0], UncertaintyParams(k=1.0, k_exp=2.0)) == [4.0]
    assert _rho([3.0], UncertaintyParams(k=2.0, k_exp=1.0)) == [1.5]


def test_rho_hard_threshold_conventions():
    params = UncertaintyParams(k=1.0, k_exp=inf)
    assert _rho([0.5, 1.0, 1.5, inf], params) == [0.0, 0.0, inf, inf]
    assert _rho([inf], P1) == [inf]


@pytest.mark.parametrize("k_exp", [1.0, inf])
def test_rho_with_infinite_k_keeps_excluded_penalties_infinite(k_exp):
    params = UncertaintyParams(k=inf, k_exp=k_exp)
    assert _rho([inf, 0.0, 7.5], params) == [inf, 0.0, 0.0]


# ---------------------------------------------------------------------------
# current-state expectation

def test_dr_expectation_unpenalized_hits_vertex():
    grid = SimplexGrid.build(2, 6)
    surface = initial_grid_surface(np.zeros(len(grid)), ex1_grid_of(), grid,
                                   "dynamic")
    value, argmax = dr_expectation(np.array([1.0, 0.0]), surface, P1)
    assert value == 1.0
    assert np.array_equal(argmax, [1.0, 0.0])


def test_dr_expectation_point_mass_is_linear_expectation():
    grid = SimplexGrid.build(2, 5)
    values = np.full(len(grid), np.inf)
    values[3] = 0.0  # the cell (0.6, 0.4)
    surface = initial_grid_surface(values, ex1_grid_of(), grid, "dynamic")
    value, argmax = dr_expectation(np.array([1.0, 0.0]), surface, P1)
    assert abs(value - 0.6) < 1e-15
    assert np.allclose(argmax, [0.6, 0.4])


def test_dr_expectation_matches_exhaustive_scan():
    grid = SimplexGrid.build(2, 10)
    with np.errstate(divide="ignore"):
        table = np.abs(np.log(grid.points[:, 0] / grid.points[:, 1]))
    surface = initial_grid_surface(table, ex1_grid_of(), grid, "dynamic")
    value, _ = dr_expectation(np.array([1.0, 0.0]), surface, P1)
    best = max(q[0] - v for q, v in zip(grid.points, surface.values)
               if np.isfinite(v))
    assert abs(value - best) < 1e-15


def test_scan_errors_name_the_step_and_the_level_count():
    # 3,000 cells a surface: the scans take two surfaces a block, so the
    # infeasible surfaces 1 and 3 sit in different blocks
    grid = SimplexGrid.build(2, 2999)
    gens = ex1_grid_of(1)
    surfaces = [replace(initial_grid_surface(np.zeros(len(grid)), gens, grid,
                                             "dynamic"), time=5)
                for _ in range(4)]
    for i in (1, 3):
        object.__setattr__(surfaces[i], "values", np.full(len(grid), np.inf))
    count = "at step 5: 2 of 4 surfaces infeasible"
    with pytest.raises(InfeasibleSurface, match=(
            f"^surface excludes every belief {count}$")):
        expectation._dr_rows(surfaces, [1.0, 0.0], P1)
    with pytest.raises(InfeasibleSurface, match=(
            f"^every model is excluded in the one-step scan {count}$")):
        expectation._sup_rows(surfaces, np.zeros((4, 2)), gens,
                              gamma_at(gens), P1)
    with pytest.raises(InfeasibleSurface, match=(
            "^surface excludes every belief at step 5: 1 of 1 surfaces")):
        dr_expectation(np.array([1.0, 0.0]), surfaces[1], P1)


def test_dr_expectation_infeasible_surface_raises():
    grid = SimplexGrid.build(2, 3)
    surface = initial_grid_surface(np.zeros(len(grid)), ex1_grid_of(), grid,
                                   "dynamic")
    object.__setattr__(surface, "values", np.full(len(grid), np.inf))
    with pytest.raises(InfeasibleSurface):
        dr_expectation(np.array([1.0, 0.0]), surface, P1)


# ---------------------------------------------------------------------------
# one-step expectation

def test_one_step_constant_payoff_is_constant():
    grid = SimplexGrid.build(2, 6)
    gens = ex1_grid_of(2)
    surface = initial_grid_surface(np.abs(grid.points[:, 0] - 0.3), gens,
                                   grid, "dynamic")
    value = one_step_expectation(np.array([4.2, 4.2]), surface, gens,
                                 gamma_at(gens), P1)
    assert abs(value - 4.2) < 1e-12


def test_one_step_linear_maximization_hits_vertex(ex1_gens):
    grid = SimplexGrid.build(2, 6)
    surface = initial_grid_surface(np.zeros(len(grid)), ex1_gens, grid,
                                   "dynamic")
    value = one_step_expectation(np.array([1.0, 0.0]), surface, ex1_gens,
                                 np.zeros(1), P1)
    assert abs(value - 0.75) < 1e-12


def test_one_step_infinite_gamma_excludes_candidate(ex1_gens):
    grid = SimplexGrid.build(2, 6)
    surface = initial_grid_surface(np.zeros(len(grid)), ex1_gens, grid,
                                   "dynamic")
    two = GeneratorGrid(candidates=(example1_generator(),
                                    example1_generator(0.9, 0.1)),
                        prior_penalty=np.array([0.0, 0.0]))
    value = one_step_expectation(np.array([1.0, 0.0]), surface, two,
                                 np.array([0.0, np.inf]), P1)
    single = one_step_expectation(np.array([1.0, 0.0]), surface, ex1_gens,
                                  np.zeros(1), P1)
    assert value == single


def test_one_step_without_penalties_is_plain_predictive_sup():
    # with flat surfaces and no candidate penalties, the one-step value is
    # the raw maximum over predictive mixtures (the penalty enters twice in
    # general; here both copies vanish)
    grid = SimplexGrid.build(2, 8)
    gens = ex1_grid_of(2)
    surface = initial_grid_surface(np.zeros(len(grid)), gens, grid, "dynamic")
    xi = np.array([0.7, -0.4])
    value = one_step_expectation(xi, surface, gens, np.zeros(2), P1)
    best = max(float(((gen.transition @ p) @ gen.emission) @ xi)
               for p in grid.points for gen in gens.candidates)
    assert abs(value - best) < 1e-15


def _scope_surface(scope, exact):
    """Time-zero surface of one scope on a 2-state, 6-cell grid."""
    gens = ex1_grid_of(2)
    grid = SimplexGrid.build(2, 5)
    if exact:
        return gens, initial_exact_surface(grid.points, np.zeros(len(grid)),
                                           gens, scope)
    return gens, initial_grid_surface(np.zeros(len(grid)), gens, grid, scope)


_SCOPED_CALLS = {
    "forward_image_step": (False, lambda s, gens, gammas:
                           penalty.forward_image_step(s, gens, gammas, 0,
                                                      "dr")),
    "exact_step": (True, lambda s, gens, gammas:
                   penalty.exact_step(s, gens, gammas, 0, "dr")),
    "one_step_expectation": (False, lambda s, gens, gammas:
                             one_step_expectation(np.zeros(2), s, gens,
                                                  gammas, P1)),
    "bsde_driver": (False, lambda s, gens, gammas:
                    bsde_driver(np.zeros(2), s, gens, gammas, P1)),
}


@pytest.mark.parametrize("name", sorted(_SCOPED_CALLS))
@pytest.mark.parametrize("scope,message", [
    ("static", "static scope takes no per-step penalties"),
    ("dynamic", "dynamic scope needs per-candidate penalties")])
def test_scope_and_step_penalties_must_pair(name, scope, message):
    exact, call = _SCOPED_CALLS[name]
    gens, surface = _scope_surface(scope, exact)
    wrong = gamma_at(gens) if scope == "static" else None
    with pytest.raises(ValueError, match=message):
        call(surface, gens, wrong)


def test_up_and_dr_trees_coincide_without_information():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
                              emission=np.full((2, 2), 0.5)),
                    Generator(transition=np.eye(2),
                              emission=np.full((2, 2), 0.5))),
        prior_penalty=np.array([0.0, 0.3]))
    prior = initial_exact_surface(np.array([[0.2, 0.8], [0.5, 0.5]]),
                                  np.array([0.1, 0.0]), gens, "dynamic")
    trees = {}
    for framework in ("up", "dr"):
        setup = TreeSetup(gens=gens, framework=framework, horizon=2,
                          initial_surface=prior, params=P1)
        trees[framework] = backward_expectation(
            StateFunctional(values=np.array([1.0, 0.0])), setup)
    for a, b in zip(trees["up"].values, trees["dr"].values, strict=True):
        assert (np.abs(a - b) < 1e-12).all()


def test_one_step_monotone_in_payoff():
    grid = SimplexGrid.build(2, 8)
    gens = ex1_grid_of(2)
    rng = np.random.Generator(np.random.Philox(key=5))
    surface = initial_grid_surface(rng.exponential(1.0, len(grid)), gens,
                                   grid, "dynamic")
    for _ in range(30):
        lo = rng.uniform(-2, 2, 2)
        hi = lo + rng.uniform(0, 1, 2)
        v_lo = one_step_expectation(lo, surface, gens, gamma_at(gens), P1)
        v_hi = one_step_expectation(hi, surface, gens, gamma_at(gens), P1)
        assert v_hi >= v_lo - 1e-12


# ---------------------------------------------------------------------------
# backward expectation on the tree

PRIOR_BELIEFS = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
PRIOR_VALUES = np.array([0.1, 0.0, 0.25])


def _exact_setup(horizon=2, framework="dr", gens=None, params=P1):
    gens = gens or ex1_grid_of(2)
    prior = initial_exact_surface(PRIOR_BELIEFS, PRIOR_VALUES, gens,
                                  "dynamic")
    return TreeSetup(gens=gens, framework=framework, horizon=horizon,
                     initial_surface=prior, params=params)


def test_backward_constant_payoff_propagates():
    setup = _exact_setup(horizon=3)
    tree = backward_expectation(StateFunctional(values=np.array([2.5, 2.5])),
                                setup)
    for values in tree.values:
        assert (np.abs(values - 2.5) < 1e-9).all()


def test_backward_horizon_zero_is_current_state_expectation():
    setup = _exact_setup(horizon=0)
    tree = backward_expectation(StateFunctional(values=np.array([1.0, 0.0])),
                                setup)
    direct, _ = dr_expectation(np.array([1.0, 0.0]), setup.initial_surface, P1)
    assert tree.values[0][0] == direct


def _enumeration_route(phi, setup):
    """The backward value of a history by an independent route: at each
    node, rebuild the penalty table by enumeration and apply the defining
    formulas, with ``rho(x) = x / k``, in plain loops."""
    gens, k = setup.gens, setup.params.k

    def table_at(history):
        table = oracle_penalty(PRIOR_BELIEFS, PRIOR_VALUES, gens,
                               list(history), "dr", "dynamic")
        rows = [(np.frombuffer(key, dtype=np.float64), v)
                for key, v in table.items()]
        return rows

    def value_at(history):
        if len(history) == setup.horizon:
            return max(float(b @ phi) - v / k for b, v in table_at(history))
        rows = table_at(history)
        child = [value_at(tuple(history) + (y,)) for y in range(2)]
        best = -inf
        for g, gen in enumerate(gens.candidates):
            gam = float(gens.prior_penalty[g])
            for b, v in rows:
                pred = (gen.transition @ b) @ gen.emission
                score = pred @ np.array(child) - (v + gam) / k
                best = max(best, float(score))
        return best

    return value_at


def test_backward_matches_direct_recursion_from_enumeration():
    # independent route: at each node, rebuild the penalty table by
    # enumeration and apply the defining formulas with plain loops
    phi = np.array([1.0, 0.0])
    setup = _exact_setup()
    tree = backward_expectation(StateFunctional(values=phi), setup)
    value_at = _enumeration_route(phi, setup)
    values = np.concatenate(tree.values)
    for history, value in zip(tree.histories(), values, strict=True):
        assert abs(value - value_at(history)) < 1e-9


# at a large k the penalty weighs little, so the sup and the least-penalty
# model part ways; the checks below tell them apart

@pytest.mark.parametrize("k", [10.0, 100.0])
def test_backward_matches_direct_recursion_at_large_k(k):
    phi = np.array([1.0, -0.5])
    setup = _exact_setup(params=UncertaintyParams(k=k))
    tree = backward_expectation(StateFunctional(values=phi), setup)
    value_at = _enumeration_route(phi, setup)
    values = np.concatenate(tree.values)
    for history, value in zip(tree.histories(), values, strict=True):
        assert abs(value - value_at(history)) < 1e-9


KS = (0.25, 1.0, 4.0, 10.0, 100.0)


def test_root_value_is_nondecreasing_in_k():
    # rho falls as k grows, so the root value cannot; it must rise wherever
    # the enumeration route says it does
    phi = np.array([1.0, -0.5])
    engine, oracle = [], []
    for k in KS:
        setup = _exact_setup(params=UncertaintyParams(k=k))
        engine.append(backward_expectation(StateFunctional(values=phi),
                                           setup).values[0][0])
        oracle.append(_enumeration_route(phi, setup)(()))
    rises = [b - a > 1e-9 for a, b in zip(oracle, oracle[1:])]
    assert any(rises)
    for a, b, rises_here in zip(engine, engine[1:], rises):
        assert a <= b
        assert b > a or not rises_here


def test_premium_is_positive_where_enumeration_says_so():
    # V(e0) + V(-e0) >= 0, and > 0 once two admitted models disagree on e0;
    # checked at the root against the enumeration route and at every leaf
    # against the enumerated models
    e0 = np.array([1.0, 0.0])
    positive = 0
    for k in KS:
        setup = _exact_setup(params=UncertaintyParams(k=k))
        up, down = (backward_expectation(StateFunctional(values=phi), setup)
                    for phi in (e0, -e0))
        histories = up.histories()[-len(up.values[-1]):]
        engine = [up.values[0][0] + down.values[0][0]]
        engine += (up.values[-1] + down.values[-1]).tolist()
        oracle = [_enumeration_route(e0, setup)(())
                  + _enumeration_route(-e0, setup)(())]
        oracle += [oracle_dr_direct(np.array([e0, -e0]), PRIOR_BELIEFS,
                                    PRIOR_VALUES, setup.gens, list(history),
                                    "dr", "dynamic", k=k).sum()
                   for history in histories]
        for engine_premium, oracle_premium in zip(engine, oracle,
                                                  strict=True):
            assert engine_premium >= -1e-12
            if oracle_premium > 1e-9:
                positive += 1
                assert engine_premium > 0.0
    assert positive > 0


def test_backward_equals_manual_stepwise_composition():
    setup = _exact_setup(horizon=3)
    tree = backward_expectation(StateFunctional(values=np.array([1.0, -0.5])),
                                setup)
    for t in range(setup.horizon):
        kids = tree.values[t + 1].reshape(-1, 2)
        for surface, child_vals, value in zip(tree.levels[t], kids,
                                              tree.values[t], strict=True):
            redo = one_step_expectation(child_vals, surface, setup.gens,
                                        gamma_at(setup.gens), P1)
            assert redo == value


def test_backward_tower_property():
    setup = _exact_setup(horizon=3)
    phi = StateFunctional(values=np.array([1.0, 0.0]))
    tree = backward_expectation(phi, setup)
    # feed the depth-2 values back as terminal data and re-run the recursion
    import copy
    clone = copy.deepcopy(tree)
    clone.values[3:] = [None] * (len(clone.values) - 3)
    fill_backward(clone, setup, terminal_depth=2)
    for a, b in zip(tree.values[:3], clone.values[:3], strict=True):
        assert (a == b).all()


def test_same_surface_nodes_share_values():
    # uninformative emissions make every same-depth surface identical, so
    # the node values must group by surface hash
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
                              emission=np.full((2, 2), 0.5)),
                    Generator(transition=np.eye(2),
                              emission=np.full((2, 2), 0.5))),
        prior_penalty=np.array([0.0, 0.3]))
    grid = SimplexGrid.build(2, 8)
    setup = TreeSetup(gens=gens, framework="dr", horizon=2,
                      initial_surface=initial_grid_surface(
                          np.abs(grid.points[:, 0] - 0.5), gens, grid,
                          "dynamic"),
                      params=P1)
    tree = backward_expectation(StateFunctional(values=np.array([1.0, 0.0])),
                                setup)
    for depth in range(3):
        groups = {}
        for surface, value in zip(tree.levels[depth], tree.values[depth],
                                  strict=True):
            key = np.round(surface.values, 12).tobytes()
            groups.setdefault(key, set()).add(value)
        for values in groups.values():
            assert len(values) == 1


# ---------------------------------------------------------------------------
# convex-expectation axioms (sampled)

def _random_surface(grid, rng):
    vals = rng.exponential(1.0, len(grid))
    mask = rng.uniform(size=len(grid)) < 0.2
    if mask.all():
        mask[0] = False
    vals[mask] = np.inf
    return initial_grid_surface(vals, ex1_grid_of(), grid, "dynamic")


def test_axioms_sampled():
    grid = SimplexGrid.build(2, 10)
    gens = ex1_grid_of(2)
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(30):
        surface = _random_surface(grid, rng)
        gammas = rng.exponential(0.5, len(gens))
        gammas -= gammas.min()
        phi = rng.uniform(-3, 3, 2)
        psi = phi - np.abs(rng.uniform(0, 1, 2))
        c = float(rng.uniform(-2, 2))
        for params in (P1, UncertaintyParams(k=0.7, k_exp=2.0)):
            e_phi, _ = dr_expectation(phi, surface, params)
            e_psi, _ = dr_expectation(psi, surface, params)
            assert e_phi >= e_psi - 1e-9
            e_shift, _ = dr_expectation(phi + c, surface, params)
            assert abs(e_shift - (e_phi + c)) < 1e-9
            e_mid, _ = dr_expectation((phi + psi) / 2, surface, params)
            assert e_mid <= (e_phi + e_psi) / 2 + 1e-9
            const, _ = dr_expectation(np.array([c, c]), surface, params)
            assert abs(const - c) < 1e-9
            o_phi = one_step_expectation(phi, surface, gens, gammas, params)
            o_psi = one_step_expectation(psi, surface, gens, gammas, params)
            assert o_phi >= o_psi - 1e-9


# ---------------------------------------------------------------------------
# martingale decomposition

def test_driver_zero_at_zero_and_constant_children():
    setup = _exact_setup(horizon=1)
    tree = backward_expectation(StateFunctional(values=np.array([3.0, 3.0])),
                                setup)
    bsde_decompose(tree, setup)
    assert np.allclose(tree.z[0][0], 0.0, atol=1e-12)
    assert bsde_driver(np.zeros(2), tree.levels[0][0], setup.gens,
                       gamma_at(setup.gens), P1) == 0.0


def test_driver_invariant_under_constant_shift():
    setup = _exact_setup(horizon=1)
    root_surface = setup.initial_surface
    rng = np.random.Generator(np.random.Philox(key=23))
    z = np.array([0.8, -0.8])
    base = bsde_driver(z, root_surface, setup.gens, gamma_at(setup.gens),
                       P1)
    for _ in range(20):
        c = float(rng.uniform(-5, 5))
        shifted = bsde_driver(z + c, root_surface, setup.gens,
                              gamma_at(setup.gens), P1)
        assert abs(shifted - base) < 1e-9


def test_reconstruction_identity_two_ways():
    setup = _exact_setup(horizon=2)
    tree = backward_expectation(StateFunctional(values=np.array([1.0, 0.0])),
                                setup)
    bsde_decompose(tree, setup)
    for t in range(setup.horizon):
        kids = tree.values[t + 1].reshape(-1, 2)
        for child_vals, value, z, driver in zip(
                kids, tree.values[t], tree.z[t], tree.drivers[t], strict=True):
            assert abs(value - (child_vals.mean() + driver)) < 1e-9
            # z is the canonical mean-zero representative
            assert abs(z.sum()) < 1e-12
            assert np.allclose(z, child_vals - child_vals.mean())


# ---------------------------------------------------------------------------
# backward expectation over grid surfaces

def _grid_setup(gens, horizon=4, framework="dr"):
    grid = SimplexGrid.build(2, 24)
    return TreeSetup(gens=gens, framework=framework, horizon=horizon,
                     initial_surface=initial_grid_surface(
                         np.linspace(0.0, 1.5, len(grid)), gens, grid,
                         "dynamic"),
                     params=P1)


def test_grid_tree_builds_each_image_once(monkeypatch):
    calls = []
    original = penalty._gen_images

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(penalty, "_gen_images", counted)
    gens = ex1_grid_of(2)
    tree = backward_expectation(StateFunctional(values=np.array([1.0, 0.0])),
                                _grid_setup(gens))
    assert len(tree.nodes) == 31
    assert len(calls) == len(gens) * gens.n_symbols


@pytest.mark.parametrize("framework", ["up", "dr"])
def test_grid_tree_ignores_an_infinite_gamma_candidate(framework):
    base = ex1_grid_of(2)
    extra = GeneratorGrid(candidates=base.candidates + (example1_generator(),),
                          prior_penalty=np.append(base.prior_penalty, inf))
    phi = StateFunctional(values=np.array([1.0, -0.5]))
    want = backward_expectation(phi, _grid_setup(base, framework=framework))
    got = backward_expectation(phi, _grid_setup(extra, framework=framework))
    assert (np.concatenate(got.values).tolist()
            == np.concatenate(want.values).tolist())


def test_grid_tree_is_translation_equivariant_in_phi():
    setup = _grid_setup(ex1_grid_of(2))
    phi = np.array([1.0, -0.5])
    root = backward_expectation(StateFunctional(values=phi), setup).values[0][0]
    for c in (-3.0, 0.25, 7.5):
        shifted = backward_expectation(StateFunctional(values=phi + c), setup)
        assert abs(shifted.values[0][0] - (root + c)) < 1e-12


# ---------------------------------------------------------------------------
# batched scans: a level's scans in one call are the one-surface scans

PARAMS = [P1, UncertaintyParams(k=0.7, k_exp=2.0),
          UncertaintyParams(k=1.5, k_exp=inf), UncertaintyParams(k=inf)]


def _reference_continuation(surface, gens, gammas):
    # the scope rule on one surface, as a (candidates x beliefs) matrix
    beliefs, values, gen_ids = penalty._rows(surface)
    if isinstance(surface, ExtendedPenaltySurface):
        return surface.grid.points, surface.values.T
    if gammas is None:
        before = np.full((len(gens), len(values)), np.inf)
        before[gen_ids, np.arange(len(values))] = values
        return beliefs, before
    with np.errstate(over="ignore"):
        return beliefs, values[None, :] + np.asarray(gammas, float)[:, None]


def _reference_scan(payoff, surface, gens, gammas, params, centered=False):
    # one surface, one candidate at a time: a matrix-vector product per
    # candidate, then the max over the (candidates x beliefs) scores
    beliefs, before = _reference_continuation(surface, gens, gammas)
    rows = []
    for g, gen in enumerate(gens.candidates):
        pred = (beliefs @ gen.transition.T) @ gen.emission
        if centered:
            pred = pred - 1.0 / gens.n_symbols
        rows.append(pred @ np.asarray(payoff, float)
                    - expectation._rho(before[g], params))
    scores = np.array(rows)
    best = float(scores.max()) if scores.size else -inf
    if best == -inf:
        raise InfeasibleSurface("every model is excluded")
    return best


def _reference_dr(phi, surface, params):
    beliefs, penalties, _ = penalty._rows(surface)
    scores = beliefs @ phi - expectation._rho(penalties, params)
    best = int(np.argmax(scores))
    if scores[best] == -inf:
        raise InfeasibleSurface("surface excludes every belief")
    return float(scores[best]), beliefs[best]


def _as_exact(surface, gens, scope):
    values = surface.values if scope == "dynamic" else surface.values.min(1)
    keep = np.isfinite(values)
    return initial_exact_surface(surface.grid.points[keep], values[keep],
                                 gens, scope)


def _bits(x):
    return np.float64(x).tobytes()


def _same_or_infeasible(batched, one_row):
    """``batched()`` returns one float per row, ``one_row`` lists per-row
    callables; either every value agrees bit for bit or both raise."""
    try:
        expected = [f() for f in one_row]
    except InfeasibleSurface:
        with pytest.raises(InfeasibleSurface):
            batched()
        return
    assert [_bits(v) for v in batched()] == [_bits(v) for v in expected]


@given(LEVEL_SHAPES, st.sampled_from(PARAMS), st.booleans(),
       st.sampled_from([1, 7, 64, penalty._CELL_BUDGET]), st.integers(0, 99))
@settings(max_examples=300, deadline=None)
def test_batched_scans_match_one_surface_scans(shape, params, exact, budget,
                                               seed):
    gens, surfaces, gammas = level_case(*shape)
    if exact:
        surfaces = [_as_exact(s, gens, shape[-1]) for s in surfaces]
    rng = np.random.Generator(np.random.Philox(seed))
    # a small set plants ties and signed zeros, normal draws round
    payoffs = np.where(rng.random((len(surfaces), gens.n_symbols)) < 0.5,
                       rng.choice([0.0, -0.0, 1.0, -1.5], size=(
                           len(surfaces), gens.n_symbols)),
                       rng.normal(size=(len(surfaces), gens.n_symbols)))
    phi = np.where(rng.random(gens.n_states) < 0.3, -0.0,
                   rng.normal(size=gens.n_states))
    with mock.patch.object(penalty, "_CELL_BUDGET", budget):
        for centered, one in ((False, one_step_expectation),
                              (True, bsde_driver)):
            _same_or_infeasible(
                lambda: expectation._sup_rows(surfaces, payoffs, gens, gammas,
                                              params, centered=centered),
                [lambda s=s, x=x: _reference_scan(x, s, gens, gammas, params,
                                                  centered)
                 for s, x in zip(surfaces, payoffs)])
            _same_or_infeasible(
                lambda: expectation._sup_rows(surfaces, payoffs, gens, gammas,
                                              params, centered=centered),
                [lambda s=s, x=x: one(x, s, gens, gammas, params)
                 for s, x in zip(surfaces, payoffs)])
        _same_or_infeasible(
            lambda: expectation._dr_rows(surfaces, phi, params),
            [lambda s=s: _reference_dr(phi, s, params)[0] for s in surfaces])
        _same_or_infeasible(
            lambda: expectation._dr_rows(surfaces, phi, params),
            [lambda s=s: dr_expectation(phi, s, params)[0] for s in surfaces])
    for surface in surfaces:
        try:
            ref_value, ref_belief = _reference_dr(phi, surface, params)
        except InfeasibleSurface:
            continue
        value, belief = dr_expectation(phi, surface, params)
        assert _bits(value) == _bits(ref_value)
        assert belief.tobytes() == ref_belief.tobytes()
