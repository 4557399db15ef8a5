import itertools
from math import comb, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusthmm import (CapExceeded, DegenerateObservation, Generator,
                       GeneratorGrid, SimplexGrid)
from robusthmm.models import GRID_CAP
from robusthmm.oracles import (_walk_models,
                               bernoulli_closed_forms, oracle_dr_direct,
                               oracle_penalty)
from conftest import example1_generator


# ---------------------------------------------------------------------------
# simplex grid

@pytest.mark.parametrize("n,m", [(2, 1), (2, 7), (3, 4), (4, 3)])
def test_grid_count_and_lex_order(n, m):
    grid = SimplexGrid.build(n, m)
    assert len(grid) == comb(m + n - 1, n - 1)
    rows = [tuple(c) for c in grid.coords]
    assert rows == sorted(rows)
    assert np.allclose(grid.points.sum(axis=1), 1.0)


@pytest.mark.parametrize("n,m", [
    (n, m) for n in (1, 2, 3, 4, 5) for m in (1, 2, 5, 12, 25)
    if (m + 1) ** n <= 10 ** 6])  # the product is scanned in Python
def test_grid_cells_are_the_filtered_product_in_lex_order(n, m):
    # every tuple of 0..m with sum m, in the order itertools.product lists
    # them, which is lexicographic; points are those tuples over m
    expected = [c for c in itertools.product(range(m + 1), repeat=n)
                if sum(c) == m]
    grid = SimplexGrid.build(n, m)
    assert grid.coords.dtype == np.int64
    assert grid.coords.tolist() == [list(c) for c in expected]
    assert grid.points.tolist() == [[x / m for x in c] for c in expected]
    assert np.array_equal(grid.rank(grid.coords), np.arange(len(grid)))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (2, 1000), (3, 80),
                                 (4, 20), (6, 17)])
def test_binomial_table_is_math_comb(n, m):
    grid = SimplexGrid.build(n, m)
    assert grid._binom.dtype == np.int64
    assert grid._binom.tolist() == [[comb(r + k, k) for k in range(n)]
                                    for r in range(m + 1)]


@pytest.mark.parametrize("n,m", [(6, 1000), (3, 1413), (2, GRID_CAP)])
def test_grid_over_the_cap_is_refused(n, m):
    with pytest.raises(CapExceeded, match=(
            f"n_states {n} and resolution {m} has {comb(m + n - 1, n - 1)} "
            f"cells, over the cap of {GRID_CAP}")):
        SimplexGrid.build(n, m)
    assert len(SimplexGrid.build(2, GRID_CAP - 1)) == GRID_CAP


@pytest.mark.parametrize("n,m", [(2, 3), (2, 6), (3, 4)])
def test_rounding_matches_exact_scan(n, m):
    # query every belief q/(2m): distances to cells x/m compare exactly as
    # integers |2x - q|^2, so ties are decided without floating point
    grid = SimplexGrid.build(n, m)
    fine = SimplexGrid.build(n, 2 * m)
    for q in fine.coords:
        best = min(range(len(grid)),
                   key=lambda i: (int(np.sum((2 * grid.coords[i] - q) ** 2)),
                                  i))
        assert grid.round_to_index(q / (2 * m)) == best


@given(st.integers(2, 4), st.integers(1, 9),
       st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_rounding_is_a_nearest_cell(n, m, raw):
    grid = SimplexGrid.build(n, m)
    p = np.array(raw[:n]) + 1e-6
    p = p / p.sum()
    chosen = grid.round_to_index(p)
    dists = np.sum((grid.points - p) ** 2, axis=1)
    assert dists[chosen] <= dists.min() + 1e-12


def test_grid_points_round_to_themselves():
    grid = SimplexGrid.build(3, 9)
    for i, p in enumerate(grid.points):
        assert grid.round_to_index(p) == i
        assert grid.rank(grid.exact_coords(p)[None]).tolist() == [i]


@pytest.mark.parametrize("belief", [[0.2, 0.3], [-0.5, 1.5], [0.7, 0.7],
                                    [np.nan, 1.0], [np.inf, 0.0],
                                    [1.0 + 2e-9, 0.0]])
def test_rounding_rejects_beliefs_off_the_simplex(belief):
    grid = SimplexGrid.build(2, 10)
    with pytest.raises(ValueError):
        grid.round_to_index(np.array(belief))


@pytest.mark.parametrize("belief", [[-0.1, 1.1], [0.25, 0.75], [0.5],
                                    [0.2, 0.3]])
def test_exact_index_rejects_off_grid_beliefs(belief):
    with pytest.raises(ValueError):
        SimplexGrid.build(2, 10).exact_coords(np.array(belief))


def test_rounding_accepts_float_noise_in_the_sum():
    grid = SimplexGrid.build(2, 10)
    assert grid.round_to_index(np.array([0.3, 0.7 + 5e-10])) == 3


def test_grids_compare_and_hash_by_shape_and_resolution():
    a, b = SimplexGrid.build(2, 10), SimplexGrid.build(2, 10)
    assert a == b and hash(a) == hash(b)
    assert a != SimplexGrid.build(2, 11)
    assert a != SimplexGrid.build(3, 10)
    assert {a: 1}[b] == 1


def _reference_round(grid, belief, index):
    # one point at a time: floor, then the deficit goes to the largest
    # remainders, the highest index first among equal ones; cells are found
    # by a dict over the lex-ordered coordinates
    scaled = belief * grid.resolution
    base = np.floor(scaled).astype(np.int64)
    deficit = grid.resolution - int(base.sum())
    order = np.lexsort((-np.arange(grid.n_states), -(scaled - base)))
    base[order[:deficit]] += 1
    return index[tuple(map(int, base))]


@pytest.mark.parametrize("n,m", [(2, 1000), (3, 80), (4, 20), (5, 7)])
def test_row_rounding_equals_one_row_rounding(n, m):
    grid = SimplexGrid.build(n, m)
    index = {tuple(map(int, c)): i for i, c in enumerate(grid.coords)}
    assert np.array_equal(grid.rank(grid.coords), np.arange(len(grid)))
    rng = np.random.Generator(np.random.Philox(n * 1000 + m))
    random = rng.dirichlet(np.full(n, 0.5), size=300)
    ties = SimplexGrid.build(n, 2 * m).coords / (2 * m)
    if len(ties) > 2000:
        ties = ties[rng.choice(len(ties), 2000, replace=False)]
    for beliefs in (random, ties, grid.points):
        rows = grid.round_rows(beliefs)
        assert rows.dtype == np.int64
        assert rows.tolist() == [grid.round_to_index(b) for b in beliefs]
        assert rows.tolist() == [_reference_round(grid, b, index)
                                 for b in beliefs]
    assert np.array_equal(grid.round_rows(grid.points), np.arange(len(grid)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rounding_breaks_many_way_ties_by_the_highest_coordinate(n):
    # points of the 3m and 4m grids rounded on the m grid: their remainders
    # are multiples of 1/3 or 1/4, so many rows tie three or more ways
    # (8,122 of the 22,024 rows over N = 3-5), and the deficit goes to the
    # highest coordinates among equal remainders
    rows = tied = 0
    for m in (1, 2, 3, 5):
        grid = SimplexGrid.build(n, m)
        index = {tuple(map(int, c)): i for i, c in enumerate(grid.coords)}
        for fine in (3 * m, 4 * m):
            beliefs = SimplexGrid.build(n, fine).points
            frac = beliefs * m - np.floor(beliefs * m)
            tied += sum(int(np.unique(r, return_counts=True)[1].max() >= 3)
                        for r in frac)
            rows += len(beliefs)
            assert grid.round_rows(beliefs).tolist() == [
                _reference_round(grid, b, index) for b in beliefs]
    assert (rows, tied) == {3: (611, 83), 4: (3566, 302),
                            5: (17847, 7737)}[n]


# ---------------------------------------------------------------------------
# generator grid and penalties

def test_generator_grid_normalizes_and_rejects_duplicates():
    gens = GeneratorGrid(candidates=(example1_generator(),
                                     example1_generator(0.6, 0.4)),
                         prior_penalty=np.array([2.0, 5.0]))
    assert gens.prior_penalty.tolist() == [0.0, 3.0]
    with pytest.raises(ValueError):
        GeneratorGrid(candidates=(example1_generator(), example1_generator()),
                      prior_penalty=np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# likelihoods: the data-driven penalty of one model from a zero prior is its
# negated observation log-likelihood, accumulated by the enumeration oracle

def _uniform_gens(n=2, d=2):
    return GeneratorGrid(candidates=(Generator(transition=np.eye(n),
                                               emission=np.full((n, d), 1 / d)),),
                         prior_penalty=np.array([0.0]))


def _log_likelihood(belief, obs, gens):
    (_, penalty, _), = _walk_models([belief], [0.0], gens, obs, "static",
                                    None)["dr"][-1]
    return -penalty


def test_obs_likelihood_uniform_emissions():
    grid = SimplexGrid.build(2, 2)
    value = _log_likelihood(grid.points[1], [0, 1, 1], _uniform_gens())
    assert abs(value - 3 * log(0.5)) < 1e-12


def test_obs_likelihood_example_values(ex1_gens):
    grid = SimplexGrid.build(2, 2)
    half = grid.points[1]
    assert abs(_log_likelihood(half, [0], ex1_gens) - log(0.5)) < 1e-12
    point = grid.points[2]  # (1, 0)
    assert abs(_log_likelihood(point, [0, 0], ex1_gens)
               - 2 * log(0.75)) < 1e-12


# ---------------------------------------------------------------------------
# divergence: the data-driven penalty of each model within a finite class

def _divergence(grid, values, obs, gens):
    """Class-normalized data-driven penalty per (candidate, terminal belief)
    of the models starting at the grid points with finite prior value."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    return oracle_penalty(grid.points[finite], values[finite], gens, obs,
                          "dr", "static")


def test_divergence_singleton_is_zero(ex1_gens):
    grid = SimplexGrid.build(2, 2)
    table = np.full(len(grid), np.inf)
    table[1] = 0.0
    assert list(_divergence(grid, table, [0, 1], ex1_gens).values()) == [0.0]


def test_divergence_reduces_to_prior_when_likelihoods_cancel():
    gens = _uniform_gens()
    grid = SimplexGrid.build(2, 4)
    table = np.full(len(grid), np.inf)
    table[1] = 0.0
    table[3] = 0.7
    divs = sorted(_divergence(grid, table, [0, 1, 0], gens).values())
    assert abs(divs[0] - 0.0) < 1e-12
    assert abs(divs[1] - 0.7) < 1e-12


def test_divergence_matches_bernoulli_posterior_formula(ex1_gens):
    # class of initial beliefs with a known generator: the divergence equals
    # the closed-form posterior penalty at the mapped terminal belief
    grid = SimplexGrid.build(2, 10)
    obs = [0, 0, 1]
    interior = (grid.points[:, 0] > 0) & (grid.points[:, 0] < 1)
    kappa0 = np.full(len(grid), np.inf)
    kappa0[interior] = np.abs(np.log(grid.points[interior, 0]
                                     / grid.points[interior, 1]))
    _, data_driven = bernoulli_closed_forms(
        0.75, 0.25, obs, lambda ells: np.abs(ells))
    table = _divergence(grid, kappa0, obs, ex1_gens)
    assert len(table) == interior.sum()
    terminal = np.array([np.frombuffer(b) for _, b in table])
    expected = data_driven(np.log(terminal[:, 0] / terminal[:, 1]))
    got = np.array(list(table.values()))
    assert np.max(np.abs(got - expected)) < 1e-9


def test_divergence_only_depends_on_observed_prefix(ex1_gens):
    grid = SimplexGrid.build(2, 4)
    table = np.array([np.inf, 0.0, 0.0, 0.0, np.inf])
    obs = [0, 1, 0, 0]
    for t in range(1, len(obs) + 1):
        first = _divergence(grid, table, obs[:t], ex1_gens)
        again = _divergence(grid, table, list(obs[:t]), ex1_gens)
        assert first == again
        assert min(first.values()) == 0.0


def test_divergence_invariant_to_constant_prior_shift(ex1_gens):
    grid = SimplexGrid.build(2, 4)
    base = np.array([np.inf, 0.3, 0.0, 1.1, np.inf])
    reference = _divergence(grid, base, [0, 1], ex1_gens)
    shifted = _divergence(grid, base + 2.5, [0, 1], ex1_gens)
    assert set(shifted) == set(reference)
    assert all(abs(shifted[k] - reference[k]) < 1e-12 for k in reference)


def test_dynamic_model_points_and_degenerate_propagation():
    # from the point mass (1, 0), the noiseless candidate cannot emit symbol
    # 1: generator paths that use it at step 2 are dropped, and when every
    # model excludes the data the oracle reports it
    noiseless = Generator(transition=np.eye(2),
                          emission=np.array([[1.0, 0.0], [0.0, 1.0]]))
    gens = GeneratorGrid(candidates=(example1_generator(), noiseless),
                         prior_penalty=np.array([0.0, 0.0]))
    p0 = np.array([[1.0, 0.0]])
    survivors = _walk_models(p0, [0.0], gens, [0, 1], "dynamic",
                             None)["dr"][-1]
    assert len(survivors) == 2  # paths (0, 0) and (1, 0) of the four
    only_noiseless = GeneratorGrid(candidates=(noiseless,),
                                   prior_penalty=np.array([0.0]))
    with pytest.raises(DegenerateObservation):
        oracle_dr_direct([[1.0, 0.0]], p0, [0.0], only_noiseless, [0, 1], "dr",
                         "dynamic", k=1.0)
