import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robusthmm import penalty
from robusthmm import (CapExceeded, ExactSurface, Generator, GeneratorGrid,
                       InfeasibleSurface, SimplexGrid, TreeSetup,
                       UncertaintyParams, build_observation_tree, evolve,
                       exact_step, forward_image_step,
                       initial_exact_surface, initial_grid_surface,
                       render_surface_csv)
from robusthmm.oracles import oracle_penalty
from conftest import LEVEL_SHAPES, example1_generator, level_case

FRAMEWORK_LABELS = [("static", "up"), ("dynamic", "up"),
                    ("static", "dr"), ("dynamic", "dr")]


def uninformative_gens():
    return GeneratorGrid(candidates=(Generator(transition=np.eye(2),
                                               emission=np.full((2, 2), 0.5)),),
                         prior_penalty=np.array([0.0]))


def mixed_gens(count=3):
    cands = (
        Generator(transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
                  emission=np.array([[0.7, 0.3], [0.3, 0.7]])),
        Generator(transition=np.array([[0.55, 0.45], [0.45, 0.55]]),
                  emission=np.array([[0.6, 0.4], [0.4, 0.6]])),
        Generator(transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
                  emission=np.array([[0.5, 0.5], [0.5, 0.5]])),
    )[:count]
    return GeneratorGrid(candidates=cands,
                         prior_penalty=np.array([0.0, 0.35, 0.8][:count]))


# ---------------------------------------------------------------------------
# projection

def test_project_constant_normalizes_to_zero():
    grid = SimplexGrid.build(2, 6)
    surface = initial_grid_surface(np.full(len(grid), 5.0),
                                   uninformative_gens(), grid, "dynamic")
    assert np.array_equal(surface.values, np.zeros(len(grid)))


def test_project_abs_log_odds_is_symmetric_v():
    grid = SimplexGrid.build(2, 6)
    with np.errstate(divide="ignore"):
        surface = initial_grid_surface(
            np.abs(np.log(grid.points[:, 0] / grid.points[:, 1])),
            uninformative_gens(), grid, "dynamic")
    vals = surface.values
    assert vals[3] == 0.0  # central point (0.5, 0.5)
    assert np.isinf(vals[0]) and np.isinf(vals[-1])
    assert np.allclose(vals[1:3], vals[5:3:-1], atol=1e-12)


def test_project_point_mass():
    grid = SimplexGrid.build(2, 5)
    values = np.full(len(grid), np.inf)
    values[2] = 7.0
    surface = initial_grid_surface(values, uninformative_gens(), grid,
                                   "dynamic")
    assert surface.values[2] == 0.0
    assert np.isinf(np.delete(surface.values, 2)).all()


# ---------------------------------------------------------------------------
# single grid steps

def test_uninformative_step_is_identity_with_zero_normalizer():
    grid = SimplexGrid.build(2, 8)
    src = initial_grid_surface(np.abs(grid.points[:, 0] - 0.5),
                               uninformative_gens(), grid, "dynamic")
    out, report = forward_image_step(src, uninformative_gens(),
                                     np.zeros(1), 0, "up")
    assert np.array_equal(out.values, src.values)
    assert report.m_t == 0.0


def test_up_and_dr_coincide_under_uninformative_emissions():
    grid = SimplexGrid.build(2, 8)
    src = initial_grid_surface(np.abs(grid.points[:, 0] - 0.5),
                               uninformative_gens(), grid, "dynamic")
    out_up, _ = forward_image_step(src, uninformative_gens(), np.zeros(1),
                                   0, "up")
    out_dr, rep = forward_image_step(src, uninformative_gens(), np.zeros(1),
                                     0, "dr")
    assert np.allclose(out_up.values, out_dr.values, atol=1e-15)
    assert abs(rep.m_t - np.log(2)) < 1e-12  # the absorbed constant


def test_example1_static_step_is_log_odds_shift():
    # one symbol-0 observation translates the penalty by log 3 in log-odds
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    beliefs = np.array([[q, 1 - q] for q in (0.2, 0.35, 0.5, 0.65, 0.8)])
    ells = np.log(beliefs[:, 0] / beliefs[:, 1])
    src = initial_exact_surface(beliefs, np.abs(ells), gens, "static")
    out, _ = exact_step(src, gens, None, 0, "up")
    new_ells = np.log(out.beliefs[:, 0] / out.beliefs[:, 1])
    expected = np.abs(new_ells - np.log(3))
    assert np.max(np.abs(out.values - expected)) < 1e-9


# ---------------------------------------------------------------------------
# evolve

def test_evolve_empty_observations_returns_projected_prior():
    grid = SimplexGrid.build(2, 5)
    gens = mixed_gens()
    surfaces, reports = evolve(
        initial_grid_surface(np.zeros(len(grid)), gens, grid, "dynamic"),
        gens, [], "dr")
    assert len(surfaces) == 1 and reports == []
    assert np.array_equal(surfaces[0].values, np.zeros(len(grid)))


def test_static_single_generator_equals_dynamic_with_zero_gamma():
    grid = SimplexGrid.build(2, 7)
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    table = np.abs(grid.points[:, 0] - 0.4)
    obs = [0, 1, 0]
    stat, _ = evolve(initial_grid_surface(table, gens, grid, "static"), gens,
                     obs, "dr")
    dyn, _ = evolve(initial_grid_surface(table, gens, grid, "dynamic"), gens,
                    obs, "dr")
    for s, d in zip(stat, dyn):
        assert np.array_equal(s.values.min(axis=1), d.values)


@pytest.mark.parametrize("scope,framework", FRAMEWORK_LABELS)
@pytest.mark.parametrize("m", [2, 5, 10])
@pytest.mark.parametrize("n_gens", [1, 3])
def test_grid_evolution_matches_rounded_path_enumeration(scope, framework, m,
                                                         n_gens):
    # direct definition: walk every (initial cell, generator path) with
    # re-rounding after each step, accumulate, group by final cell, min
    grid = SimplexGrid.build(2, m)
    gens = mixed_gens(n_gens)
    obs = [0, 1, 0]
    table = np.linspace(0.0, 1.5, len(grid))
    surfaces, _ = evolve(initial_grid_surface(table, gens, grid, scope), gens,
                         obs, framework)
    oracle = oracle_penalty(grid.points, table, gens, obs, framework, scope,
                            grid=grid)
    final = surfaces[-1]
    if scope == "dynamic":
        engine = {i: v for i, v in enumerate(final.values) if np.isfinite(v)}
    else:
        engine = {(g, i): final.values[i, g]
                  for i in range(len(grid)) for g in range(n_gens)
                  if np.isfinite(final.values[i, g])}
    assert set(engine) == set(oracle)
    worst = max(abs(engine[k] - oracle[k]) for k in engine)
    assert worst < 1e-9


def test_surfaces_stay_normalized_along_evolution():
    grid = SimplexGrid.build(2, 10)
    gens = mixed_gens()
    surfaces, _ = evolve(
        initial_grid_surface(np.linspace(0, 2, len(grid)), gens, grid,
                             "dynamic"), gens, [0, 0, 1, 1, 0], "dr")
    for s in surfaces:
        finite = s.values[np.isfinite(s.values)]
        assert finite.min() == 0.0
        assert np.all(finite >= 0)


def _surface_of(kind, values):
    """A surface of ``kind`` holding ``values`` (four entries) as given."""
    values = np.asarray(values, dtype=np.float64)
    if kind == "grid":
        return penalty.PenaltySurface(SimplexGrid.build(2, 3), values, 0)
    if kind == "extended":
        return penalty.ExtendedPenaltySurface(
            SimplexGrid.build(2, 1), mixed_gens(2), values.reshape(2, 2), 0)
    beliefs = SimplexGrid.build(2, 3).points
    return penalty.ExactSurface(beliefs, values, None, 0)


@pytest.mark.parametrize("kind", ["grid", "extended", "exact"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf, -1e-300])
def test_surfaces_reject_values_below_zero_or_nan(kind, bad):
    assert _surface_of(kind, [0.0, np.inf, 1.0, -0.0]).values.ravel()[1] == np.inf
    with pytest.raises(ValueError, match=">= 0 or \\+inf"):
        _surface_of(kind, [0.0, bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="minimum zero"):
        _surface_of(kind, [0.5, np.inf, 1.0, 2.0])


def test_normalizers_reconstruct_raw_floor():
    # the per-step normalizers sum to the smallest raw accumulated penalty
    gens = mixed_gens()
    beliefs = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    vals = np.array([0.3, 0.0, 0.6])
    obs = [0, 1, 0]
    _, reports = evolve(initial_exact_surface(beliefs, vals, gens, "dynamic"),
                        gens, obs, "dr")
    raw_floor = np.inf
    import itertools
    from robusthmm import filter_step
    for i, b0 in enumerate(beliefs):
        for path in itertools.product(range(3), repeat=3):
            pen, p = vals[i], b0
            for t, y in enumerate(obs):
                gen = gens.candidates[path[t]]
                pen += gens.prior_penalty[path[t]]
                mass = (gen.transition @ p) @ gen.emission[:, y]
                pen -= np.log(mass)
                p = filter_step(p, gen, y)
            raw_floor = min(raw_floor, pen)
    assert abs(sum(r.m_t for r in reports) - raw_floor) < 1e-12


# ---------------------------------------------------------------------------
# image tables: each grid step gathers from a table built once per
# (grid, symbol) and kept on the GeneratorGrid

def _lexsort_reduce(dest, vals, srcs, gids, n_keys):
    # the reference min-reduction per key: order by (key, value, source,
    # candidate) and keep each key's first entry
    out = np.full(n_keys, np.inf)
    out_src = np.full(n_keys, -1, dtype=np.int64)
    out_gen = np.full(n_keys, -1, dtype=np.int64)
    if len(dest):
        order = np.lexsort((gids, srcs, vals, dest))
        dest, vals = dest[order], vals[order]
        srcs, gids = srcs[order], gids[order]
        first = np.ones(len(dest), dtype=bool)
        first[1:] = dest[1:] != dest[:-1]
        out[dest[first]] = vals[first]
        out_src[dest[first]] = srcs[first]
        out_gen[dest[first]] = gids[first]
    return out, out_src, out_gen


def _i64(*xs):
    return np.array(xs, dtype=np.int64)


def _reduce_case(name):
    # (dest, vals, srcs, gids, n_keys, n_gens) for the scatter-min reduction
    if name == "signed-zero":
        # keys 0-3 each get 0.0 and -0.0, the lower (source, candidate) pair
        # holding either sign, fed in either order; key 4 gets two -0.0
        return (_i64(0, 0, 1, 1, 2, 2, 3, 3, 4, 4),
                np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0,
                          -0.0, -0.0]),
                _i64(1, 2, 1, 2, 2, 1, 2, 1, 3, 0),
                _i64(0, 0, 0, 0, 0, 0, 0, 0, 1, 1), 5, 2)
    if name == "equal-values":
        # one value at the same (source, candidate) pairs of three keys, fed
        # in a shuffled order; source 0 holds only candidates 2 and 3, so
        # its lower source wins over source 1's lower candidate
        rng = np.random.Generator(np.random.Philox(7))
        srcs, gids = (a.ravel() for a in np.meshgrid(np.arange(6),
                                                     np.arange(4)))
        keep = (srcs > 0) | (gids >= 2)
        srcs, gids = srcs[keep], gids[keep]
        dest = np.repeat(np.arange(3), len(srcs))
        order = rng.permutation(len(dest))
        return (dest[order], np.full(len(dest), 0.25), np.tile(srcs, 3)[order],
                np.tile(gids, 3)[order], 3, 4)
    if name == "empty":
        return _i64(), np.array([]), _i64(), _i64(), 4, 3
    if name == "untouched-keys":
        return (_i64(5, 1, 5), np.array([2.0, 1.5, 0.5]), _i64(0, 3, 2),
                _i64(1, 0, 0), 9, 2)
    # distinct (key, source, candidate) triples on 50 of 60 keys, with few
    # distinct values and both signs of zero
    rng = np.random.Generator(np.random.Philox(11))
    size, n_pairs, n_gens = 4000, 900, 3
    code = rng.choice(50 * n_pairs, size=size, replace=False)
    pairs = code % n_pairs
    return (code // n_pairs, rng.choice([-0.0, 0.0, 0.5, 1.0], size),
            pairs // n_gens, pairs % n_gens, 60, n_gens)


@pytest.mark.parametrize("name", ["signed-zero", "equal-values", "empty",
                                  "untouched-keys", "random-ties"])
def test_scatter_min_reduction_is_the_lexsort_reduction(name):
    # the winner of each key is its least value, ties to the lowest (source,
    # candidate) pair, and the key keeps that winner's own bits
    dest, vals, srcs, gids, n_keys, n_gens = _reduce_case(name)
    got = penalty._reduce_candidates(dest, vals, srcs, gids, n_keys, n_gens)
    ref = _lexsort_reduce(dest, vals, srcs, gids, n_keys)
    assert got[0].tobytes() == ref[0].tobytes()
    for g, r in zip(got[1:], ref[1:]):
        assert g.dtype == np.int64 and g.tolist() == r.tolist()
    if name == "signed-zero":
        assert np.signbit(got[0]).tolist() == [False, True, True, False, True]
    if name == "equal-values":
        assert (got[1].tolist(), got[2].tolist()) == ([0, 0, 0], [2, 2, 2])
    if name == "untouched-keys":
        assert got[1].tolist() == [-1, 3, -1, -1, -1, 2, -1, -1, -1]


def _reference_normalize(values):
    # one surface: less the least of its compacted finite entries
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise InfeasibleSurface("observation impossible under every model")
    m_t = float(finite.min())
    return values - m_t, m_t


def _reference_grid_step(src, gens, gammas, y, framework):
    # the step body without a table: images recomputed and rounded one point
    # at a time on every call, reduced by the lexsort reference
    grid = src.grid
    static = gammas is None
    dest_l, val_l, src_l, gid_l = [], [], [], []
    for g, gen in enumerate(gens.candidates):
        before = src.values[:, g] if static else src.values
        posts, mass, alive = penalty._gen_images(grid, gen, y)
        if static:
            cand = before
        else:
            with np.errstate(over="ignore"):
                cand = before + gammas[g]
        idx = np.nonzero(alive & np.isfinite(cand))[0]
        cand = cand[idx]
        if framework == "dr":
            cand = cand - np.log(mass[idx])
        dest = np.array([grid.round_to_index(posts[i]) for i in idx],
                        dtype=np.int64)
        dest_l.append(dest * len(gens) + g if static else dest)
        val_l.append(cand)
        src_l.append(idx)
        gid_l.append(np.full(idx.size, g, dtype=np.int64))
    out, out_src, out_gen = (
        a.reshape(src.values.shape) for a in _lexsort_reduce(
            np.concatenate(dest_l), np.concatenate(val_l),
            np.concatenate(src_l), np.concatenate(gid_l), src.values.size))
    values, m_t = _reference_normalize(out)
    return values, m_t, out_src, out_gen


def _random_gens(rng, n, d):
    # three random candidates plus an identity chain that cannot emit symbol
    # 0 from state 0, so cells die; the last candidate is excluded (gamma inf)
    cands = [Generator(transition=rng.dirichlet(np.ones(n), size=n).T,
                       emission=rng.dirichlet(np.ones(d), size=n))
             for _ in range(3)]
    emission = rng.dirichlet(np.ones(d), size=n)
    emission[0] = np.eye(d)[d - 1]
    cands.append(Generator(transition=np.eye(n), emission=emission))
    return GeneratorGrid(candidates=tuple(cands),
                         prior_penalty=np.array([0.0, 0.3, 1.1, 0.2]))


@pytest.mark.parametrize("scope,framework", FRAMEWORK_LABELS)
@pytest.mark.parametrize("seed,n,m", [(1, 2, 25), (2, 2, 9), (3, 3, 12),
                                      (4, 3, 7)])
def test_table_step_is_bit_identical_to_pointwise_step(scope, framework, seed,
                                                       n, m):
    rng = np.random.Generator(np.random.Philox(seed))
    grid = SimplexGrid.build(n, m)
    gens = _random_gens(rng, n, 2)
    initial = rng.exponential(size=len(grid))
    initial[rng.random(len(grid)) < 0.2] = np.inf
    initial[0] = 0.0
    surface = initial_grid_surface(initial, gens, grid, scope)
    for t, y in enumerate([0, 1, 0, 0, 1], start=1):
        gammas = None
        if scope == "dynamic":
            gammas = np.array([0.0, 0.4, 0.25, 0.1])
            gammas[t % 4] = np.inf
        values, m_t, out_src, out_gen = _reference_grid_step(
            surface, gens, gammas, y, framework)
        surface, report = forward_image_step(surface, gens, gammas, y,
                                             framework)
        assert surface.values.tobytes() == values.tobytes()
        assert report.m_t == m_t
        assert np.array_equal(report.argmin_src, out_src)
        assert np.array_equal(report.argmin_gen, out_gen)
        assert report.infeasible_cells == int(np.isinf(values).sum())


@given(LEVEL_SHAPES, st.sampled_from(["up", "dr"]),
       st.sampled_from([1, 5, 40, penalty._CELL_BUDGET]))
@settings(max_examples=300, deadline=None)
def test_level_kernel_matches_one_surface_steps(shape, framework, budget):
    # every row of a level, stepped together in calls of at most ``budget``
    # cells, is bit for bit the one-surface step and the lexsort reference:
    # values (signed zeros included), m_t, provenance and the error
    gens, surfaces, gammas = level_case(*shape)
    children, feasible = [], True
    for y in range(gens.n_symbols):
        try:
            expected = [_reference_grid_step(s, gens, gammas, y, framework)
                        for s in surfaces]
        except InfeasibleSurface:
            with mock.patch.object(penalty, "_CELL_BUDGET", budget), \
                    pytest.raises(InfeasibleSurface,
                                  match="observation at step 1 impossible"):
                penalty._grid_level(surfaces, gens, gammas, y, framework)
            feasible = False
            continue
        chunks = []
        candidate_penalties = penalty._candidate_penalties

        def spy(chunk, *args):
            chunks.append(len(chunk))
            return candidate_penalties(chunk, *args)

        with mock.patch.object(penalty, "_CELL_BUDGET", budget), \
                mock.patch.object(penalty, "_candidate_penalties", spy):
            pairs = penalty._grid_level(surfaces, gens, gammas, y, framework)
        cells = len(gens) * len(surfaces[0].grid)
        assert all(n == 1 or n * cells <= budget for n in chunks)
        assert sum(chunks) == len(pairs) == len(surfaces)
        ones = []
        for surface, (child, report), ref in zip(surfaces, pairs, expected):
            one, one_report = forward_image_step(surface, gens, gammas, y,
                                                 framework)
            ref_values, ref_m, ref_src, ref_gen = ref
            assert (child.values.tobytes() == one.values.tobytes()
                    == ref_values.tobytes())
            assert child.time == one.time == 1
            for rep in (report, one_report):
                assert (np.float64(rep.m_t).tobytes()
                        == np.float64(ref_m).tobytes())
                assert np.array_equal(rep.argmin_src, ref_src)
                assert np.array_equal(rep.argmin_gen, ref_gen)
                assert rep.infeasible_cells == int(np.isinf(ref_values).sum())
                assert rep.time == 1
            ones.append(one)
        children.append(ones)
    with mock.patch.object(penalty, "_CELL_BUDGET", budget):
        if not feasible:
            with pytest.raises(InfeasibleSurface):
                penalty.step_level(surfaces, gens, gammas, framework)
            return
        stepped = penalty.step_level(surfaces, gens, gammas, framework)
    assert [[child.values.tobytes() for child in kids] for kids in stepped] \
        == [[one.values.tobytes() for one in ones] for ones in zip(*children)]
    assert all(child.time == 1 for kids in stepped for child in kids)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("scope", ["static", "dynamic"])
def test_evolve_builds_each_image_once(monkeypatch, scope):
    images = _count_calls(monkeypatch, penalty, "_gen_images")
    rounds = _count_calls(monkeypatch, SimplexGrid, "round_to_index")
    grid = SimplexGrid.build(2, 40)
    gens = mixed_gens()
    surfaces, _ = evolve(
        initial_grid_surface(np.zeros(len(grid)), gens, grid, scope), gens,
        [0, 1, 1, 0, 0, 1, 0, 1], "dr")
    assert len(surfaces) == 9
    assert len(images) == len(gens) * gens.n_symbols
    assert rounds == []


def test_image_table_lives_with_its_generator_grid():
    grid = SimplexGrid.build(2, 10)
    gens = mixed_gens()
    evolve(initial_grid_surface(np.zeros(len(grid)), gens, grid, "dynamic"),
           gens, [0, 1], "dr")
    # an equal grid built elsewhere finds the same table
    assert set(gens.image_tables) == {(SimplexGrid.build(2, 10), 0),
                                      (grid, 1)}
    ref = weakref.ref(gens.image_tables[(grid, 0)])
    del gens
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n,m", [(2, 997), (3, 80), (4, 20)])
def test_image_table_is_per_candidate_rounding(n, m):
    # each candidate's images rounded on their own, by the candidate's
    # round_rows call over its live rows; candidate 1 is the identity chain
    # and cannot emit symbol 0 from state 0, candidate 2 never emits it
    rng = np.random.Generator(np.random.Philox(n * 1000 + m))
    d = 3
    partial = rng.dirichlet(np.ones(d), size=n)
    partial[0] = np.eye(d)[d - 1]
    cands = tuple(Generator(transition=t, emission=e) for t, e in (
        (rng.dirichlet(np.ones(n), size=n).T,
         rng.dirichlet(np.ones(d), size=n)),
        (np.eye(n), partial),
        (rng.dirichlet(np.ones(n), size=n).T, np.tile(np.eye(d)[1], (n, 1)))))
    gens = GeneratorGrid(candidates=cands, prior_penalty=np.zeros(3))
    grid = SimplexGrid.build(n, m)
    for y in range(d):
        table = penalty._image_table(gens, grid, y)
        for g, gen in enumerate(cands):
            posts, mass, alive = penalty._gen_images(grid, gen, y)
            dest = np.full(len(grid), -1)
            dest[alive] = grid.round_rows(posts[alive])
            logmass = np.full(len(grid), -np.inf)
            logmass[alive] = np.log(mass[alive])
            assert table.alive[g].tolist() == alive.tolist()
            assert table.dest[g].tolist() == dest.tolist()
            assert table.logmass[g].tobytes() == logmass.tobytes()
    dead = ~penalty._image_table(gens, grid, 0).alive
    assert 0 < dead[1].sum() < len(grid) and dead[2].all()


def test_infinite_gamma_candidate_changes_no_dynamic_surface():
    grid = SimplexGrid.build(2, 30)
    base = mixed_gens()
    extra = GeneratorGrid(
        candidates=base.candidates + (example1_generator(),),
        prior_penalty=np.append(base.prior_penalty, np.inf))
    obs = [0, 1, 1, 0, 1]
    initial = np.linspace(0, 2, len(grid))
    for framework in ("up", "dr"):
        want, want_reports = evolve(
            initial_grid_surface(initial, base, grid, "dynamic"), base, obs,
            framework)
        got, got_reports = evolve(
            initial_grid_surface(initial, extra, grid, "dynamic"), extra, obs,
            framework)
        for a, b in zip(want, got):
            assert a.values.tobytes() == b.values.tobytes()
        for a, b in zip(want_reports, got_reports):
            assert (a.time, a.m_t, a.infeasible_cells) == \
                (b.time, b.m_t, b.infeasible_cells)
            assert a.argmin_src.tobytes() == b.argmin_src.tobytes()
            assert a.argmin_gen.tobytes() == b.argmin_gen.tobytes()


# ---------------------------------------------------------------------------
# exact-tree mode

def test_identity_dynamics_keep_initial_support():
    gens = uninformative_gens()
    beliefs = np.array([[0.25, 0.75], [0.5, 0.5]])
    values = np.array([0.0, 0.1])
    surfaces, _ = evolve(initial_exact_surface(beliefs, values, gens,
                                               "dynamic"),
                         gens, [0, 1, 0, 1], "up")
    for s in surfaces:
        assert np.array_equal(s.beliefs, beliefs)
        assert np.allclose(s.values, values, atol=1e-15)


def test_example1_reachable_beliefs_sit_on_log_odds_lattice():
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    prior = initial_exact_surface(np.array([[0.5, 0.5]]), np.zeros(1), gens,
                                  "dynamic")
    for obs in ([0], [0, 1, 0], [1, 1, 0, 0, 1]):
        surfaces, _ = evolve(prior, gens, obs, "up")
        n0 = sum(1 for y in obs if y == 0)
        ell = np.log(surfaces[-1].beliefs[0, 0] / surfaces[-1].beliefs[0, 1])
        assert abs(ell - (2 * n0 - len(obs)) * np.log(3)) < 1e-12


def test_two_generators_two_steps_track_at_most_four_beliefs():
    gens = mixed_gens(2)
    prior = initial_exact_surface(np.array([[0.5, 0.5]]), np.zeros(1), gens,
                                  "dynamic")
    surfaces, _ = evolve(prior, gens, [0, 1], "dr")
    assert len(surfaces[-1]) <= 4


def test_exact_cap_enforced(monkeypatch):
    gens = mixed_gens(3)
    prior = initial_exact_surface(np.array([[0.5, 0.5]]), np.zeros(1), gens,
                                  "dynamic")
    monkeypatch.setattr(penalty, "EXACT_CAP", 20)
    with pytest.raises(CapExceeded, match=r"^21 tracked beliefs at step 3 "
                       r"would exceed the cap of 20$"):
        evolve(prior, gens, [0] * 5, "dr")


def _reference_exact_step(src, gens, gammas, y, framework, cap):
    # the per-pair exact step: one Bayes update per admitted (row,
    # candidate) pair, rows outer and candidates inner, merged in a dict
    # keyed on the posterior's bytes, then put in canonical order
    static = src.gen_ids is not None
    before = np.full((len(gens), len(src)), np.inf)
    if static:
        before[src.gen_ids, np.arange(len(src))] = src.values
    else:
        with np.errstate(over="ignore"):
            before[:] = src.values[None, :] + np.asarray(gammas)[:, None]
    n_new = int(np.isfinite(before).sum())
    if n_new > cap:
        raise CapExceeded(f"{n_new} tracked beliefs at step {src.time + 1} "
                          f"would exceed the cap of {cap}")
    merged = {}
    rows, cands = np.nonzero(np.isfinite(before.T))
    for r, g in zip(rows.tolist(), cands.tolist()):
        gen = gens.candidates[g]
        pred = gen.transition @ src.beliefs[r]
        weighted = gen.emission[:, y] * pred
        mass = weighted.sum()
        if mass <= 0.0:
            continue
        post = weighted / mass + 0.0
        cand = before[g, r]
        if framework == "dr":
            cand = cand - math.log(mass)
        key = (g, post.tobytes()) if static else post.tobytes()
        hit = merged.get(key)
        if hit is None or cand < hit[1]:
            merged[key] = (post, cand, r, g)
    if not merged:
        raise InfeasibleSurface(
            f"observation at step {src.time + 1} impossible under every model")
    beliefs = np.array([e[0] for e in merged.values()])
    values = np.array([e[1] for e in merged.values()])
    parents = np.array([e[2] for e in merged.values()], dtype=np.int64)
    gen_ids = np.array([e[3] for e in merged.values()], dtype=np.int64)
    keys = [beliefs[:, i] for i in range(beliefs.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys + [gen_ids] if static else keys)
    values = values[order]
    m_t = values.min()
    return (beliefs[order], values - m_t, gen_ids[order] if static else None,
            m_t, parents[order], gen_ids[order])


@st.composite
def _exact_levels(draw):
    # a level of exact surfaces of one scope drawn from a small pool of
    # beliefs (vertices included, so repeated rows and coincident images
    # occur) with values from a small set (so ties occur); candidate 0 is
    # the identity chain and cannot emit symbol 0 from state 0
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n, d, n_gens = (draw(st.integers(1, 4)), draw(st.integers(2, 3)),
                    draw(st.integers(1, 3)))
    scope = draw(st.sampled_from(["static", "dynamic"]))
    rng = np.random.Generator(np.random.Philox(seed))
    cands = []
    for g in range(n_gens):
        emission = rng.dirichlet(np.ones(d), size=n)
        transition = rng.dirichlet(np.ones(n), size=n).T
        if g == 0:
            emission[0] = np.eye(d)[d - 1]
            transition = np.eye(n)
        cands.append(Generator(transition=transition, emission=emission))
    gens = GeneratorGrid(candidates=tuple(cands),
                         prior_penalty=np.zeros(n_gens))
    pool = np.vstack([np.eye(n), np.full((1, n), 1.0 / n),
                      rng.dirichlet(np.ones(n), size=3)])
    surfaces = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 6))
        beliefs = pool[rng.integers(len(pool), size=size)]
        values = rng.choice([0.0, -0.0, 0.5, 1.0, np.inf], size=size)
        values = np.where(rng.random(size) < 0.3, rng.exponential(size=size),
                          values)
        values[rng.integers(size)] = rng.choice([0.0, -0.0])
        gen_ids = rng.integers(n_gens, size=size) if scope == "static" \
            else None
        surfaces.append(ExactSurface(beliefs=beliefs, values=values,
                                     gen_ids=gen_ids,
                                     time=draw(st.integers(0, 2))))
    gammas = None
    if scope == "dynamic":
        gammas = rng.choice([0.0, -0.0, 0.25, np.inf], size=n_gens)
    cap = draw(st.sampled_from([2, 8, penalty.EXACT_CAP]))
    return gens, surfaces, gammas, cap


def _outcome(step):
    try:
        return step()
    except (CapExceeded, InfeasibleSurface) as exc:
        return type(exc), str(exc)


# a symbol mass whose np.log differs from math.log in the last bit where
# numpy's log is vectorized (x86-64 with AVX-512), so taking np.log's bits
# in the kernel fails whatever the hypothesis seed
_LOG_MASS = 0.9833347065534214


@given(_exact_levels(), st.sampled_from(["up", "dr"]))
@example(case=(GeneratorGrid(candidates=(Generator(
    transition=np.eye(1), emission=np.array([[_LOG_MASS, 1 - _LOG_MASS]])),),
    prior_penalty=np.zeros(1)), [ExactSurface(
        beliefs=np.ones((1, 1)), values=np.zeros(1), gen_ids=None, time=0)],
    np.zeros(1), penalty.EXACT_CAP), framework="dr")
@settings(max_examples=400, deadline=None)
def test_exact_level_kernel_matches_per_pair_reference(case, framework):
    # the stacked kernel is bit for bit the per-pair step on every surface
    # (beliefs, values with their signed zeros, candidates, m_t and
    # provenance, or the error), and a stacked level is its surfaces' calls;
    # the cap is read at the check, so lowering the constant lowers it
    gens, surfaces, gammas, cap = case
    for y in range(gens.n_symbols):
        expected = [_outcome(lambda s=s: _reference_exact_step(
            s, gens, gammas, y, framework, cap)) for s in surfaces]
        with mock.patch.object(penalty, "EXACT_CAP", cap):
            ones = [_outcome(lambda s=s: exact_step(s, gens, gammas, y,
                                                    framework))
                    for s in surfaces]
            level = _outcome(lambda: penalty._exact_level(
                surfaces, gens, gammas, y, framework))
        errors = [e for e in expected if isinstance(e[0], type)]
        if errors:
            assert [e for e in ones if isinstance(e[0], type)] == errors
            assert level in errors
            continue
        assert isinstance(level, list) and len(level) == len(surfaces)
        for ref, one, stacked in zip(expected, ones, level):
            beliefs, values, gen_ids, m_t, src, gen = ref
            for surface, report in (one, stacked):
                assert surface.beliefs.tobytes() == beliefs.tobytes()
                assert surface.values.tobytes() == values.tobytes()
                if gen_ids is None:
                    assert surface.gen_ids is None
                else:
                    assert surface.gen_ids.tobytes() == gen_ids.tobytes()
                assert np.float64(report.m_t).tobytes() == m_t.tobytes()
                assert report.argmin_src.tobytes() == src.tobytes()
                assert report.argmin_gen.tobytes() == gen.tobytes()
                assert surface.time == report.time == one[0].time
                assert report.infeasible_cells == 0


@given(_exact_levels(), st.sampled_from(["up", "dr"]))
@settings(max_examples=100, deadline=None)
def test_step_level_steps_an_exact_level_as_its_surfaces(case, framework):
    gens, surfaces, gammas, _ = case
    try:
        expected = [[exact_step(s, gens, gammas, y, framework)[0]
                     for y in range(gens.n_symbols)] for s in surfaces]
    except InfeasibleSurface:
        with pytest.raises(InfeasibleSurface):
            penalty.step_level(surfaces, gens, gammas, framework)
        return
    stepped = penalty.step_level(surfaces, gens, gammas, framework)
    assert [[(c.beliefs.tobytes(), c.values.tobytes(), c.time)
             for c in kids] for kids in stepped] == \
        [[(c.beliefs.tobytes(), c.values.tobytes(), c.time)
          for c in kids] for kids in expected]


def test_initial_exact_surface_merges_at_the_least_value():
    gens = mixed_gens(2)
    beliefs = np.array([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5], [-0.0, 1.0],
                        [0.0, 1.0], [0.25, 0.75]])
    values = np.array([2.0, 1.0, 0.5, 3.0, 3.0, 1.0])
    dynamic = initial_exact_surface(beliefs, values, gens, "dynamic")
    assert dynamic.beliefs.tolist() == [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5]]
    assert dynamic.values.tolist() == [2.5, 0.5, 0.0]
    static = initial_exact_surface(beliefs, values, gens, "static")
    assert static.gen_ids.tolist() == [0, 1] * 3
    assert static.values.tolist() == (
        dynamic.values[:, None] + gens.prior_penalty).ravel().tolist()


def test_impossible_observation_flags_infeasible():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.eye(2),
                              emission=np.array([[1.0, 0.0], [1.0, 0.0]])),),
        prior_penalty=np.array([0.0]))
    grid = SimplexGrid.build(2, 4)
    prior = initial_grid_surface(np.zeros(len(grid)), gens, grid, "dynamic")
    with pytest.raises(InfeasibleSurface):
        evolve(prior, gens, [1], "up")


def test_zero_prior_dichotomy_small():
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    beliefs = np.array([[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]])
    prior = initial_exact_surface(beliefs, np.zeros(3), gens, "static")
    up, _ = evolve(prior, gens, [0, 1, 0], "up")
    assert all(np.max(s.values) == 0.0 for s in up)
    dr, _ = evolve(prior, gens, [0, 1, 0], "dr")
    assert all(np.max(s.values) > 0 for s in dr[1:])


def _both_kinds(scope="dynamic"):
    """A grid surface and an exact surface on the same beliefs, each with
    its step."""
    grid = SimplexGrid.build(2, 5)
    gens = mixed_gens()
    zeros = np.zeros(len(grid))
    return gens, {
        "forward_image_step": (initial_grid_surface(zeros, gens, grid, scope),
                               forward_image_step),
        "exact_step": (initial_exact_surface(grid.points, zeros, gens, scope),
                       exact_step)}


@pytest.mark.parametrize("kind", ["forward_image_step", "exact_step"])
def test_steps_reject_an_unknown_framework(kind):
    gens, kinds = _both_kinds()
    surface, step = kinds[kind]
    with pytest.raises(ValueError, match="bad framework 'bogus'"):
        step(surface, gens, gens.prior_penalty, 0, "bogus")
    with pytest.raises(ValueError, match="bad framework 'bogus'"):
        evolve(surface, gens, [0], "bogus")
    setup = TreeSetup(gens=gens, framework="bogus", horizon=1,
                      initial_surface=surface,
                      params=UncertaintyParams(k=1.0))
    with pytest.raises(ValueError, match="bad framework 'bogus'"):
        build_observation_tree(setup)


def test_initial_surfaces_reject_an_unknown_scope():
    grid = SimplexGrid.build(2, 5)
    zeros = np.zeros(len(grid))
    with pytest.raises(ValueError, match="bad scope 'mixed'"):
        initial_grid_surface(zeros, mixed_gens(), grid, "mixed")
    with pytest.raises(ValueError, match="bad scope 'mixed'"):
        initial_exact_surface(grid.points, zeros, mixed_gens(), "mixed")


@pytest.mark.parametrize("scope", ["static", "dynamic"])
def test_evolve_steps_each_surface_kind_with_its_own_step(monkeypatch, scope):
    gens, kinds = _both_kinds(scope)
    calls = {name: _count_calls(monkeypatch, penalty, name) for name in kinds}
    for kind, (surface, _) in kinds.items():
        for c in calls.values():
            c.clear()
        surfaces, reports = evolve(surface, gens, [0, 1, 0], "dr")
        assert {name: len(c) for name, c in calls.items()} == {
            name: 3 if name == kind else 0 for name in kinds}
        assert [type(s) for s in surfaces] == [type(surface)] * 4
        assert [r.time for r in reports] == [1, 2, 3]


# ---------------------------------------------------------------------------
# serialization

def _reference_render_surface_csv(surface, report=None):
    # the renderer as three per-kind loops, one per surface type, formatting
    # cell by cell
    def fmt(x):
        return repr(float(x))

    lines = []
    if isinstance(surface, penalty.PenaltySurface):
        n = surface.grid.n_states
        header = ([f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
                  + ["value", "src_point", "src_gen"])
        lines.append(",".join(header))
        src = report.argmin_src if report is not None else None
        gen = report.argmin_gen if report is not None else None
        for i in range(len(surface.grid)):
            row = ([str(int(c)) for c in surface.grid.coords[i]]
                   + [fmt(p) for p in surface.grid.points[i]]
                   + [fmt(surface.values[i]),
                      str(int(src[i])) if src is not None else "-1",
                      str(int(gen[i])) if gen is not None else "-1"])
            lines.append(",".join(row))
    elif isinstance(surface, penalty.ExtendedPenaltySurface):
        n = surface.grid.n_states
        header = ([f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
                  + ["gen", "value", "src_point", "src_gen"])
        lines.append(",".join(header))
        src = report.argmin_src if report is not None else None
        gen = report.argmin_gen if report is not None else None
        for i in range(len(surface.grid)):
            for g in range(len(surface.gens)):
                row = ([str(int(c)) for c in surface.grid.coords[i]]
                       + [fmt(p) for p in surface.grid.points[i]]
                       + [str(g), fmt(surface.values[i, g]),
                          str(int(src[i, g])) if src is not None else "-1",
                          str(int(gen[i, g])) if gen is not None else "-1"])
                lines.append(",".join(row))
    else:
        n = surface.beliefs.shape[1]
        lines.append(",".join([f"p{i}" for i in range(n)] + ["gen", "value"]))
        for i in range(len(surface)):
            gid = -1 if surface.gen_ids is None else int(surface.gen_ids[i])
            row = ([fmt(p) for p in surface.beliefs[i]]
                   + [str(gid), fmt(surface.values[i])])
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scope", ["static", "dynamic"])
@pytest.mark.parametrize("seed,n,m", [(5, 2, 25), (6, 3, 12), (7, 4, 7),
                                      (8, 1, 3)])
def test_renderer_is_byte_identical_to_per_kind_loops(scope, seed, n, m):
    rng = np.random.Generator(np.random.Philox(seed))
    grid = SimplexGrid.build(n, m)
    gens = _random_gens(rng, n, 2)
    initial = rng.exponential(size=len(grid))
    initial[rng.random(len(grid)) < 0.2] = np.inf
    initial[0] = 0.0
    obs = [0, 1, 0]
    surfaces, reports = evolve(initial_grid_surface(initial, gens, grid,
                                                    scope), gens, obs, "dr")
    exact_surfaces, exact_reports = evolve(
        initial_exact_surface(grid.points, initial, gens, scope), gens,
        obs[:2], "dr")
    cases = ([(surfaces[0], None)] + list(zip(surfaces[1:], reports))
             + [(s, None) for s in surfaces[1:]] + [(exact_surfaces[0], None)]
             + list(zip(exact_surfaces[1:], exact_reports)))
    assert any(np.isinf(s.values).any() for s, _ in cases) == (
        scope == "static" or n > 1)
    # unreached cells carry -1 provenance; the one-cell dynamic grid has none
    assert any((r.argmin_src == -1).any() for r in reports) == (
        scope == "static" or n > 1)
    for surface, report in cases:
        assert (render_surface_csv([surface], [report])
                == [_reference_render_surface_csv(surface, report)])


@st.composite
def _render_cases(draw):
    """A grid surface of either scope whose values hold a random share of
    ``inf`` and possibly a -0.0, rendered without a report, with a
    hand-built report of arbitrary provenance (an ``inf`` cell may carry
    some, a finite cell may carry -1), and stepped once with the engine's
    report."""
    n = draw(st.integers(1, 4))
    grid = SimplexGrid.build(n, draw(st.integers(1, (8, 6, 4, 3)[n - 1])))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32))))
    gens = _random_gens(rng, n, 2)
    static = draw(st.booleans())
    shape = (len(grid), len(gens)) if static else (len(grid),)
    values = rng.exponential(size=shape)
    values[rng.random(shape) < draw(st.floats(0.0, 1.0))] = np.inf
    flat = values.reshape(-1)
    finite = np.isfinite(flat)
    if finite.any():
        flat[finite] -= flat[finite].min()
    if draw(st.booleans()):
        flat[draw(st.integers(0, flat.size - 1))] = -0.0
    surface = (penalty.ExtendedPenaltySurface(grid, gens, values, 0) if static
               else penalty.PenaltySurface(grid, values, 0))
    hand = penalty.StepReport(time=0, m_t=0.0, infeasible_cells=0,
                              argmin_src=rng.integers(-1, 3, shape),
                              argmin_gen=rng.integers(-1, 3, shape))
    cases = [(surface, None), (surface, hand)]
    try:
        stepped, report = forward_image_step(
            surface, gens, None if static else gens.prior_penalty,
            draw(st.integers(0, 1)), draw(st.sampled_from(["up", "dr"])))
        cases.append((stepped, report))
    except InfeasibleSurface:
        pass
    return cases


@given(_render_cases())
@settings(max_examples=300, deadline=None)
def test_renderer_matches_reference_on_arbitrary_surfaces(cases):
    for surface, report in cases:
        assert (render_surface_csv([surface], [report])
                == [_reference_render_surface_csv(surface, report)])


@st.composite
def _render_batches(draw):
    """1-5 grid surfaces on one grid and candidate axis, each with a random
    share of ``inf``, one of them possibly holding a ``-0.0`` beside the
    ``0.0`` of another, each with no report, a hand-built one (ids from -3
    on, possibly beyond the grid) or, once stepped, the engine's."""
    n = draw(st.integers(1, 4))
    grid = SimplexGrid.build(n, draw(st.integers(1, (8, 6, 4, 3)[n - 1])))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32))))
    gens = _random_gens(rng, n, 2)
    static = draw(st.booleans())
    shape = (len(grid), len(gens)) if static else (len(grid),)
    surfaces, reports = [], []
    for _ in range(draw(st.integers(1, 5))):
        values = rng.exponential(size=shape)
        values[rng.random(shape) < draw(st.floats(0.0, 1.0))] = np.inf
        flat = values.reshape(-1)
        finite = np.isfinite(flat)
        if finite.any():
            flat[finite] -= flat[finite].min()
            if draw(st.booleans()):
                flat[np.flatnonzero(finite)[0]] = -0.0
        surface = (penalty.ExtendedPenaltySurface(grid, gens, values, 0)
                   if static else penalty.PenaltySurface(grid, values, 0))
        report = draw(st.sampled_from(["none", "hand", "engine"]))
        if report == "engine":
            try:
                surface, report = forward_image_step(
                    surface, gens, None if static else gens.prior_penalty,
                    draw(st.integers(0, 1)), "dr")
            except InfeasibleSurface:
                report = "none"
        if report == "hand":
            high = draw(st.sampled_from([3, len(grid) + 3]))
            report = penalty.StepReport(
                time=0, m_t=0.0, infeasible_cells=0,
                argmin_src=rng.integers(-3, high, shape),
                argmin_gen=rng.integers(-3, 3, shape))
        surfaces.append(surface)
        reports.append(None if report == "none" else report)
    return surfaces, reports


@given(_render_batches())
@settings(max_examples=200, deadline=None)
def test_batch_renders_each_surface_as_the_reference(batch):
    surfaces, reports = batch
    expected = [_reference_render_surface_csv(s, r)
                for s, r in zip(surfaces, reports)]
    assert render_surface_csv(surfaces, reports) == expected
    if all(r is None for r in reports):
        assert render_surface_csv(surfaces) == expected


def test_batch_keeps_minus_zero_apart_from_zero():
    # one batch formats the bit patterns of 0.0 and -0.0 apart
    grid = SimplexGrid.build(2, 4)
    zero = penalty.PenaltySurface(grid, [np.inf, 0.0, 1.5, np.inf, 0.0], 0)
    minus = penalty.PenaltySurface(grid, [-0.0, np.inf, 1.5, 0.0, np.inf], 0)
    hand = penalty.StepReport(time=0, m_t=0.0, infeasible_cells=0,
                              argmin_src=np.array([-1, 2, 0, -1, -1]),
                              argmin_gen=np.array([-1, 0, 0, -1, -1]))
    for reports in (None, [hand, None], [None, hand]):
        assert render_surface_csv([zero, minus], reports) == [
            _reference_render_surface_csv(s, r)
            for s, r in zip([zero, minus], reports or [None, None])]
    lines = [text.splitlines() for text in
             render_surface_csv([zero, minus])]
    assert lines[0][2] == "1,3,0.25,0.75,0.0,-1,-1"
    assert lines[1][1] == "0,4,0.0,1.0,-0.0,-1,-1"


def test_provenance_beyond_the_grid_is_rendered():
    # a hand-built report may hold ids the grid's tables do not reach
    grid = SimplexGrid.build(1, 3)
    surface = penalty.PenaltySurface(grid, [0.0], 0)
    for src, gen in ((2, 5), (-3, -1), (10 ** 12, 0), (-1, -7)):
        report = penalty.StepReport(time=0, m_t=0.0, infeasible_cells=0,
                                    argmin_src=np.array([src]),
                                    argmin_gen=np.array([gen]))
        assert render_surface_csv([surface], [report]) == [
            _reference_render_surface_csv(surface, report)]
        assert render_surface_csv([surface], [report])[0].endswith(
            f",0.0,{src},{gen}\n")


def test_row_text_lives_with_its_simplex_grid():
    grid = SimplexGrid.build(2, 10)
    render_surface_csv([initial_grid_surface(
        np.zeros(len(grid)), uninformative_gens(), grid, "dynamic")])
    ref = weakref.ref(grid.row_text[None])
    del grid
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n_gens", [None, 1, 3])
@pytest.mark.parametrize("n,m", [(2, 1), (4, 3), (3, 7), (3, 10), (2, 49),
                                 (3, 80), (2, 997)])
def test_row_text_is_each_rows_repr(n, m, n_gens):
    # the leading columns formatted row by row from the grid's own arrays
    grid = SimplexGrid.build(n, m)
    cells = [",".join(map(repr, c + p)) + "," for c, p in
             zip(grid.coords.tolist(), grid.points.tolist())]
    names = [f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
    if n_gens is not None:
        cells = [f"{cell}{g}," for cell in cells for g in range(n_gens)]
        names.append("gen")
    text = penalty._build_row_text(grid, n_gens)
    assert text.header == ",".join(names) + ",value,src_point,src_gen\n"
    assert text.prefixes.tolist() == cells
    assert text.excluded.tolist() == [f"{cell}inf,-1,-1\n" for cell in cells]


def test_second_render_builds_no_prefixes(monkeypatch):
    builds = _count_calls(monkeypatch, penalty, "_build_row_text")
    grid = SimplexGrid.build(2, 12)
    gens = mixed_gens()
    surfaces, reports = evolve(
        initial_grid_surface(np.zeros(len(grid)), gens, grid, "static"), gens,
        [0, 1, 1], "dr")
    first = render_surface_csv(surfaces, [None] + reports)
    assert len(builds) == 1
    again = [render_surface_csv([s], [r])[0]
             for s, r in zip(surfaces, [None] + reports)]
    assert again == first
    assert len(builds) == 1


def test_static_and_dynamic_surfaces_keep_separate_row_text():
    # with one candidate both scopes have K = 1, but only the static
    # surface has a gen column
    grid = SimplexGrid.build(2, 5)
    dynamic = initial_grid_surface(np.zeros(len(grid)), uninformative_gens(),
                                   grid, "dynamic")
    static = initial_grid_surface(np.zeros(len(grid)), uninformative_gens(),
                                  grid, "static")
    texts = [render_surface_csv([s])[0] for s in (dynamic, static, dynamic)]
    assert set(grid.row_text) == {None, 1}
    assert texts[0] == texts[2] == _reference_render_surface_csv(dynamic)
    assert texts[1] == _reference_render_surface_csv(static)

def test_exact_surface_csv_layout():
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    prior = initial_exact_surface(np.array([[0.4, 0.6], [0.5, 0.5]]),
                                  np.array([0.2, 0.0]), gens, "static")
    surfaces, _ = evolve(prior, gens, [0], "dr")
    (text,) = render_surface_csv(surfaces[-1:])
    lines = text.strip().split("\n")
    assert lines[0] == "p0,p1,gen,value"
    assert len(lines) == 1 + len(surfaces[-1])


def test_surface_csv_roundtrip():
    grid = SimplexGrid.build(2, 3)
    values = np.array([np.inf, 0.5, 0.0, 1.25])
    surface = initial_grid_surface(values, uninformative_gens(), grid,
                                   "dynamic")
    (text,) = render_surface_csv([surface])
    lines = text.strip().split("\n")
    assert lines[0] == "x0,x1,p0,p1,value,src_point,src_gen"
    parsed = [float(line.split(",")[4]) for line in lines[1:]]
    assert parsed[0] == np.inf
    assert parsed[1:] == [0.5, 0.0, 1.25]
    assert text.endswith("\n") and "\r" not in text
