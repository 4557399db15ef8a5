import gc
import weakref

import numpy as np
import pytest

from robusthmm import penalty
from robusthmm import (CapExceeded, ExactPrior, Generator, GeneratorGrid,
                       InfeasibleSurface, PriorSpec, SimplexGrid, evolve,
                       evolve_exact_tree, exact_step, forward_image_step,
                       initial_exact_surface, project, render_surface_csv)
from robusthmm.oracles import oracle_penalty
from conftest import example1_generator

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
    surface = project(np.full(len(grid), 5.0), grid)
    assert np.array_equal(surface.values, np.zeros(len(grid)))


def test_project_abs_log_odds_is_symmetric_v():
    grid = SimplexGrid.build(2, 6)
    with np.errstate(divide="ignore"):
        surface = project(np.abs(np.log(grid.points[:, 0] / grid.points[:, 1])),
                          grid)
    vals = surface.values
    assert vals[3] == 0.0  # central point (0.5, 0.5)
    assert np.isinf(vals[0]) and np.isinf(vals[-1])
    assert np.allclose(vals[1:3], vals[5:3:-1], atol=1e-12)


def test_project_point_mass():
    grid = SimplexGrid.build(2, 5)
    values = np.full(len(grid), np.inf)
    values[2] = 7.0
    surface = project(values, grid)
    assert surface.values[2] == 0.0
    assert np.isinf(np.delete(surface.values, 2)).all()


# ---------------------------------------------------------------------------
# single grid steps

def test_uninformative_step_is_identity_with_zero_normalizer():
    grid = SimplexGrid.build(2, 8)
    prior = PriorSpec(initial_penalty=np.abs(grid.points[:, 0] - 0.5),
                      generator_mode="dynamic", framework="up")
    src = project(prior.initial_penalty, grid)
    out, report = forward_image_step(src, uninformative_gens(),
                                     np.zeros(1), 0, "up")
    assert np.array_equal(out.values, src.values)
    assert report.m_t == 0.0


def test_up_and_dr_coincide_under_uninformative_emissions():
    grid = SimplexGrid.build(2, 8)
    src = project(np.abs(grid.points[:, 0] - 0.5), grid)
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
    prior = ExactPrior(beliefs=beliefs, values=np.abs(ells))
    src = initial_exact_surface(prior, gens, "static")
    out, _ = exact_step(src, gens, None, 0, "up")
    new_ells = np.log(out.beliefs[:, 0] / out.beliefs[:, 1])
    expected = np.abs(new_ells - np.log(3))
    assert np.max(np.abs(out.values - expected)) < 1e-9


# ---------------------------------------------------------------------------
# evolve

def test_evolve_empty_observations_returns_projected_prior():
    grid = SimplexGrid.build(2, 5)
    prior = PriorSpec(initial_penalty=np.zeros(len(grid)),
                      generator_mode="dynamic", framework="dr")
    surfaces, reports = evolve(prior, mixed_gens(), [], grid)
    assert len(surfaces) == 1 and reports == []
    assert np.array_equal(surfaces[0].values, np.zeros(len(grid)))


def test_static_single_generator_equals_dynamic_with_zero_gamma():
    grid = SimplexGrid.build(2, 7)
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    table = np.abs(grid.points[:, 0] - 0.4)
    obs = [0, 1, 0]
    stat, _ = evolve(PriorSpec(initial_penalty=table, generator_mode="static",
                               framework="dr"), gens, obs, grid)
    dyn, _ = evolve(PriorSpec(initial_penalty=table, generator_mode="dynamic",
                              framework="dr"), gens, obs, grid)
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
    prior = PriorSpec(initial_penalty=table, generator_mode=scope,
                      framework=framework)
    surfaces, _ = evolve(prior, gens, obs, grid)
    oracle = oracle_penalty(grid.points, prior.initial_penalty, gens, obs,
                            framework, scope, grid=grid)
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
    prior = PriorSpec(initial_penalty=np.linspace(0, 2, len(grid)),
                      generator_mode="dynamic", framework="dr")
    surfaces, _ = evolve(prior, mixed_gens(), [0, 0, 1, 1, 0], grid)
    for s in surfaces:
        finite = s.values[np.isfinite(s.values)]
        assert finite.min() == 0.0
        assert np.all(finite >= 0)


def test_normalizers_reconstruct_raw_floor():
    # the per-step normalizers sum to the smallest raw accumulated penalty
    gens = mixed_gens()
    beliefs = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    vals = np.array([0.3, 0.0, 0.6])
    obs = [0, 1, 0]
    _, reports = evolve_exact_tree(ExactPrior(beliefs=beliefs, values=vals),
                                   gens, obs, "dr", "dynamic")
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

def _reference_grid_step(src, gens, gammas, y, framework):
    # the step body without a table: images recomputed and rounded one point
    # at a time on every call
    grid = src.grid
    static = gammas is None
    dest_l, val_l, src_l, gid_l = [], [], [], []
    for g, gen in enumerate(gens.candidates):
        if not static and not np.isfinite(gammas[g]):
            continue
        before = src.values[:, g] if static else src.values
        posts, mass, alive = penalty._gen_images(grid, gen, y)
        idx = np.nonzero(alive & np.isfinite(before))[0]
        cand = before[idx] if static else before[idx] + gammas[g]
        if framework == "dr":
            cand = cand - np.log(mass[idx])
        dest = np.array([grid.round_to_index(posts[i]) for i in idx],
                        dtype=np.int64)
        dest_l.append(dest * len(gens) + g if static else dest)
        val_l.append(cand)
        src_l.append(idx)
        gid_l.append(np.full(idx.size, g, dtype=np.int64))
    out, out_src, out_gen = (
        a.reshape(src.values.shape) for a in penalty._reduce_candidates(
            np.concatenate(dest_l), np.concatenate(val_l),
            np.concatenate(src_l), np.concatenate(gid_l), src.values.size))
    values, m_t = penalty._normalize_step(out, src.time + 1)
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
    prior = PriorSpec(initial_penalty=initial, generator_mode=scope,
                      framework=framework)
    surface = penalty.initial_grid_surface(prior, gens, grid)
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
    prior = PriorSpec(initial_penalty=np.zeros(len(grid)),
                      generator_mode=scope, framework="dr")
    surfaces, _ = evolve(prior, gens, [0, 1, 1, 0, 0, 1, 0, 1], grid)
    assert len(surfaces) == 9
    assert len(images) == len(gens) * gens.n_symbols
    assert rounds == []


def test_image_table_lives_with_its_generator_grid():
    grid = SimplexGrid.build(2, 10)
    gens = mixed_gens()
    prior = PriorSpec(initial_penalty=np.zeros(len(grid)),
                      generator_mode="dynamic", framework="dr")
    evolve(prior, gens, [0, 1], grid)
    # an equal grid built elsewhere finds the same table
    assert set(gens.image_tables) == {(SimplexGrid.build(2, 10), 0),
                                      (grid, 1)}
    ref = weakref.ref(gens.image_tables[(grid, 0)])
    del gens
    gc.collect()
    assert ref() is None


def test_infinite_gamma_candidate_changes_no_dynamic_surface():
    grid = SimplexGrid.build(2, 30)
    base = mixed_gens()
    extra = GeneratorGrid(
        candidates=base.candidates + (example1_generator(),),
        prior_penalty=np.append(base.prior_penalty, np.inf))
    obs = [0, 1, 1, 0, 1]
    for framework in ("up", "dr"):
        prior = PriorSpec(initial_penalty=np.linspace(0, 2, len(grid)),
                          generator_mode="dynamic", framework=framework)
        want, want_reports = evolve(prior, base, obs, grid)
        got, got_reports = evolve(prior, extra, obs, grid)
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
    prior = ExactPrior(beliefs=beliefs, values=np.array([0.0, 0.1]))
    surfaces, _ = evolve_exact_tree(prior, gens, [0, 1, 0, 1], "up",
                                    "dynamic")
    for s in surfaces:
        assert np.array_equal(s.beliefs, prior.beliefs)
        assert np.allclose(s.values, prior.values, atol=1e-15)


def test_example1_reachable_beliefs_sit_on_log_odds_lattice():
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    prior = ExactPrior(beliefs=np.array([[0.5, 0.5]]), values=np.zeros(1))
    for obs in ([0], [0, 1, 0], [1, 1, 0, 0, 1]):
        surfaces, _ = evolve_exact_tree(prior, gens, obs, "up", "dynamic")
        n0 = sum(1 for y in obs if y == 0)
        ell = np.log(surfaces[-1].beliefs[0, 0] / surfaces[-1].beliefs[0, 1])
        assert abs(ell - (2 * n0 - len(obs)) * np.log(3)) < 1e-12


def test_two_generators_two_steps_track_at_most_four_beliefs():
    gens = mixed_gens(2)
    prior = ExactPrior(beliefs=np.array([[0.5, 0.5]]), values=np.zeros(1))
    surfaces, _ = evolve_exact_tree(prior, gens, [0, 1], "dr", "dynamic")
    assert len(surfaces[-1]) <= 4


def test_exact_cap_enforced():
    gens = mixed_gens(3)
    prior = ExactPrior(beliefs=np.array([[0.5, 0.5]]), values=np.zeros(1))
    with pytest.raises(CapExceeded):
        evolve_exact_tree(prior, gens, [0] * 5, "dr", "dynamic", cap=20)


def test_impossible_observation_flags_infeasible():
    gens = GeneratorGrid(
        candidates=(Generator(transition=np.eye(2),
                              emission=np.array([[1.0, 0.0], [1.0, 0.0]])),),
        prior_penalty=np.array([0.0]))
    grid = SimplexGrid.build(2, 4)
    prior = PriorSpec(initial_penalty=np.zeros(len(grid)),
                      generator_mode="dynamic", framework="up")
    with pytest.raises(InfeasibleSurface):
        evolve(prior, gens, [1], grid)


def test_zero_prior_dichotomy_small():
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    beliefs = np.array([[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]])
    prior = ExactPrior(beliefs=beliefs, values=np.zeros(3))
    up, _ = evolve_exact_tree(prior, gens, [0, 1, 0], "up", "static")
    assert all(np.max(s.values) == 0.0 for s in up)
    dr, _ = evolve_exact_tree(prior, gens, [0, 1, 0], "dr", "static")
    assert all(np.max(s.values) > 0 for s in dr[1:])


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
    prior = PriorSpec(initial_penalty=initial, generator_mode=scope,
                      framework="dr")
    surfaces, reports = evolve(prior, gens, obs, grid)
    exact = ExactPrior(beliefs=grid.points, values=initial)
    exact_surfaces, exact_reports = evolve_exact_tree(exact, gens, obs[:2],
                                                      "dr", scope)
    cases = ([(surfaces[0], None)] + list(zip(surfaces[1:], reports))
             + [(s, None) for s in surfaces[1:]] + [(exact_surfaces[0], None)]
             + list(zip(exact_surfaces[1:], exact_reports)))
    assert any(np.isinf(s.values).any() for s, _ in cases) == (
        scope == "static" or n > 1)
    # unreached cells carry -1 provenance; the one-cell dynamic grid has none
    assert any((r.argmin_src == -1).any() for r in reports) == (
        scope == "static" or n > 1)
    for surface, report in cases:
        assert (render_surface_csv(surface, report)
                == _reference_render_surface_csv(surface, report))


def test_row_text_lives_with_its_simplex_grid():
    grid = SimplexGrid.build(2, 10)
    render_surface_csv(project(np.zeros(len(grid)), grid))
    ref = weakref.ref(grid.row_text[None])
    del grid
    gc.collect()
    assert ref() is None


def test_second_render_builds_no_prefixes(monkeypatch):
    builds = _count_calls(monkeypatch, penalty, "_build_row_text")
    grid = SimplexGrid.build(2, 12)
    prior = PriorSpec(initial_penalty=np.zeros(len(grid)),
                      generator_mode="static", framework="dr")
    surfaces, reports = evolve(prior, mixed_gens(), [0, 1, 1], grid)
    first = [render_surface_csv(s, r)
             for s, r in zip(surfaces, [None] + reports)]
    assert len(builds) == 1
    again = [render_surface_csv(s, r)
             for s, r in zip(surfaces, [None] + reports)]
    assert again == first
    assert len(builds) == 1


def test_static_and_dynamic_surfaces_keep_separate_row_text():
    # with one candidate both scopes have K = 1, but only the static
    # surface has a gen column
    grid = SimplexGrid.build(2, 5)
    dynamic = project(np.zeros(len(grid)), grid)
    static = penalty.initial_grid_surface(
        PriorSpec(initial_penalty=np.zeros(len(grid)),
                  generator_mode="static", framework="up"),
        uninformative_gens(), grid)
    texts = [render_surface_csv(s) for s in (dynamic, static, dynamic)]
    assert set(grid.row_text) == {None, 1}
    assert texts[0] == texts[2] == _reference_render_surface_csv(dynamic)
    assert texts[1] == _reference_render_surface_csv(static)

def test_exact_surface_csv_layout():
    gens = GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))
    prior = ExactPrior(beliefs=np.array([[0.4, 0.6], [0.5, 0.5]]),
                       values=np.array([0.2, 0.0]))
    surfaces, _ = evolve_exact_tree(prior, gens, [0], "dr", "static")
    text = render_surface_csv(surfaces[-1])
    lines = text.strip().split("\n")
    assert lines[0] == "p0,p1,gen,value"
    assert len(lines) == 1 + len(surfaces[-1])


def test_surface_csv_roundtrip():
    grid = SimplexGrid.build(2, 3)
    values = np.array([np.inf, 0.5, 0.0, 1.25])
    surface = project(values, grid)
    text = render_surface_csv(surface)
    lines = text.strip().split("\n")
    assert lines[0] == "x0,x1,p0,p1,value,src_point,src_gen"
    parsed = [float(line.split(",")[4]) for line in lines[1:]]
    assert parsed[0] == np.inf
    assert parsed[1:] == [0.5, 0.0, 1.25]
    assert text.endswith("\n") and "\r" not in text
