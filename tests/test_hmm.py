import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robusthmm import (DegenerateObservation, Generator, Path, filter_step,
                       simulate_path)
from conftest import example1_generator


def uninformative_generator(n=2, d=2):
    return Generator(transition=np.eye(n), emission=np.full((n, d), 1.0 / d))


def test_uninformative_observation_leaves_filter_fixed():
    gen = uninformative_generator()
    p = np.array([0.3, 0.7])
    for y in (0, 1):
        assert np.allclose(filter_step(p, gen, y), p, atol=1e-15)


def test_bayes_update_matches_log_odds_arithmetic():
    gen = example1_generator()
    out = filter_step(np.array([0.5, 0.5]), gen, 0)
    assert np.allclose(out, [0.75, 0.25], atol=1e-15)
    # one observation of symbol 0 shifts the log odds by log(a/b) = log 3
    shift = np.log(out[0] / out[1]) - np.log(1.0)
    assert abs(shift - np.log(3)) < 1e-12


def test_perfectly_revealing_observation():
    gen = Generator(transition=np.eye(2),
                    emission=np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = filter_step(np.array([0.5, 0.5]), gen, 0)
    assert np.array_equal(out, [1.0, 0.0])


def test_impossible_observation_raises():
    gen = Generator(transition=np.eye(2),
                    emission=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateObservation):
        filter_step(np.array([1.0, 0.0]), gen, 1)


def test_simulate_zero_horizon():
    path = simulate_path([], np.array([0.0, 1.0]), 0, seed=1)
    assert path.hidden.tolist() == [1]
    assert path.observed.size == 0


def test_simulate_forced_path():
    # swap chain with revealing emissions: the trajectory is deterministic
    gen = Generator(transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
                    emission=np.array([[1.0, 0.0], [0.0, 1.0]]))
    path = simulate_path([gen] * 4, np.array([1.0, 0.0]), 4, seed=3)
    assert path.hidden.tolist() == [0, 1, 0, 1, 0]
    assert path.observed.tolist() == [1, 0, 1, 0]


def test_simulate_reproducible_and_seed_sensitive():
    gen = example1_generator()
    a = simulate_path([gen] * 50, np.array([0.5, 0.5]), 50, seed=11)
    b = simulate_path([gen] * 50, np.array([0.5, 0.5]), 50, seed=11)
    c = simulate_path([gen] * 50, np.array([0.5, 0.5]), 50, seed=12)
    assert np.array_equal(a.hidden, b.hidden)
    assert np.array_equal(a.observed, b.observed)
    assert (not np.array_equal(a.hidden, c.hidden)
            or not np.array_equal(a.observed, c.observed))


def _reference_path(gen_seq, p0, horizon, seed):
    """One ``rng.choice`` per hidden state and per symbol, in path order."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = int(rng.choice(len(p0), p=p0))
    hidden, observed = [state], []
    for gen in gen_seq[:horizon]:
        state = int(rng.choice(gen.n_states, p=gen.transition[:, state]))
        hidden.append(state)
        observed.append(int(rng.choice(gen.n_symbols,
                                       p=gen.emission[state])))
    return hidden, observed


def _sparse_generator(rng, n, d):
    """Dirichlet rows, some entries zeroed and the rows renormalized."""
    trans = rng.dirichlet(np.ones(n), size=n)
    emit = rng.dirichlet(np.ones(d), size=n)
    for rows in (trans, emit):
        rows[rng.random(rows.shape) < 0.25] = 0.0
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
    return Generator(transition=trans.T, emission=emit)


@pytest.mark.parametrize("case", range(30))
def test_simulate_draws_as_choice_does(case):
    # the CDF draws keep every state and symbol of the rng.choice loop
    rng = np.random.default_rng([21, case])
    n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    gens = [_sparse_generator(rng, n, d) for _ in range(3)]
    horizon = int(rng.integers(0, 41))
    gen_seq = [gens[g] for g in rng.integers(0, 3, size=horizon)]
    p0 = rng.dirichlet(np.ones(n))
    p0[rng.random(n) < 0.3] = 0.0
    p0[int(rng.integers(n))] += 1.0
    p0 /= p0.sum()
    seed = int(rng.integers(0, 2 ** 63))
    path = simulate_path(gen_seq, p0, horizon, seed)
    hidden, observed = _reference_path(gen_seq, p0, horizon, seed)
    assert path.hidden.tolist() == hidden
    assert path.observed.tolist() == observed


def test_simulate_symbol_frequencies_match_predictive():
    # iid states (equal transition columns), so symbols are iid with the
    # predictive mixture law; frequencies must land within 3 standard errors
    pi = np.array([0.3, 0.7])
    gen = Generator(transition=np.column_stack([pi, pi]),
                    emission=np.array([[0.75, 0.25], [0.25, 0.75]]))
    n = 100_000
    path = simulate_path([gen] * n, pi, n, seed=2026)
    target = (gen.transition @ pi) @ gen.emission
    for y in (0, 1):
        freq = float(np.mean(path.observed == y))
        se = np.sqrt(target[y] * (1 - target[y]) / n)
        assert abs(freq - target[y]) < 3 * se


def test_path_length_invariant():
    with pytest.raises(ValueError):
        Path(hidden=np.array([0, 1]), observed=np.array([0, 1]), seed=0)


def _random_generator(draw_floats, n, d):
    trans = np.array(draw_floats(n * n)).reshape(n, n) + 1e-3
    trans = trans / trans.sum(axis=0)
    emit = np.array(draw_floats(n * d)).reshape(n, d) + 1e-3
    emit = emit / emit.sum(axis=1, keepdims=True)
    return Generator(transition=trans, emission=emit)


@st.composite
def generator_and_belief(draw, n=3, d=3):
    floats = st.floats(0.0, 1.0, allow_nan=False)
    gen = _random_generator(lambda k: [draw(floats) for _ in range(k)], n, d)
    raw = np.array([draw(floats) for _ in range(n)]) + 1e-3
    return gen, raw / raw.sum(), draw(st.integers(0, d - 1))


@given(generator_and_belief())
@settings(max_examples=200, deadline=None)
def test_filter_output_is_a_belief(case):
    gen, p, y = case
    out = filter_step(p, gen, y)
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-12


@given(generator_and_belief())
@settings(max_examples=100, deadline=None)
def test_positivity_propagates(case):
    gen, p, y = case
    # all entries strictly positive by construction
    out = filter_step(p, gen, y)
    assert np.all(out > 0)


@given(generator_and_belief(), st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_update_depends_on_emission_column_only_up_to_scale(case, lam):
    gen, p, y = case
    pred = gen.transition @ p
    scaled = lam * gen.emission[:, y] * pred
    assert np.allclose(scaled / scaled.sum(), filter_step(p, gen, y),
                       atol=1e-12)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95),
       st.lists(st.integers(0, 1), max_size=8))
@settings(max_examples=150, deadline=None)
def test_log_odds_composition_closed_form(a, b, q, obs):
    gen = example1_generator(a, b)
    p = np.array([q, 1 - q])
    start = np.log(p[0] / p[1])
    for y in obs:
        p = filter_step(p, gen, y)
    n0 = sum(1 for y in obs if y == 0)
    n1 = len(obs) - n0
    expected = (start + n0 * np.log(a / b)
                + n1 * np.log((1 - a) / (1 - b)))
    assert abs(np.log(p[0] / p[1]) - expected) < 1e-12
