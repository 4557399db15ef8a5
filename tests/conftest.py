import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robusthmm import (ExtendedPenaltySurface, Generator,  # noqa: E402
                       GeneratorGrid, PenaltySurface, SimplexGrid)
from robusthmm.config import load_config  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def example1_generator(a: float = 0.75, b: float = 0.25) -> Generator:
    """Two-state identity chain; symbol 0 has probability a (state 0) or
    b (state 1)."""
    return Generator(transition=np.eye(2),
                     emission=np.array([[a, 1 - a], [b, 1 - b]]))


@pytest.fixture(scope="session")
def oracle_cfg():
    return load_config(str(CONFIGS / "oracle_t3.json"))


@pytest.fixture(scope="session")
def control_cfg():
    return load_config(str(CONFIGS / "control_t3.json"))


@pytest.fixture
def ex1_gens():
    return GeneratorGrid(candidates=(example1_generator(),),
                         prior_penalty=np.array([0.0]))


# (seed, n_states, resolution, n_symbols, candidates, surfaces, scope)
LEVEL_SHAPES = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
                         st.integers(1, 6), st.integers(2, 3),
                         st.integers(1, 3), st.integers(1, 6),
                         st.sampled_from(["static", "dynamic"]))


def level_case(seed, n, m, d, n_gens, rows, scope):
    """A random level of grid surfaces for the batched-kernel tests.

    Candidate 0 never emits symbol 0 from state 0, so cells die. Values come
    from a small set (planting ties), include ``-0.0`` and ``inf``, and
    about one row in five keeps a single live cell. Returns the candidate
    grid, the surfaces and per-step penalties (None in the static scope;
    with ``-0.0`` and ``inf`` entries in the dynamic one)."""
    rng = np.random.Generator(np.random.Philox(seed))
    grid = SimplexGrid.build(n, m)
    cands = []
    for g in range(n_gens):
        emission = rng.dirichlet(np.ones(d), size=n)
        if g == 0:
            emission[0] = np.eye(d)[d - 1]
        cands.append(Generator(transition=rng.dirichlet(np.ones(n), size=n).T,
                               emission=emission))
    gens = GeneratorGrid(candidates=tuple(cands),
                         prior_penalty=np.zeros(n_gens))
    shape = (len(grid), n_gens) if scope == "static" else (len(grid),)
    surfaces = []
    for _ in range(rows):
        values = rng.choice([0.0, -0.0, 0.5, 1.0, np.inf], size=shape)
        values = np.where(rng.random(shape) < 0.3, rng.exponential(size=shape),
                          values)
        if rng.random() < 0.2:
            values[...] = np.inf
        values.flat[rng.integers(values.size)] = rng.choice([0.0, -0.0])
        surfaces.append(
            ExtendedPenaltySurface(grid=grid, gens=gens, values=values, time=0)
            if scope == "static" else
            PenaltySurface(grid=grid, values=values, time=0))
    gammas = None
    if scope == "dynamic":
        gammas = rng.choice([0.0, -0.0, 0.25, np.inf], size=n_gens)
    return gens, surfaces, gammas
