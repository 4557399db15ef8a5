"""Finite-state hidden chain, observation model, and the one-step Bayes filter.

Conventions used throughout the package:

* hidden states are indices ``0..N-1``; beliefs are length-``N`` probability
  vectors (``p[i]`` = probability of state ``i``),
* ``transition`` is an ``N x N`` matrix whose column ``j`` is the distribution
  of the next state given current state ``j``, so prediction is ``A @ p``,
* observations form a finite alphabet of ``d`` symbols; ``emission`` is an
  ``N x d`` matrix whose row ``i`` is the distribution of the symbol emitted
  from state ``i``,
* observations start at time 1: a path of horizon ``T`` carries hidden states
  ``X_0..X_T`` and symbols ``Y_1..Y_T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateObservation

STOCHASTIC_ATOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    a.flags.writeable = False
    return a


def as_filter_state(probs) -> np.ndarray:
    """Validate and return a belief vector (finite, nonnegative, sums to 1)."""
    p = np.ascontiguousarray(np.asarray(probs, dtype=np.float64))
    if p.ndim != 1:
        raise ValueError(f"belief must be a vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("belief has non-finite entries")
    if np.any(p < 0):
        raise ValueError("belief has negative entries")
    if abs(p.sum() - 1.0) > STOCHASTIC_ATOL:
        raise ValueError(f"belief sums to {float(p.sum())!r}, not 1")
    return p


@dataclass(frozen=True, eq=False)
class Generator:
    """One candidate model: a transition matrix paired with an emission matrix.

    ``transition[:, j]`` is the next-state distribution from state ``j``;
    ``emission[i, :]`` is the symbol distribution emitted from state ``i``.
    """

    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self):
        a = _readonly(self.transition)
        c = _readonly(self.emission)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"transition must be square, got {a.shape}")
        if c.ndim != 2 or c.shape[0] != a.shape[0]:
            raise ValueError(
                f"emission rows ({c.shape}) must match state count {a.shape[0]}")
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise ValueError("generator entries must be finite")
        if np.any(a < 0) or np.any(c < 0):
            raise ValueError("generator entries must be nonnegative")
        if np.max(np.abs(a.sum(axis=0) - 1.0)) > STOCHASTIC_ATOL:
            raise ValueError("transition columns must sum to 1")
        if np.max(np.abs(c.sum(axis=1) - 1.0)) > STOCHASTIC_ATOL:
            raise ValueError("emission rows must sum to 1")
        object.__setattr__(self, "transition", a)
        object.__setattr__(self, "emission", c)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[1]


@dataclass(frozen=True)
class Path:
    """A sampled trajectory: hidden states ``X_0..X_T``, symbols ``Y_1..Y_T``.

    ``hidden`` has one more entry than ``observed`` because the initial state
    carries no observation.
    """

    hidden: np.ndarray
    observed: np.ndarray
    seed: int

    def __post_init__(self):
        h = np.ascontiguousarray(np.asarray(self.hidden, dtype=np.int64))
        o = np.ascontiguousarray(np.asarray(self.observed, dtype=np.int64))
        if h.ndim != 1 or o.ndim != 1 or len(h) != len(o) + 1:
            raise ValueError("hidden must hold exactly one more entry than observed")
        h.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "hidden", h)
        object.__setattr__(self, "observed", o)

    @property
    def horizon(self) -> int:
        return len(self.observed)


def filter_step(p: np.ndarray, gen: Generator, y: int) -> np.ndarray:
    """Bayes update of the belief after observing symbol ``y``.

    Raises :class:`DegenerateObservation` if the symbol has zero probability
    under the predicted belief (the update is undefined there; we never
    renormalize silently).
    """
    pred = gen.transition @ p
    weighted = gen.emission[:, y] * pred
    total = weighted.sum()
    if total <= 0.0:
        raise DegenerateObservation(
            f"symbol {y} has zero probability under the model")
    return weighted / total


def simulate_path(gen_seq: Sequence[Generator], p0: np.ndarray,
                  horizon: int, seed: int) -> Path:
    """Sample a trajectory of hidden states and observations.

    Uses the counter-based Philox bit generator so results are reproducible
    bit-for-bit for a fixed seed, independent of execution schedule. Each
    draw is ``Generator.choice``'s, from CDFs built once per generator.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if len(gen_seq) < horizon:
        raise ValueError("need one generator per simulated step")
    p0 = as_filter_state(p0)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    uniforms = iter(rng.random(2 * horizon + 1))
    cdfs = {id(gen): gen for gen in gen_seq[:horizon]}  # distinct generators
    for key, gen in cdfs.items():
        cdfs[key] = [c / c[:, -1:] for c in (gen.transition.T.cumsum(axis=1),
                                             gen.emission.cumsum(axis=1))]

    def draw(cdf):
        return int(cdf.searchsorted(next(uniforms), "right"))

    cdf = p0.cumsum()
    hidden, observed = [draw(cdf / cdf[-1])], []
    for t in range(horizon):
        trans, emit = cdfs[id(gen_seq[t])]
        hidden.append(draw(trans[hidden[-1]]))
        observed.append(draw(emit[hidden[-1]]))
    return Path(hidden=np.array(hidden, dtype=np.int64),
                observed=np.array(observed, dtype=np.int64),
                seed=int(seed))
