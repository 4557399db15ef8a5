"""Finite model classes: simplex grids, candidate-generator grids, and
prior penalties.

One model from the class is an initial belief (a simplex-grid point) plus
either a single generator (static) or one generator index per time step
(dynamic). Penalties are additive in log space:
``prior(p0) + sum_t gamma_t(gen_t)``; in the data-driven framework the
engines also subtract the per-step observation log-likelihood, and
:mod:`robusthmm.oracles` computes the same divergence by enumerating models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleSurface
from .hmm import Generator

UP = "up"
DR = "dr"
STATIC = "static"
DYNAMIC = "dynamic"

_FRAMEWORKS = (UP, DR)
_SCOPES = (STATIC, DYNAMIC)


def parse_framework(label: str) -> tuple[str, str]:
    """Split a combined label like ``"dynamic-dr"`` into (scope, framework)."""
    try:
        scope, framework = label.split("-")
    except ValueError:
        raise ValueError(f"bad framework label {label!r}") from None
    if scope not in _SCOPES or framework not in _FRAMEWORKS:
        raise ValueError(f"bad framework label {label!r}")
    return scope, framework


def normalize_penalties(values: np.ndarray) -> np.ndarray:
    """Shift penalty values so the minimal finite entry is exactly zero."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.any():
        raise InfeasibleSurface("all penalty values are infinite")
    return values - values[finite].min()


@dataclass(frozen=True)
class SimplexGrid:
    """All beliefs with coordinates ``x / m`` for integer ``x`` summing to
    ``m``, stored in lexicographic order of the integer vectors (the
    canonical indexing used for all deterministic tie-breaks)."""

    n_states: int
    resolution: int
    coords: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    _index: dict = field(repr=False, compare=False)

    @classmethod
    def build(cls, n_states: int, resolution: int) -> "SimplexGrid":
        if n_states < 1 or resolution < 1:
            raise ValueError("need n_states >= 1 and resolution >= 1")
        coords = np.array(
            list(_compositions(resolution, n_states)), dtype=np.int64)
        points = coords.astype(np.float64) / resolution
        coords.flags.writeable = False
        points.flags.writeable = False
        index = {tuple(map(int, c)): i for i, c in enumerate(coords)}
        return cls(n_states=n_states, resolution=resolution,
                   coords=coords, points=points, _index=index)

    def __len__(self) -> int:
        return len(self.coords)

    def expected_size(self) -> int:
        return comb(self.resolution + self.n_states - 1, self.n_states - 1)

    def index_of(self, coords: Sequence[int]) -> int:
        return self._index[tuple(int(c) for c in coords)]

    def exact_index(self, belief: np.ndarray, atol: float = 1e-9) -> int:
        """Index of a belief that must lie exactly on the grid."""
        scaled = np.asarray(belief, dtype=np.float64) * self.resolution
        coords = np.rint(scaled).astype(np.int64)
        if np.max(np.abs(scaled - coords)) > atol or coords.sum() != self.resolution:
            raise ValueError(f"belief {belief} is not a grid point")
        return self.index_of(coords)

    def round_to_index(self, belief: np.ndarray) -> int:
        """Nearest grid point in Euclidean distance.

        Ties resolve to the lexicographically smallest integer vector, i.e.
        the lowest canonical index, so rounding is schedule-independent.
        """
        scaled = np.maximum(np.asarray(belief, dtype=np.float64), 0.0)
        scaled = scaled * self.resolution
        base = np.floor(scaled).astype(np.int64)
        deficit = self.resolution - int(base.sum())
        if deficit > 0:
            remainder = scaled - base
            # Largest remainders get the extra units; among equal remainders
            # bumping the highest index yields the lex-smallest result.
            order = np.lexsort((-np.arange(self.n_states), -remainder))
            base[order[:deficit]] += 1
        elif deficit < 0:
            # Only reachable for inputs summing above 1; shed units from the
            # smallest remainders while keeping coordinates nonnegative.
            remainder = scaled - base
            order = np.lexsort((np.arange(self.n_states), remainder))
            for i in order:
                if deficit == 0:
                    break
                take = min(int(base[i]), -deficit)
                base[i] -= take
                deficit += take
        return self.index_of(base)


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


@dataclass(frozen=True, eq=False)
class GeneratorGrid:
    """A finite set of candidate generators with their prior penalties.

    ``prior_penalty`` is normalized to minimum zero at construction.
    ``control_penalty`` optionally holds one penalty row per control, and
    ``gamma_fn`` is a hook for observation-history-dependent penalties; both
    are consulted by :func:`gamma_at`.
    """

    candidates: tuple[Generator, ...]
    prior_penalty: np.ndarray
    control_penalty: np.ndarray | None = None
    gamma_fn: Callable[[int, tuple, int | None], np.ndarray] | None = None

    def __post_init__(self):
        cands = tuple(self.candidates)
        if not cands:
            raise ValueError("candidate list must be nonempty")
        shapes = {(c.n_states, c.n_symbols) for c in cands}
        if len(shapes) > 1:
            raise ValueError("candidates disagree on state or alphabet size")
        for a, b in itertools.combinations(range(len(cands)), 2):
            da = np.max(np.abs(cands[a].transition - cands[b].transition))
            dc = np.max(np.abs(cands[a].emission - cands[b].emission))
            if max(da, dc) <= 1e-12:
                raise ValueError(f"candidates {a} and {b} are duplicates")
        pen = np.asarray(self.prior_penalty, dtype=np.float64)
        if pen.shape != (len(cands),):
            raise ValueError("one prior penalty per candidate required")
        pen = normalize_penalties(pen)
        pen.flags.writeable = False
        ctrl = self.control_penalty
        if ctrl is not None:
            ctrl = np.asarray(ctrl, dtype=np.float64)
            if ctrl.ndim != 2 or ctrl.shape[1] != len(cands):
                raise ValueError("control penalty table must be (n_controls, n_candidates)")
            ctrl = np.stack([normalize_penalties(row) for row in ctrl])
            ctrl.flags.writeable = False
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "prior_penalty", pen)
        object.__setattr__(self, "control_penalty", ctrl)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def n_states(self) -> int:
        return self.candidates[0].n_states

    @property
    def n_symbols(self) -> int:
        return self.candidates[0].n_symbols


def gamma_at(grid: GeneratorGrid, t: int, history: tuple = (),
             control: int | None = None) -> np.ndarray:
    """Per-candidate penalty applying to the time-``t`` generator choice.

    The default is the grid's stationary prior; a control index selects the
    matching row of the control table; the ``gamma_fn`` hook may use the
    observation history. The result is always normalized to minimum zero.
    """
    if t < 1:
        raise ValueError("generator penalties apply from time 1 on")
    if grid.gamma_fn is not None:
        vals = np.asarray(grid.gamma_fn(t, tuple(history), control), dtype=np.float64)
        if vals.shape != (len(grid),):
            raise ValueError("gamma_fn must return one value per candidate")
    elif control is not None:
        if grid.control_penalty is None:
            raise ValueError("no control penalty table configured")
        vals = grid.control_penalty[control]
    else:
        vals = grid.prior_penalty
    return normalize_penalties(np.array(vals, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Initial penalty over beliefs plus the framework switches.

    ``initial_penalty`` holds one value per simplex-grid point (``inf`` marks
    excluded beliefs) and is normalized to minimum zero at construction.
    ``generator_mode`` is ``"static"`` or ``"dynamic"``; ``framework`` is
    ``"up"`` (fixed prior penalty) or ``"dr"`` (observation-driven penalty).
    """

    initial_penalty: np.ndarray
    generator_mode: str
    framework: str

    def __post_init__(self):
        if self.generator_mode not in _SCOPES:
            raise ValueError(f"bad generator_mode {self.generator_mode!r}")
        if self.framework not in _FRAMEWORKS:
            raise ValueError(f"bad framework {self.framework!r}")
        pen = normalize_penalties(
            np.asarray(self.initial_penalty, dtype=np.float64))
        pen.flags.writeable = False
        object.__setattr__(self, "initial_penalty", pen)
