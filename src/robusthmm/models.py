"""Finite model classes: simplex grids, candidate-generator grids, prior
penalties, and the uncertainty parameters that price them.

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

import numpy as np

from .errors import CapExceeded, InfeasibleSurface
from .hmm import Generator

UP = "up"
DR = "dr"
STATIC = "static"
DYNAMIC = "dynamic"
GRID_CAP = 10 ** 6  # cells of one SimplexGrid
# states of one SimplexGrid: round_rows ranks remainders pairwise, which is
# quadratic in n_states and slower than an argsort from about 80 states on
STATES_CAP = 64

_FRAMEWORKS = (UP, DR)
_SCOPES = (STATIC, DYNAMIC)


def parse_framework(label: str) -> tuple[str, str]:
    """Split a combined label like ``"dynamic-dr"`` into (scope, framework);
    ``ValueError`` for anything else, a label that is no string included."""
    parts = label.split("-") if isinstance(label, str) else ()
    if (len(parts) != 2 or parts[0] not in _SCOPES
            or parts[1] not in _FRAMEWORKS):
        raise ValueError(f"bad framework label {label!r}")
    return parts[0], parts[1]


def normalize_penalties(values: np.ndarray) -> np.ndarray:
    """Shift penalty values so the minimal finite entry is exactly zero."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.any():
        raise InfeasibleSurface("all penalty values are infinite")
    return values - values[finite].min()


@dataclass(frozen=True)
class UncertaintyParams:
    """Aversion level ``k > 0`` and penalty exponent ``k_exp in [1, inf]``."""

    k: float
    k_exp: float = 1.0

    def __post_init__(self):
        if not (self.k > 0):
            raise ValueError("k must be positive")
        if not (self.k_exp >= 1):
            raise ValueError("k_exp must be at least 1")


@dataclass(frozen=True)
class SimplexGrid:
    """All beliefs with coordinates ``x / m`` for integer ``x`` summing to
    ``m``, stored in lexicographic order of the integer vectors (the
    canonical indexing used for all deterministic tie-breaks).

    A grid is identified by ``(n_states, resolution)``: equality and hashing
    ignore the derived arrays, so grids can key memo tables. :meth:`build`
    lists the cells by one ``np.repeat`` per slot, and raises
    :class:`CapExceeded` instead for more than ``STATES_CAP`` states or
    ``GRID_CAP`` cells.

    ``row_text`` memoizes the text that every surface CSV on this grid
    repeats (header, fixed leading columns and whole excluded-row lines, per
    candidate axis) for :mod:`robusthmm.penalty`'s renderer; it lives and
    dies with this object.
    """

    n_states: int
    resolution: int
    coords: np.ndarray = field(repr=False, compare=False)
    points: np.ndarray = field(repr=False, compare=False)
    # _binom[r, k] = C(r + k, k): compositions of r into k + 1 parts
    _binom: np.ndarray = field(repr=False, compare=False)
    row_text: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @classmethod
    def build(cls, n_states: int, resolution: int) -> "SimplexGrid":
        if n_states < 1 or resolution < 1:
            raise ValueError("need n_states >= 1 and resolution >= 1")
        if n_states > STATES_CAP:
            raise CapExceeded(f"a grid of n_states {n_states} is over the cap "
                              f"of {STATES_CAP} states")
        size = comb(resolution + n_states - 1, n_states - 1)
        if size > GRID_CAP:
            raise CapExceeded(
                f"a grid of n_states {n_states} and resolution {resolution} "
                f"has {size} cells, over the cap of {GRID_CAP}")
        coords = np.zeros((1, 0), dtype=np.int64)
        for _ in range(n_states - 1):  # each prefix, then its heads 0..rem
            counts = resolution + 1 - coords.sum(axis=1)
            starts = np.repeat(counts.cumsum() - counts, counts)
            coords = np.column_stack([np.repeat(coords, counts, axis=0),
                                      np.arange(len(starts)) - starts])
        coords = np.column_stack([coords, resolution - coords.sum(axis=1)])
        points = coords.astype(np.float64) / resolution
        # C(r + k, k) = sum over j <= r of C(j + k - 1, k - 1)
        binom = np.ones((resolution + 1, n_states), dtype=np.int64)
        for k in range(1, n_states):
            binom[:, k] = binom[:, k - 1].cumsum()
        for arr in (coords, points, binom):
            arr.flags.writeable = False
        return cls(n_states=n_states, resolution=resolution,
                   coords=coords, points=points, _binom=binom)

    def __len__(self) -> int:
        return len(self.coords)

    def rank(self, coords: np.ndarray) -> np.ndarray:
        """Canonical index of each row of integer coordinates summing to
        ``resolution``, by the combinatorial number system: position ``i``
        with ``rem`` units left before it skips the
        ``C(rem + k, k) - C(rem - x_i + k, k)`` lex-smaller compositions,
        ``k = n_states - 1 - i``. One gather pair per position from its
        row of ``_binom.T``; the last position skips nothing."""
        cols = np.asarray(coords, dtype=np.int64).T
        index = np.zeros(cols.shape[1], dtype=np.int64)
        rem = self.resolution
        for x, table in zip(cols[:-1], self._binom.T[:0:-1]):
            index += table[rem] - table[rem - x]
            rem = rem - x
        return index

    def exact_coords(self, belief: np.ndarray) -> np.ndarray:
        """Integer coordinates of a grid point, given to within 1e-9 grid
        steps; ``ValueError`` for any other belief."""
        scaled = np.asarray(belief, dtype=np.float64) * self.resolution
        coords = np.rint(scaled).astype(np.int64)
        if (scaled.shape != (self.n_states,) or np.min(coords) < 0
                or np.max(np.abs(scaled - coords)) > 1e-9
                or coords.sum() != self.resolution):
            raise ValueError(f"belief {belief} is not a grid point")
        return coords

    def round_rows(self, beliefs: np.ndarray) -> np.ndarray:
        """Index of the nearest grid point, in Euclidean distance, to each
        row of a (rows x n_states) array of beliefs.

        Each row is scaled by ``m`` and floored; the ``deficit`` units still
        missing go to the largest remainders, and among equal remainders to
        the highest coordinate, which makes the result the lexicographically
        smallest nearest vector, i.e. the lowest canonical index, so rounding
        is schedule-independent. The work runs on the transposed (n_states x
        rows) layout with no sort: coordinate ``j`` ranks ahead of ``i`` iff
        its remainder is larger, or equal with ``j > i``, and a coordinate
        gets a unit iff fewer than ``deficit`` others rank ahead of it.

        Every row must be finite and nonnegative and sum to 1 within 1e-9
        (the floors then never sum above ``m``); the caller checks that.
        """
        beliefs = np.asarray(beliefs, dtype=np.float64)
        if beliefs.ndim != 2 or beliefs.shape[1] != self.n_states:
            raise ValueError(f"beliefs must be (rows, {self.n_states}), "
                             f"got {beliefs.shape}")
        # remainders overwrite the scaled rows; floors stay float until the
        # rank, integers exactly
        frac = np.multiply(beliefs.T, self.resolution, order="C")
        base = np.floor(frac)
        frac -= base
        deficit = self.resolution - base.sum(axis=0)
        ahead = np.zeros(base.shape, dtype=np.min_scalar_type(self.n_states))
        for i in range(self.n_states):
            later = frac[i + 1:] >= frac[i]  # each later j against i
            ahead[i] += later.sum(axis=0, dtype=ahead.dtype)
            ahead[i + 1:] += ~later
        base += ahead < deficit
        return self.rank(base.T)

    def round_to_index(self, belief: np.ndarray) -> int:
        """:meth:`round_rows` for a single belief from outside, checked:
        ``ValueError`` for a non-finite or negative entry or a sum off 1 by
        more than 1e-9 (NaN fails the first test, +inf the second)."""
        belief = np.asarray(belief, dtype=np.float64)
        if not ((belief >= 0.0).all() and abs(belief.sum() - 1.0) <= 1e-9):
            raise ValueError("belief must be finite and nonnegative, "
                             "summing to 1 within 1e-9")
        return int(self.round_rows(belief[None])[0])


@dataclass(frozen=True, eq=False)
class GeneratorGrid:
    """A finite set of candidate generators with their prior penalties.

    ``prior_penalty``, normalized to minimum zero at construction, is the
    per-step penalty on each candidate where no control picks one (that
    table is :attr:`~robusthmm.control.ControlProblem.gammas`).

    ``image_tables`` memoizes the candidates' rounded Bayes images per
    (grid, symbol) for :mod:`robusthmm.penalty`'s grid steps, and
    ``predictive`` their predictive symbol rows per grid for
    :mod:`robusthmm.expectation`'s scans; both live and die with this
    object.
    """

    candidates: tuple[Generator, ...]
    prior_penalty: np.ndarray
    image_tables: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    predictive: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

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
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "prior_penalty", pen)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def n_states(self) -> int:
        return self.candidates[0].n_states

    @property
    def n_symbols(self) -> int:
        return self.candidates[0].n_symbols
