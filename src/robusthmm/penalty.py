"""Forward propagation of penalty surfaces over beliefs.

Two representations are maintained:

* grid mode: values live on a fixed :class:`~robusthmm.models.SimplexGrid`;
  each step pushes every (cell, generator) pair through the Bayes update and
  rounds the image to the nearest cell, so the preimage of a cell is exactly
  the set of sources that map into it,
* exact-tree mode: values live on the finite set of exactly reachable
  beliefs, with no rounding; this is the ground truth that grid runs are
  measured against.

A run starts from its time-zero surface, built by
:func:`initial_grid_surface` or :func:`initial_exact_surface` (the only
readers of a scope string); :func:`evolve` and the observation tree step
either kind with the step its representation picks.

In the static-generator setting the surface is indexed by (belief, candidate)
pairs and each candidate's slice evolves on its own; in the dynamic setting
each step additionally minimizes over the candidate choice. The data-driven
("dr") framework subtracts the observation log-likelihood of each step; the
fixed-prior ("up") framework does not. Every emitted surface is renormalized
to minimum zero and the subtracted amount is recorded in the step report.

In grid mode the image of a cell, its rounded destination and the log mass
of the observed symbol depend only on (grid, candidate, symbol), never on the
surface. They are computed once per (grid, symbol), the first time a step
needs that symbol, into an :class:`ImageTable` memoized in the
:class:`~robusthmm.models.GeneratorGrid`'s ``image_tables``; the table lives
exactly as long as that object. Rounding goes through
:meth:`~robusthmm.models.SimplexGrid.round_rows`.

Each mode has one level kernel, which steps a level's surfaces on one symbol
into one (surface, :class:`StepReport`) pair per surface.
:func:`_grid_level` is a gather from the table and one sort-free
scatter-min, :func:`_reduce_candidates`, at most ``_CELL_BUDGET`` cells a
call; :func:`_exact_level` is one stacked Bayes update per candidate, with
the bytes of :func:`~robusthmm.hmm.filter_step`, and one sort-merge,
:func:`_merge_rows`, which also merges an exact prior (the grid step keeps
its rule, least value and ties to the lowest (source, candidate) pair,
without the sort). :func:`step_level` picks the kernel for a tree level or
control's new triples; :func:`forward_image_step` and :func:`exact_step`
are the one-surface cases, which :func:`evolve_steps` yields one at a time.

Surface CSVs on one grid share their header and every row's leading columns
(integer coordinates, belief coordinates and, in the static scope, the
candidate), and an excluded row with no provenance reads the same on every
surface of the grid. That text is built once per (grid, candidate axis)
into a :class:`RowText` of object arrays memoized in the grid's
``row_text``, which lives as long as the grid. :func:`render_surface_csv`
renders a batch on one grid in one array pass: it copies excluded lines and
joins each live row (a value other than ``inf``, or argmin provenance) from
its prefix, value and provenance, each distinct float formatted once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapExceeded, InfeasibleSurface
from .models import (DR, DYNAMIC, STATIC, UP, GeneratorGrid, SimplexGrid,
                     normalize_penalties)

EXACT_CAP = 10 ** 6  # admitted (row, candidate) pairs of one exact surface
_CELL_BUDGET = 8192  # (surface, candidate, cell) triples per kernel call


@dataclass(frozen=True, eq=False)
class PenaltySurface:
    """Penalty per grid cell (dynamic-generator scope)."""

    grid: SimplexGrid
    values: np.ndarray
    time: int

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.shape != (len(self.grid),):
            raise ValueError("one value per grid point required")
        _check_normalized(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class ExtendedPenaltySurface:
    """Penalty per (grid cell, candidate) pair (static-generator scope)."""

    grid: SimplexGrid
    gens: GeneratorGrid
    values: np.ndarray
    time: int

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.shape != (len(self.grid), len(self.gens)):
            raise ValueError("values must be (n_points, n_candidates)")
        _check_normalized(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class ExactSurface:
    """Penalty on exactly tracked beliefs; ``gen_ids`` is present iff the
    generator scope is static (one row per tracked (belief, candidate))."""

    beliefs: np.ndarray
    values: np.ndarray
    gen_ids: np.ndarray | None
    time: int

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.beliefs, dtype=np.float64)) + 0.0
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if b.ndim != 2 or v.shape != (b.shape[0],):
            raise ValueError("beliefs must be (n, N) with one value per row")
        g = self.gen_ids
        if g is not None:
            g = np.ascontiguousarray(np.asarray(g, dtype=np.int64))
            if g.shape != v.shape:
                raise ValueError("one generator id per row required")
            g.flags.writeable = False
        _check_normalized(v)
        b.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "beliefs", b)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gen_ids", g)

    def __len__(self) -> int:
        return len(self.values)

    def as_lookup(self) -> dict:
        """Mapping (belief bytes[, gen id]) -> value, for comparisons."""
        if self.gen_ids is None:
            return {b.tobytes(): float(v)
                    for b, v in zip(self.beliefs, self.values)}
        return {(int(g), b.tobytes()): float(v)
                for g, b, v in zip(self.gen_ids, self.beliefs, self.values)}


class StepReport(NamedTuple):
    """Bookkeeping for one forward step: the normalization subtracted, the
    count of unreachable cells, and per-cell argmin provenance. A named
    tuple, as a level kernel builds one per surface."""

    time: int
    m_t: float
    infeasible_cells: int
    argmin_src: np.ndarray
    argmin_gen: np.ndarray


def _check_normalized(values: np.ndarray) -> None:
    """Every entry is >= 0 or ``+inf`` (no NaN, no negative value), and the
    least finite entry, if any, is within 1e-12 of zero."""
    if not (values >= 0).all():
        raise ValueError("surface values must be >= 0 or +inf")
    finite = values[np.isfinite(values)]
    if finite.size and finite.min() > 1e-12:
        raise ValueError("surface is not normalized to minimum zero")


def _merge_rows(ident: np.ndarray, values: np.ndarray, *ties: np.ndarray):
    """The merge rule: rows that agree in every key of the (keys x rows)
    array ``ident`` are one, at their least ``values`` entry; equal values
    go to the row lowest in ``ties``. Returns the kept rows' indices sorted
    by the keys; in ``ident`` and ``ties`` alike the last key is the most
    significant, as in the one ``np.lexsort``."""
    order = np.lexsort((*ties, values, *ident))
    ident = ident[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ident[:, 1:] != ident[:, :-1]).any(axis=0)
    return order[first]


def initial_grid_surface(values, gens: GeneratorGrid, grid: SimplexGrid,
                         scope: str):
    """Time-zero surface on ``grid`` from one initial penalty per grid point
    (``inf`` marks excluded beliefs): a :class:`PenaltySurface` in the
    dynamic generator scope, an :class:`ExtendedPenaltySurface` carrying
    ``gens.prior_penalty`` per candidate in the static one. The values are
    normalized to minimum zero before the candidate axis is added, and the
    static surface again after."""
    if scope not in (STATIC, DYNAMIC):
        raise ValueError(f"bad scope {scope!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(grid),):
        raise ValueError("one initial value per grid point required")
    values = normalize_penalties(values)
    if scope == DYNAMIC:
        return PenaltySurface(grid=grid, values=values, time=0)
    values = values[:, None] + gens.prior_penalty[None, :]
    return ExtendedPenaltySurface(grid=grid, gens=gens,
                                  values=normalize_penalties(values), time=0)


def initial_exact_surface(beliefs, values, gens: GeneratorGrid,
                          scope: str) -> ExactSurface:
    """Time-zero surface on a finite set of exact beliefs (no grid), one
    initial penalty per row.

    The values are normalized to minimum zero, and rows whose beliefs
    coincide bit-for-bit are merged at their least penalty, in canonical
    belief order, by the exact step's rule, :func:`_merge_rows`. The static
    scope then tracks one row per (belief, candidate) at
    ``gens.prior_penalty`` and normalizes again.
    """
    if scope not in (STATIC, DYNAMIC):
        raise ValueError(f"bad scope {scope!r}")
    b = np.asarray(beliefs, dtype=np.float64) + 0.0
    v = normalize_penalties(np.asarray(values, dtype=np.float64))
    if b.ndim != 2 or v.shape != (b.shape[0],):
        raise ValueError("beliefs must be (n, N) with one value per row")
    keep = _merge_rows(b.T[::-1], v, np.arange(len(v)))
    b, v = b[keep], v[keep]
    if scope == DYNAMIC:
        return ExactSurface(beliefs=b, values=v, gen_ids=None, time=0)
    n, g = len(v), len(gens)
    gen_ids = np.tile(np.arange(g, dtype=np.int64), n)
    values = (v[:, None] + gens.prior_penalty[None, :]).ravel()
    return ExactSurface(beliefs=np.repeat(b, g, axis=0),
                        values=normalize_penalties(values), gen_ids=gen_ids,
                        time=0)


def _static(surface) -> bool:
    """Whether a surface carries a candidate axis (static scope)."""
    return (isinstance(surface, ExtendedPenaltySurface)
            or (isinstance(surface, ExactSurface)
                and surface.gen_ids is not None))


def _candidate_penalties(surfaces, gens: GeneratorGrid,
                         gammas: np.ndarray | None):
    """The scope rule: which candidates may follow each belief of a stack of
    grid surfaces on one grid, or of exact surfaces, and at what penalty.

    Returns the beliefs and a (surfaces x candidates x beliefs) array of
    continuation penalties; a stack of exact surfaces is one surface of
    their rows, one after the other. In the dynamic scope every candidate
    may follow every belief, at the belief's penalty plus the candidate's
    per-step ``gammas``; a sum beyond the float64 range is ``inf``, so that
    continuation is excluded as under an ``inf`` gamma. In the static scope
    a row continues under its own candidate only, at its own penalty, and
    is ``inf`` under every other; ``gammas`` must then be None.
    """
    static = _static(surfaces[0])
    if static and gammas is not None:
        raise ValueError("static scope takes no per-step penalties")
    if not static and gammas is None:
        raise ValueError("dynamic scope needs per-candidate penalties")
    if not isinstance(surfaces[0], ExactSurface):
        values = np.array([s.values for s in surfaces])
        if static:
            return surfaces[0].grid.points, values.transpose(0, 2, 1)
        beliefs = surfaces[0].grid.points
    else:
        beliefs = np.concatenate([s.beliefs for s in surfaces])
        values = np.concatenate([s.values for s in surfaces])
        if static:
            gen_ids = np.concatenate([s.gen_ids for s in surfaces])
            before = np.full((1, len(gens), len(values)), np.inf)
            before[0, gen_ids, np.arange(len(values))] = values
            return beliefs, before
        values = values[None]
    with np.errstate(over="ignore"):
        return beliefs, values[:, None, :] + np.asarray(gammas, float)[:, None]


def _blocks(surfaces, width: int):
    """Slices of one level's surfaces per kernel call: an exact surface
    alone, grid surfaces ``width`` cells each within ``_CELL_BUDGET``."""
    step = (1 if isinstance(surfaces[0], ExactSurface)
            else max(1, _CELL_BUDGET // width))
    return [slice(i, i + step) for i in range(0, len(surfaces), step)]


def _default_gammas(surface, gens: GeneratorGrid) -> np.ndarray | None:
    """The per-step penalties a surface's scope takes when no control picks
    them: the grid's stationary prior in the dynamic scope, None in the
    static one."""
    return None if _static(surface) else gens.prior_penalty


def _gen_images(grid: SimplexGrid, gen, y: int):
    """Bayes images and symbol masses of every grid point under one
    candidate; rows with zero mass are flagged dead."""
    pred = grid.points @ gen.transition.T
    mass = pred @ gen.emission[:, y]
    alive = mass > 0.0
    posts = np.zeros_like(pred)
    posts[alive] = (pred[alive] * gen.emission[None, :, y]) / mass[alive, None]
    return posts, mass, alive


@dataclass(frozen=True, eq=False)
class ImageTable:
    """Where every (candidate, grid cell) pair goes on one symbol: rows are
    candidates, columns are source cells. ``dest`` is the cell nearest the
    Bayes image (-1 where the symbol has zero mass, ``alive`` false) and
    ``logmass`` the log of the symbol's mass (-inf where dead)."""

    alive: np.ndarray
    dest: np.ndarray
    logmass: np.ndarray


def _image_table(gens: GeneratorGrid, grid: SimplexGrid, y: int) -> ImageTable:
    """The image table of ``gens`` on ``grid`` for symbol ``y``, built on
    first use and memoized on ``gens`` (the images do not depend on the
    surface being stepped)."""
    table = gens.image_tables.get((grid, y))
    if table is None:
        posts, mass, alive = map(np.array, zip(*(
            _gen_images(grid, gen, y) for gen in gens.candidates)))
        dest = np.full(alive.shape, -1, dtype=np.int64)
        logmass = np.full(alive.shape, -np.inf)
        # one rounding call for every candidate: rows round independently
        dest[alive] = grid.round_rows(posts[alive])
        logmass[alive] = np.log(mass[alive])
        for arr in (alive, dest, logmass):
            arr.flags.writeable = False
        table = ImageTable(alive=alive, dest=dest, logmass=logmass)
        gens.image_tables[(grid, y)] = table
    return table


def _reduce_candidates(dest, vals, srcs, gids, n_keys, n_gens):
    """Deterministic min-reduction per destination key, with no sort: a
    scatter-min of the values, then a scatter-min of ``src * n_gens + gid``
    over the entries that reach their key's least value, so ties (``-0.0``
    tying ``0.0``) go to the lowest (source, candidate) pair; each key then
    keeps its winner's own value, sign of zero included."""
    out = np.full(n_keys, np.inf)
    np.minimum.at(out, dest, vals)
    hit = np.flatnonzero(vals == out[dest])
    at, pair = dest[hit], srcs[hit] * n_gens + gids[hit]
    best = np.full(n_keys, np.iinfo(np.int64).max)
    np.minimum.at(best, at, pair)
    win = hit[pair == best[at]]
    at = dest[win]
    out[at] = vals[win]
    out_src = np.full(n_keys, -1, dtype=np.int64)
    out_gen = np.full(n_keys, -1, dtype=np.int64)
    out_src[at], out_gen[at] = srcs[win], gids[win]
    return out, out_src, out_gen


def _grid_level(surfaces, gens: GeneratorGrid, gammas: np.ndarray | None,
                y: int, framework: str) -> list:
    """The grid level kernel: surfaces on one grid stepped on symbol ``y``
    into one (surface, :class:`StepReport`) pair each. A call of at most
    ``_CELL_BUDGET`` (surface, candidate, cell) triples is one gather from
    the image table, one :func:`_reduce_candidates` keyed on ``row * size +
    dest`` (``dest`` a (cell, candidate) key in the static scope) and a
    per-row normalization."""
    if framework not in (UP, DR):
        raise ValueError(f"bad framework {framework!r}")
    src = surfaces[0]
    if not isinstance(src, (PenaltySurface, ExtendedPenaltySurface)):
        raise TypeError(f"unsupported surface type {type(src).__name__}")
    grid, n_gens, shape = src.grid, len(gens), src.values.shape
    size = src.values.size
    table = _image_table(gens, grid, y)
    out = []
    for block in _blocks(surfaces, n_gens * len(grid)):
        chunk = surfaces[block]
        before = _candidate_penalties(chunk, gens, gammas)[1]
        rows, gids, srcs = np.nonzero(table.alive & np.isfinite(before))
        vals = before[rows, gids, srcs]
        if framework == DR:
            vals = vals - table.logmass[gids, srcs]
        dest = table.dest[gids, srcs]
        if _static(chunk[0]):
            dest = dest * n_gens + gids
        best, out_src, out_gen = (a.reshape(len(chunk), *shape) for a in
                                  _reduce_candidates(rows * size + dest, vals,
                                                     srcs, gids,
                                                     len(chunk) * size,
                                                     n_gens))
        time = chunk[0].time + 1
        values, m_t = _normalize_rows(best.reshape(len(chunk), size), time)
        infeasible = np.isinf(values).sum(axis=1).tolist()
        out.extend((replace(s, values=v, time=time),
                    StepReport(time=time, m_t=m, infeasible_cells=n,
                               argmin_src=a, argmin_gen=g))
                   for s, v, m, n, a, g in zip(
                       chunk, values.reshape(best.shape), m_t.tolist(),
                       infeasible, out_src, out_gen))
    return out


def forward_image_step(src, gens: GeneratorGrid,
                       gammas: np.ndarray | None, y: int, framework: str):
    """Push a grid surface one step forward after observing symbol ``y``:
    the one-surface case of the level kernel :func:`_grid_level`. Returns
    the updated surface of the same kind and a :class:`StepReport`."""
    return _grid_level([src], gens, gammas, y, framework)[0]


def step_level(surfaces, gens: GeneratorGrid, gammas: np.ndarray | None,
               framework: str) -> list:
    """Each surface's children, one per symbol: the level goes through its
    kernel, :func:`_exact_level` or :func:`_grid_level`, once per symbol."""
    kernel = (_exact_level if isinstance(surfaces[0], ExactSurface)
              else _grid_level)
    return [list(kids) for kids in zip(*(
        [child for child, _ in kernel(surfaces, gens, gammas, y, framework)]
        for y in range(gens.n_symbols)))]


def _normalize_rows(values: np.ndarray, time: int):
    """Each row less its least entry, and those minima; every entry is
    finite or ``+inf``, and an all-``inf`` row is infeasible. A zero
    minimum is read off the row's compacted finite entries, whose order
    picks its sign when the row holds both ``0.0`` and ``-0.0``."""
    m_t = values.min(axis=1)
    if m_t.max() == np.inf:
        raise InfeasibleSurface(
            f"observation at step {time} impossible under every model")
    for r in np.flatnonzero(m_t == 0):
        m_t[r] = values[r][np.isfinite(values[r])].min()
    return values - m_t[:, None], m_t


def _exact_level(surfaces, gens: GeneratorGrid, gammas: np.ndarray | None,
                 y: int, framework: str) -> list:
    """The exact level kernel: exact surfaces of one scope stepped on symbol
    ``y`` with no rounding, at most ``EXACT_CAP`` admitted (row, candidate)
    pairs a surface, into one (surface, :class:`StepReport`) pair each.

    Per candidate, one stacked product ``T[None] @ B[:, :, None]`` updates
    every admitted row bit for bit as the per-row ``T @ b`` of
    :func:`~robusthmm.hmm.filter_step`; log masses are ``math.log``'s. One
    :func:`_merge_rows` keyed on (surface, candidate in the static scope,
    belief) then merges coincident beliefs, ties going to the lowest (row,
    candidate) pair, and orders each surface's rows. Merging early is exact
    because equal beliefs evolve identically.
    """
    if framework not in (UP, DR):
        raise ValueError(f"bad framework {framework!r}")
    beliefs, (before,) = _candidate_penalties(surfaces, gens, gammas)
    sizes = [len(s) for s in surfaces]
    owner = np.repeat(np.arange(len(surfaces)), sizes)
    live = np.isfinite(before)
    gids, rows = np.nonzero(live)
    n_new = np.bincount(owner[rows], minlength=len(surfaces)).tolist()
    for src, n in zip(surfaces, n_new):
        if n > EXACT_CAP:
            raise CapExceeded(f"{n} tracked beliefs at step {src.time + 1} "
                              f"would exceed the cap of {EXACT_CAP}")
    weighted = np.concatenate([
        gen.emission[:, y] * (gen.transition[None]
                              @ beliefs[live[g]][:, :, None])[..., 0]
        for g, gen in enumerate(gens.candidates)])
    mass = weighted.sum(axis=1)
    alive = mass > 0.0
    gids, rows, mass = gids[alive], rows[alive], mass[alive]
    posts = weighted[alive] / mass[:, None] + 0.0
    values = before[gids, rows]
    if framework == DR:
        values = values - np.array([log(m) for m in mass.tolist()])
    static = _static(surfaces[0])
    keys = [*posts.T[::-1], *([gids] if static else []), owner[rows]]
    keep = _merge_rows(np.array(keys), values, gids, rows)
    parts = np.split(keep, np.searchsorted(owner[rows[keep]],
                                           range(1, len(surfaces))))
    out = []
    for src, first, k in zip(surfaces, np.cumsum([0] + sizes).tolist(), parts):
        time = src.time + 1
        if not k.size:
            raise InfeasibleSurface(
                f"observation at step {time} impossible under every model")
        (vals,), (m_t,) = _normalize_rows(values[k][None], time)
        out.append((ExactSurface(beliefs=posts[k], values=vals,
                                 gen_ids=gids[k] if static else None,
                                 time=time),
                    StepReport(time=time, m_t=float(m_t), infeasible_cells=0,
                               argmin_src=rows[k] - first,
                               argmin_gen=gids[k])))
    return out


def exact_step(src: ExactSurface, gens: GeneratorGrid,
               gammas: np.ndarray | None, y: int, framework: str):
    """One forward step on exactly tracked beliefs (no rounding): the
    one-surface case of the level kernel :func:`_exact_level`."""
    return _exact_level([src], gens, gammas, y, framework)[0]


def evolve_steps(surface, gens: GeneratorGrid, obs: Sequence[int],
                 framework: str):
    """Propagate an initial surface through a whole observation sequence at
    its scope's default per-step penalties, yielding (surface, report) per
    step, time zero first with report None; no earlier step is kept. Grid
    surfaces go through :func:`forward_image_step`, exact ones through
    :func:`exact_step`."""
    step = (exact_step if isinstance(surface, ExactSurface)
            else forward_image_step)
    gammas = _default_gammas(surface, gens)
    yield surface, None
    for y in obs:
        surface, report = step(surface, gens, gammas, int(y), framework)
        yield surface, report


def evolve(surface, gens: GeneratorGrid, obs: Sequence[int], framework: str):
    """Every surface of :func:`evolve_steps` and the per-step reports."""
    surfaces, reports = zip(*evolve_steps(surface, gens, obs, framework))
    return list(surfaces), list(reports[1:])


def _rows(surface):
    """Canonically ordered (beliefs, penalties, gen_ids) of any surface:
    cell-major, candidate-minor; ``gen_ids`` is None on surfaces that carry
    no candidate axis."""
    if isinstance(surface, PenaltySurface):
        return surface.grid.points, surface.values, None
    if isinstance(surface, ExtendedPenaltySurface):
        n_gens = len(surface.gens)
        beliefs = np.repeat(surface.grid.points, n_gens, axis=0)
        gen_ids = np.tile(np.arange(n_gens, dtype=np.int64), len(surface.grid))
        return beliefs, surface.values.ravel(), gen_ids
    if isinstance(surface, ExactSurface):
        return surface.beliefs, surface.values, surface.gen_ids
    raise TypeError(f"unsupported surface type {type(surface).__name__}")


@dataclass(frozen=True, eq=False)
class RowText:
    """A grid surface's CSV text fixed by the grid and candidate axis: the
    header; per row of :func:`_rows`, its columns before ``value`` and its
    excluded line; ``src``, the text ``,k,`` of source ids -1, 0, ..."""

    header: str
    prefixes: np.ndarray
    excluded: np.ndarray
    src: np.ndarray


def _row_text(surface) -> RowText:
    """The :class:`RowText` of a grid surface, built on first use and
    memoized in its grid's ``row_text``, keyed by a static surface's
    candidate count and by None on a dynamic one (no ``gen`` column)."""
    if not isinstance(surface, (PenaltySurface, ExtendedPenaltySurface)):
        raise TypeError(f"unsupported surface type {type(surface).__name__}")
    n_gens = len(surface.gens) if _static(surface) else None
    text = surface.grid.row_text.get(n_gens)
    if text is None:
        text = _build_row_text(surface.grid, n_gens)
        surface.grid.row_text[n_gens] = text
    return text


def _build_row_text(grid: SimplexGrid, n_gens: int | None) -> RowText:
    n, m = grid.n_states, grid.resolution
    names = [f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
    # each coordinate k's two strings (``points`` holds k / m), joined once
    pieces = np.array([[f"{k},", f"{k / m!r},"] for k in range(m + 1)],
                      dtype=object)[grid.coords].transpose(0, 2, 1)
    rows = np.full((len(grid), 2 * n + 1), "\n", dtype=object)
    rows[:, :-1] = pieces.reshape(len(grid), -1)
    cells = np.array("".join(rows.ravel().tolist()).split("\n")[:-1], object)
    if n_gens is not None:
        names.append("gen")
        cells = (cells[:, None] + np.array(
            [f"{g}," for g in range(n_gens)], dtype=object)).ravel()
    header = ",".join(names + ["value", "src_point", "src_gen"]) + "\n"
    src = np.array([f",{k}," for k in range(-1, len(grid))], dtype=object)
    return RowText(header=header, prefixes=cells,
                   excluded=cells + "inf,-1,-1\n", src=src)


def _id_text(ids: np.ndarray, form: str, table=()) -> np.ndarray:
    """``form.format(k)`` of each id k, from ``table`` (ids -1, 0, ...) or
    one made up to the largest id, else id by id (hand-built reports)."""
    lo, hi = ids.min(initial=-1), ids.max(initial=-1)
    if lo < -1 or hi >= max(len(table) - 1, ids.size):
        return np.array([form.format(k) for k in ids.tolist()], object)
    if hi >= len(table) - 1:
        table = np.array([form.format(k) for k in range(-1, hi + 1)], object)
    return table[ids + 1]


def _exact_csv(surface: ExactSurface) -> str:
    beliefs, values, gen_ids = _rows(surface)
    gen_ids = np.full(len(values), -1) if gen_ids is None else gen_ids
    rows = zip(*beliefs.T.tolist(), gen_ids.tolist(), values.tolist())
    names = [f"p{i}" for i in range(beliefs.shape[1])] + ["gen", "value"]
    return "\n".join([",".join(names), *map(",".join, (
        map(repr, row) for row in rows))]) + "\n"


def render_surface_csv(surfaces, reports=None) -> list[str]:
    """CSV text of each surface (a batch on one grid and candidate axis,
    or exact surfaces), one line per row of :func:`_rows`; ``reports`` is
    None or one :class:`StepReport` or None per surface.

    Columns: integer coordinates (grid surfaces), belief coordinates, the
    candidate (surfaces other than :class:`PenaltySurface`; -1 on an exact
    dynamic one), the penalty value (``inf`` for excluded cells), and argmin
    provenance (grid surfaces; -1 without a report). A grid batch is one
    array pass over the grid's :class:`RowText`: a row with a value other
    than ``inf`` or provenance other than -1 joins its prefix, value and
    provenance, each distinct float bit pattern formatted once (``-0.0``
    apart from ``0.0``); any other row is its excluded line."""
    if isinstance(surfaces[0], ExactSurface):
        return [_exact_csv(s) for s in surfaces]
    text = _row_text(surfaces[0])
    values = np.concatenate([s.values.ravel() for s in surfaces])
    n_rows = len(text.excluded)
    live = values != np.inf
    if reports is not None:  # (src, gen) ids of every row, -1 where unset
        ids = np.concatenate([np.full((2, n_rows), -1) if r is None else
                              (r.argmin_src.ravel(), r.argmin_gen.ravel())
                              for r in reports], axis=1)
        live |= (ids[0] != -1) | (ids[1] != -1)
    at = np.flatnonzero(live)
    bits, where = np.unique(values[at].view(np.int64), return_inverse=True)
    floats = np.array(list(map(repr, bits.view(np.float64).tolist())), object)
    if reports is None:  # no provenance: one tail per distinct value
        tails = (floats + ",-1,-1\n")[where]
    else:
        tails = (floats[where] + _id_text(ids[0, at], ",{},", text.src)
                 + _id_text(ids[1, at], "{}\n"))
    lines = np.empty((len(surfaces), 1 + n_rows), dtype=object)
    lines[:, 0] = text.header
    lines[:, 1:] = text.excluded
    lines.ravel()[at + at // n_rows + 1] = text.prefixes[at % n_rows] + tails
    return ["".join(line) for line in lines.tolist()]
