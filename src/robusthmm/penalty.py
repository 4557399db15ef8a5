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
exactly as long as that object, and every step is a gather from it plus one
scatter-min. Rounding goes through
:meth:`~robusthmm.models.SimplexGrid.round_rows`, which raises ``ValueError``
on a belief with a non-finite or negative entry or a sum off 1 by more than
1e-9.

Surface CSVs on one grid share their header and every row's leading columns
(integer coordinates, belief coordinates and, in the static scope, the
candidate), and an excluded row with no provenance reads the same on every
surface of the grid. That text (header, leading columns, whole excluded
lines) is formatted once per (grid, candidate axis) into a :class:`RowText`
memoized in the grid's ``row_text``, which lives exactly as long as the
:class:`~robusthmm.models.SimplexGrid` object; rendering a grid surface then
copies the excluded lines and formats only its live rows, those with a value
other than ``inf`` or with argmin provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import log
from typing import Sequence

import numpy as np

from .errors import CapExceeded, InfeasibleSurface
from .models import (DR, DYNAMIC, STATIC, UP, GeneratorGrid, SimplexGrid,
                     gamma_at, normalize_penalties)

EXACT_CAP_DEFAULT = 10 ** 6


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


@dataclass(frozen=True)
class StepReport:
    """Bookkeeping for one forward step: the normalization subtracted, the
    count of unreachable cells, and per-cell argmin provenance."""

    time: int
    m_t: float
    infeasible_cells: int
    argmin_src: np.ndarray
    argmin_gen: np.ndarray


def _check_normalized(values: np.ndarray, atol: float = 1e-12) -> None:
    """Every entry is >= 0 or ``+inf`` (no NaN, no negative value), and the
    least finite entry, if any, is within ``atol`` of zero."""
    if not (values >= 0).all():
        raise ValueError("surface values must be >= 0 or +inf")
    finite = values[np.isfinite(values)]
    if finite.size and finite.min() > atol:
        raise ValueError("surface is not normalized to minimum zero")


def _belief_order(beliefs: np.ndarray, gen_ids: np.ndarray | None = None):
    keys = [beliefs[:, i] for i in range(beliefs.shape[1] - 1, -1, -1)]
    if gen_ids is not None:
        keys.append(gen_ids)
    return np.lexsort(tuple(keys))


def project(initial, grid: SimplexGrid, time: int = 0) -> PenaltySurface:
    """Normalize initial penalty values, one per grid point, to minimum
    zero."""
    values = np.asarray(initial, dtype=np.float64)
    if values.shape != (len(grid),):
        raise ValueError("one initial value per grid point required")
    return PenaltySurface(grid=grid, values=normalize_penalties(values),
                          time=time)


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
    surface = project(values, grid)
    if scope == DYNAMIC:
        return surface
    values = surface.values[:, None] + gens.prior_penalty[None, :]
    return ExtendedPenaltySurface(grid=grid, gens=gens,
                                  values=normalize_penalties(values), time=0)


def initial_exact_surface(beliefs, values, gens: GeneratorGrid,
                          scope: str) -> ExactSurface:
    """Time-zero surface on a finite set of exact beliefs (no grid), one
    initial penalty per row.

    The values are normalized to minimum zero, rows whose beliefs coincide
    bit-for-bit are merged at their least penalty, and the rows are put in
    canonical belief order. The static scope then tracks one row per
    (belief, candidate) at ``gens.prior_penalty`` and normalizes again.
    """
    if scope not in (STATIC, DYNAMIC):
        raise ValueError(f"bad scope {scope!r}")
    b = np.asarray(beliefs, dtype=np.float64) + 0.0
    v = normalize_penalties(np.asarray(values, dtype=np.float64))
    if b.ndim != 2 or v.shape != (b.shape[0],):
        raise ValueError("beliefs must be (n, N) with one value per row")
    merged: dict[bytes, tuple] = {}
    for row, val in zip(b, v.tolist()):
        hit = merged.get(row.tobytes())
        if hit is None or val < hit[1]:
            merged[row.tobytes()] = (row, val)
    b = np.array([row for row, _ in merged.values()])
    v = np.array([val for _, val in merged.values()])
    order = _belief_order(b)
    b, v = b[order], v[order]
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


def _candidate_penalties(surface, gens: GeneratorGrid,
                         gammas: np.ndarray | None):
    """The scope rule: which candidates may follow each belief of a surface,
    and at what penalty.

    Returns the surface's beliefs and a (candidates x beliefs) matrix of
    continuation penalties. In the dynamic scope every candidate may follow
    every belief, at the belief's penalty plus the candidate's per-step
    ``gammas``; a sum beyond the float64 range is ``inf``, so that
    continuation is excluded as under an ``inf`` gamma. In the static scope
    a row continues under its own candidate only, at its own penalty, and
    is ``inf`` under every other; ``gammas`` must then be None.
    """
    static = _static(surface)
    if static and gammas is not None:
        raise ValueError("static scope takes no per-step penalties")
    if not static and gammas is None:
        raise ValueError("dynamic scope needs per-candidate penalties")
    if isinstance(surface, ExtendedPenaltySurface):
        return surface.grid.points, surface.values.T
    beliefs, values, gen_ids = _rows(surface)
    if not static:
        with np.errstate(over="ignore"):
            return beliefs, values[None, :] + np.asarray(gammas, float)[:, None]
    before = np.full((len(gens), len(values)), np.inf)
    before[gen_ids, np.arange(len(values))] = values
    return beliefs, before


def _default_gammas(surface, gens: GeneratorGrid) -> np.ndarray | None:
    """The per-step penalties a surface's scope takes when no control picks
    them: the grid's stationary prior in the dynamic scope, None in the
    static one."""
    return None if _static(surface) else gamma_at(gens)


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
        shape = (len(gens), len(grid))
        alive = np.zeros(shape, dtype=bool)
        dest = np.full(shape, -1, dtype=np.int64)
        logmass = np.full(shape, -np.inf)
        for g, gen in enumerate(gens.candidates):
            posts, mass, alive[g] = _gen_images(grid, gen, y)
            dest[g, alive[g]] = grid.round_rows(posts[alive[g]])
            logmass[g, alive[g]] = np.log(mass[alive[g]])
        for arr in (alive, dest, logmass):
            arr.flags.writeable = False
        table = ImageTable(alive=alive, dest=dest, logmass=logmass)
        gens.image_tables[(grid, y)] = table
    return table


def _reduce_candidates(dest, vals, srcs, gids, n_keys):
    """Deterministic min-reduction per destination key.

    Candidates are ordered by (destination, value, source, candidate) so the
    winner on ties is always the lowest (source, candidate) pair.
    """
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


def forward_image_step(src, gens: GeneratorGrid,
                       gammas: np.ndarray | None, y: int, framework: str):
    """Push a grid surface one step forward after observing symbol ``y``.

    Returns the updated surface of the same kind and a :class:`StepReport`.
    Every live (candidate, cell) pair that :func:`_candidate_penalties`
    admits is pushed to the cell nearest its Bayes image: a gather from the
    image table plus :func:`_reduce_candidates`. Generator scope is carried
    by the surface type: a plain :class:`PenaltySurface` (``gammas``
    required) reduces each destination cell across candidates, an
    :class:`ExtendedPenaltySurface` (``gammas`` omitted) keeps the candidate
    axis and reduces per (destination cell, candidate) key.
    """
    if framework not in (UP, DR):
        raise ValueError(f"bad framework {framework!r}")
    if not isinstance(src, (PenaltySurface, ExtendedPenaltySurface)):
        raise TypeError(f"unsupported surface type {type(src).__name__}")
    table = _image_table(gens, src.grid, y)
    before = _candidate_penalties(src, gens, gammas)[1]
    gids, srcs = np.nonzero(table.alive & np.isfinite(before))
    vals = before[gids, srcs]
    if framework == DR:
        vals = vals - table.logmass[gids, srcs]
    dest = table.dest[gids, srcs]
    if _static(src):
        dest = dest * len(gens) + gids
    out, out_src, out_gen = (a.reshape(src.values.shape) for a in
                             _reduce_candidates(dest, vals, srcs, gids,
                                                src.values.size))
    values, m_t = _normalize_step(out, src.time + 1)
    surface = replace(src, values=values, time=src.time + 1)
    report = StepReport(time=src.time + 1, m_t=m_t,
                        infeasible_cells=int(np.isinf(values).sum()),
                        argmin_src=out_src, argmin_gen=out_gen)
    return surface, report


def _normalize_step(values: np.ndarray, time: int):
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise InfeasibleSurface(
            f"observation at step {time} impossible under every model")
    m_t = float(finite.min())
    return values - m_t, m_t


def exact_step(src: ExactSurface, gens: GeneratorGrid,
               gammas: np.ndarray | None, y: int, framework: str,
               cap: int = EXACT_CAP_DEFAULT):
    """One forward step on exactly tracked beliefs (no rounding).

    Beliefs that coincide bit-for-bit are merged by taking the minimal
    penalty; merging early is exact because equal beliefs evolve identically.
    """
    if framework not in (UP, DR):
        raise ValueError(f"bad framework {framework!r}")
    beliefs, before = _candidate_penalties(src, gens, gammas)
    n_new = int(np.isfinite(before).sum())
    if n_new > cap:
        raise CapExceeded(f"{n_new} tracked beliefs would exceed the cap of {cap}")
    static = _static(src)
    merged: dict = {}
    # rows outer, candidates inner: ties keep the lowest (row, candidate)
    rows, cands = np.nonzero(np.isfinite(before.T))
    for r, g in zip(rows.tolist(), cands.tolist()):
        gen = gens.candidates[g]
        pred = gen.transition @ beliefs[r]
        weighted = gen.emission[:, y] * pred
        mass = weighted.sum()
        if mass <= 0.0:
            continue
        post = weighted / mass + 0.0
        cand = before[g, r]
        if framework == DR:
            cand = cand - log(mass)
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
    order = _belief_order(beliefs, gen_ids if static else None)
    beliefs, values = beliefs[order], values[order]
    parents, gen_ids = parents[order], gen_ids[order]
    values, m_t = _normalize_step(values, src.time + 1)
    surface = ExactSurface(beliefs=beliefs, values=values,
                           gen_ids=gen_ids if static else None,
                           time=src.time + 1)
    report = StepReport(time=src.time + 1, m_t=m_t, infeasible_cells=0,
                        argmin_src=parents, argmin_gen=gen_ids)
    return surface, report


def _step_for(surface, cap: int = EXACT_CAP_DEFAULT):
    """The one-step propagator of a surface's representation, called as
    ``step(surface, gens, gammas, y, framework)``: :func:`exact_step`,
    bounded by ``cap``, on an :class:`ExactSurface`, and
    :func:`forward_image_step` on a grid surface."""
    if isinstance(surface, ExactSurface):
        return partial(exact_step, cap=cap)
    return forward_image_step


def evolve(surface, gens: GeneratorGrid, obs: Sequence[int], framework: str,
           cap: int = EXACT_CAP_DEFAULT):
    """Propagate an initial surface through a whole observation sequence at
    its scope's default per-step penalties.

    Returns the list of surfaces (including time zero) and the per-step
    reports. Grid surfaces are stepped on their grid, exact ones on exactly
    tracked beliefs with at most ``cap`` candidate rows a step.
    """
    step = _step_for(surface, cap)
    gammas = _default_gammas(surface, gens)
    surfaces, reports = [surface], []
    for y in obs:
        surface, report = step(surface, gens, gammas, int(y), framework)
        surfaces.append(surface)
        reports.append(report)
    return surfaces, reports


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
    """The text of a grid surface's CSV that depends only on the grid and
    the candidate axis: the header line and, for each row of :func:`_rows`,
    its columns before ``value``, each with its trailing separator, and its
    whole line as an excluded row with no provenance."""

    header: str
    prefixes: tuple[str, ...]
    excluded: tuple[str, ...]


def _row_text(surface) -> RowText:
    """The :class:`RowText` of a grid surface, built on first use and
    memoized in its grid's ``row_text``; the key is the candidate count of
    a static surface and None on a dynamic one, which has no ``gen``
    column."""
    if isinstance(surface, PenaltySurface):
        n_gens = None
    elif isinstance(surface, ExtendedPenaltySurface):
        n_gens = len(surface.gens)
    else:
        raise TypeError(f"unsupported surface type {type(surface).__name__}")
    text = surface.grid.row_text.get(n_gens)
    if text is None:
        text = _build_row_text(surface.grid, n_gens)
        surface.grid.row_text[n_gens] = text
    return text


def _build_row_text(grid: SimplexGrid, n_gens: int | None) -> RowText:
    n = grid.n_states
    names = [f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
    cells = [",".join(map(repr, row)) + ","
             for row in zip(*grid.coords.T.tolist(), *grid.points.T.tolist())]
    if n_gens is not None:
        names.append("gen")
        cells = [f"{cell}{g}," for cell in cells for g in range(n_gens)]
    header = ",".join(names + ["value", "src_point", "src_gen"]) + "\n"
    return RowText(header=header, prefixes=tuple(cells),
                   excluded=tuple(f"{cell}inf,-1,-1\n" for cell in cells))


def render_surface_csv(surface, report: StepReport | None = None) -> str:
    """CSV text for one surface, one line per row of :func:`_rows`.

    Columns: integer coordinates (grid surfaces), belief coordinates, the
    candidate (surfaces other than :class:`PenaltySurface`; -1 on an exact
    dynamic one), the penalty value (``inf`` for excluded cells), and argmin
    provenance (grid surfaces; -1 without a report). On a grid surface only
    the live rows (a value other than ``inf``, or provenance other than -1)
    format their value and provenance; the rest of each line, and every
    other row whole, comes from the grid's :class:`RowText`.
    """
    if isinstance(surface, ExactSurface):
        beliefs, values, gen_ids = _rows(surface)
        n = beliefs.shape[1]
        names = [f"p{i}" for i in range(n)] + ["gen", "value"]
        cols = list(beliefs.T) + [
            np.full(len(values), -1) if gen_ids is None else gen_ids, values]
        lines = [",".join(names)]
        lines.extend(",".join(map(repr, row))
                     for row in zip(*(col.tolist() for col in cols)))
        return "\n".join(lines) + "\n"
    text = _row_text(surface)
    values = surface.values.ravel()
    live = values != np.inf
    if report is not None:
        src, gen = report.argmin_src.ravel(), report.argmin_gen.ravel()
        live |= (src != -1) | (gen != -1)
    live = np.flatnonzero(live)
    rows = list(text.excluded)
    prefixes = text.prefixes
    if report is None:
        for i, v in zip(live.tolist(), values[live].tolist()):
            rows[i] = f"{prefixes[i]}{v!r},-1,-1\n"
    else:
        for i, v, s, g in zip(live.tolist(), values[live].tolist(),
                              src[live].tolist(), gen[live].tolist()):
            rows[i] = f"{prefixes[i]}{v!r},{s},{g}\n"
    return text.header + "".join(rows)
