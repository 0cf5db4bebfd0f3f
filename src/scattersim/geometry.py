"""Planar geometry for dispersing robots.

Voronoi cells are represented per site as an intersection of open
half-planes, one constraint per rival site. Membership is strict
everywhere: a point on a bisector belongs to no cell. Position equality
means bit-equal coordinates; nothing in this module ever snaps or rounds.

The cell kernel (:func:`own_cell` and :func:`sample_in_cell`) has two
forms of its rows, chosen by cell size. A cell of at most ``SMALL_CELL``
sites is worked on as Python floats, one row at a time: at a handful of
sites each numpy call costs more than the whole arithmetic. A larger cell
is worked on as numpy columns. Both forms do the same IEEE-754 double
operations in the same order (``x*x`` for a square, no fused multiply-add,
an exact minimum) and draw the same random numbers, so they give
bit-identical cells, samples and generator states; ``VoronoiCell`` holds
numpy arrays either way, and :meth:`VoronoiCell.contains`, which no hot
loop calls, reads them as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, DistinctSitesError, GeometryError

TWO_PI = 2.0 * math.pi

# Step-length floor, as a fraction of sigma, so a sampled target never
# rounds back onto the start point.
_STEP_FLOOR = 1e-3

# Cells of at most this many sites (the own site included, so fewer than
# SMALL_CELL rows) take the Python-float path, larger ones the numpy path.
# Per mover (own_cell + sample_in_cell) the Python path measured cheaper up
# to about 40 sites and dearer beyond (CHANGES.md has the figures). A caller
# holding both the points and their array passes the points up to this size.
SMALL_CELL = 32


class Point(NamedTuple):
    """A location in the plane (abstract length units)."""

    x: float
    y: float


def distance(p: Point, q: Point) -> float:
    """Euclidean distance; zero exactly when the coordinates are equal."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


@dataclass(frozen=True)
class VoronoiCell:
    """Open convex region of points strictly nearer to ``site`` than to any
    rival site: ``normals @ q < offsets`` for ``normals`` (k, 2) and
    ``offsets`` (k,), one unreduced bisector half-plane per rival site. A
    redundant row changes neither membership nor a ray's exit distance.
    """

    site: Point
    normals: np.ndarray
    offsets: np.ndarray

    @property
    def bounded(self) -> bool:
        """Whether the region has finite area: its normals fit in no closed
        half-plane (max angular gap below pi). Redundant rows leave the
        recession cone, and so the answer, unchanged."""
        if self.normals.shape[0] < 3:
            return False
        ang = np.sort(np.arctan2(self.normals[:, 1], self.normals[:, 0]))
        widest = max(float(np.diff(ang).max()), float(ang[0] + TWO_PI - ang[-1]))
        return widest < math.pi - 1e-12

    def contains(self, q: Sequence[float]) -> bool:
        """Strict membership test; boundary points are outside."""
        k = self.normals.shape[0]
        if k == 0:
            return True
        return _inside_columns(self.normals[:, 0], self.normals[:, 1], self.offsets, q[0], q[1])


def _rows(cell: VoronoiCell) -> list:
    """The cell's half-planes as Python floats: ``[[nx, ny], offset]`` pairs."""
    return list(zip(cell.normals.tolist(), cell.offsets.tolist()))


def _inside_rows(rows, x: float, y: float) -> bool:
    """Strict membership of (x, y) on the Python-float rows."""
    for (nx, ny), off in rows:
        if not nx * x + ny * y < off:
            return False
    return True


def _inside_columns(nx: np.ndarray, ny: np.ndarray, offsets: np.ndarray, x: float, y: float) -> bool:
    """Strict membership of (x, y) on the numpy columns."""
    return bool((nx * x + ny * y < offsets).all())


@dataclass(frozen=True)
class VoronoiDiagram:
    """One open cell per distinct site; cells[i] belongs to sites[i]."""

    sites: tuple[Point, ...]
    cells: tuple[VoronoiCell, ...]

    def locate(self, q: Sequence[float]) -> int | None:
        """Index of the cell strictly containing ``q``, or None on a boundary."""
        for i, cell in enumerate(self.cells):
            if cell.contains(q):
                return i
        return None


def own_cell(position: Point, occupied: Sequence[Point] | np.ndarray) -> VoronoiCell:
    """Voronoi cell of ``position`` among the distinct points ``occupied``,
    one half-plane per other point, in the order of ``occupied``.
    ``occupied`` is a sequence of points or an (m, 2) array of them, and
    every coordinate is rounded to a double before it is compared or
    subtracted, so the rows come out bit-identical either way and on either
    path of the kernel; it must contain ``position`` and must be
    duplicate-free.
    """
    sx, sy = position
    if len(occupied) == 1:
        ox, oy = occupied[0]
        if ox != sx or oy != sy:
            raise ContractViolationError("position is not one of the occupied points")
        return VoronoiCell(
            site=position,
            normals=np.empty((0, 2), dtype=float),
            offsets=np.empty((0,), dtype=float),
        )
    if len(occupied) <= SMALL_CELL:
        if isinstance(occupied, np.ndarray):
            occupied = occupied.tolist()
        own = sx * sx + sy * sy
        # ``* 1.0`` rounds an int to a double, as an array does, and keeps
        # the sign of a zero.
        sx *= 1.0
        sy *= 1.0
        normals = []  # flat: nx0, ny0, nx1, ny1, ...
        offsets = []
        for ox, oy in occupied:
            ox *= 1.0
            oy *= 1.0
            if ox != sx or oy != sy:
                normals += (ox - sx, oy - sy)
                offsets.append(0.5 * ((ox * ox + oy * oy) - own))
        if len(offsets) == len(occupied):
            raise ContractViolationError("position is not one of the occupied points")
        return VoronoiCell(
            site=position,
            normals=np.array(normals, dtype=float).reshape(-1, 2),
            offsets=np.array(offsets, dtype=float),
        )
    pts = np.asarray(occupied, dtype=float).reshape(-1, 2)
    rival = (pts[:, 0] != sx) | (pts[:, 1] != sy)
    if rival.all():
        raise ContractViolationError("position is not one of the occupied points")
    arr = pts[rival]
    normals = arr - (sx, sy)
    offsets = 0.5 * (arr[:, 0] ** 2 + arr[:, 1] ** 2 - (sx * sx + sy * sy))
    return VoronoiCell(site=position, normals=normals, offsets=offsets)


def compute_voronoi(sites: Sequence[Point]) -> VoronoiDiagram:
    """Build the diagram of pairwise distinct sites.

    Raises
    ------
    DistinctSitesError
        If the input is empty or contains an exact duplicate. Callers
        must collapse co-located robots to one site before calling.
    """
    pts = tuple(Point(float(x), float(y)) for x, y in sites)
    if not pts:
        raise DistinctSitesError("at least one site is required")
    for p in pts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise DistinctSitesError(f"non-finite site {p}")
    if len(set(pts)) != len(pts):
        raise DistinctSitesError("sites must be pairwise distinct")
    occupied = np.asarray(pts, dtype=float)
    cells = tuple(own_cell(p, occupied) for p in pts)
    return VoronoiDiagram(sites=pts, cells=cells)


def sample_in_cell(cell: VoronoiCell, current: Point, sigma: float, rng) -> Point:
    """Draw a movement target strictly inside ``cell``.

    Casts a ray from ``current`` in a uniformly random direction, finds
    the exit distance d through the cell boundary (infinite for an
    unconstrained direction), then draws the step length uniformly from
    [sigma * 1e-3, min(sigma, d/2)]. The d/2 margin keeps the result
    strictly interior under floating point; the floor keeps it distinct
    from ``current``. When the interval is empty the step is half its
    upper end. The returned point is verified to satisfy all three
    postconditions (inside, distinct, within sigma) before it is handed
    back; a fresh direction is drawn on the rare rounding failure.

    A cell of fewer than ``SMALL_CELL`` rows is read once into Python
    floats and every ray is cast row by row, since numpy's per-call
    overhead outweighs so little arithmetic; a larger cell is cast on
    numpy columns. Both do the same double operations in the same order
    (each row's slack ``offset - n.current`` once, then the exact minimum
    of slack/speed over the rows ahead), so they return the same point
    after the same draws.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ContractViolationError("sigma must be a positive finite length")
    cx, cy = current
    offsets = cell.offsets
    k = offsets.shape[0]
    small = k < SMALL_CELL
    if k == 0:  # the whole plane: no rows to read, no direction is blocked
        inside = small = True
    elif small:
        rows = _rows(cell)
        inside = _inside_rows(rows, cx, cy)
        slack = [off - (nx * cx + ny * cy) for (nx, ny), off in rows]
    else:
        nx = cell.normals[:, 0]
        ny = cell.normals[:, 1]
        slack = offsets - (nx * cx + ny * cy)
        # slack > 0 exactly when n.current < offset, for IEEE doubles.
        inside = bool((slack > 0.0).all())
    if not inside:
        raise ContractViolationError("current position must lie strictly inside the cell")
    for _ in range(64):
        theta = float(rng.uniform(0.0, TWO_PI))
        ux = math.cos(theta)
        uy = math.sin(theta)
        d = math.inf
        if not small:
            speed = nx * ux + ny * uy
            ahead = speed > 0.0
            if ahead.any():
                d = float((slack[ahead] / speed[ahead]).min())
        elif k:
            for ((rx, ry), _), s in zip(rows, slack):
                speed = rx * ux + ry * uy
                if speed > 0.0:
                    t = s / speed
                    if t < d:
                        d = t
        hi = min(sigma, 0.5 * d)
        lo = sigma * _STEP_FLOOR
        if hi >= lo:
            step = float(rng.uniform(lo, hi))
        else:
            step = 0.5 * hi
        p = Point(cx + step * ux, cy + step * uy)
        if p != current and distance(current, p) <= sigma and (
            k == 0
            or (_inside_rows(rows, p.x, p.y) if small else _inside_columns(nx, ny, offsets, p.x, p.y))
        ):
            return p
    raise GeometryError("could not sample a valid in-cell target after 64 attempts")
