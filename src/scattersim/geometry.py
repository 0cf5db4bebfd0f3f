"""Planar geometry for dispersing robots.

Voronoi cells are represented per site as an intersection of open
half-planes, one constraint per rival site. Membership is strict
everywhere: a point on a bisector belongs to no cell. Position equality
means bit-equal coordinates; nothing in this module ever snaps or rounds.
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
        if self.normals.shape[0] == 0:
            return True
        return bool(
            np.all(self.normals[:, 0] * q[0] + self.normals[:, 1] * q[1] < self.offsets)
        )


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
    ``occupied`` is a sequence of points or an (m, 2) float array of them
    (the rows come out bit-identical either way); it must contain
    ``position`` and must be duplicate-free.
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
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ContractViolationError("sigma must be a positive finite length")
    if not cell.contains(current):
        raise ContractViolationError("current position must lie strictly inside the cell")
    normals = cell.normals
    offsets = cell.offsets
    constrained = normals.shape[0] > 0
    if constrained:
        slack = offsets - (normals[:, 0] * current.x + normals[:, 1] * current.y)
    for _ in range(64):
        theta = float(rng.uniform(0.0, TWO_PI))
        ux = math.cos(theta)
        uy = math.sin(theta)
        if constrained:
            speed = normals[:, 0] * ux + normals[:, 1] * uy
            ahead = speed > 0.0
            d = float(np.min(slack[ahead] / speed[ahead])) if ahead.any() else math.inf
        else:
            d = math.inf
        hi = min(sigma, 0.5 * d)
        lo = sigma * _STEP_FLOOR
        if hi >= lo:
            step = float(rng.uniform(lo, hi))
        else:
            step = 0.5 * hi
        p = Point(current.x + step * ux, current.y + step * uy)
        if p != current and distance(current, p) <= sigma and cell.contains(p):
            return p
    raise GeometryError("could not sample a valid in-cell target after 64 attempts")
