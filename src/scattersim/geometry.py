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
    rival site.

    ``normals`` (k, 2) and ``offsets`` (k,) encode the constraints
    ``normals @ q < offsets``. The constraint list is reduced: every row
    that survives contributes a positive-length edge to the cell boundary.
    ``bounded`` reports whether the region has finite area.
    """

    site: Point
    normals: np.ndarray
    offsets: np.ndarray
    bounded: bool

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


def _reduce_constraints(
    site: Point, normals: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop constraints whose boundary line carries no edge of the cell.

    A constraint is kept iff its line, clipped by all other (closed)
    constraints, retains positive length. Dropping the rest leaves the
    region unchanged, including its recession cone.
    """
    k = normals.shape[0]
    if k <= 1:
        return normals, offsets
    keep = np.zeros(k, dtype=bool)
    sx, sy = site
    for j in range(k):
        njx, njy = normals[j]
        cj = offsets[j]
        nn = njx * njx + njy * njy
        # Foot of the perpendicular from the site onto the boundary line.
        t0 = (cj - (njx * sx + njy * sy)) / nn
        bx = sx + t0 * njx
        by = sy + t0 * njy
        ux, uy = -njy, njx
        others = np.arange(k) != j
        s = normals[others, 0] * ux + normals[others, 1] * uy
        r = offsets[others] - (normals[others, 0] * bx + normals[others, 1] * by)
        scale = np.hypot(normals[others, 0], normals[others, 1]) * math.sqrt(nn)
        parallel = np.abs(s) <= 1e-14 * scale
        if np.any(parallel & (r < 0.0)):
            continue
        ahead = (~parallel) & (s > 0.0)
        behind = (~parallel) & (s < 0.0)
        hi = float(np.min(r[ahead] / s[ahead])) if np.any(ahead) else math.inf
        lo = float(np.max(r[behind] / s[behind])) if np.any(behind) else -math.inf
        if hi - lo > 1e-12 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0,
                                 abs(hi) if math.isfinite(hi) else 0.0):
            keep[j] = True
    if not keep.any():
        # Numerically degenerate input; fail safe by keeping everything.
        return normals, offsets
    return normals[keep], offsets[keep]


def _is_bounded(normals: np.ndarray) -> bool:
    """A half-plane intersection is bounded iff its constraint normals do
    not all fit inside a closed half-plane (max angular gap below pi)."""
    if normals.shape[0] < 3:
        return False
    ang = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    gaps = np.diff(ang)
    wrap = ang[0] + TWO_PI - ang[-1]
    widest = max(float(gaps.max()) if gaps.size else 0.0, float(wrap))
    return widest < math.pi - 1e-12


def own_cell(position: Point, occupied: Sequence[Point]) -> VoronoiCell:
    """Voronoi cell of ``position`` among the distinct points ``occupied``.

    ``occupied`` must contain ``position`` and must be duplicate-free.
    """
    others = [p for p in occupied if p != position]
    if len(others) == len(occupied):
        raise ContractViolationError("position is not one of the occupied points")
    if not others:
        return VoronoiCell(
            site=position,
            normals=np.empty((0, 2), dtype=float),
            offsets=np.empty((0,), dtype=float),
            bounded=False,
        )
    arr = np.asarray(others, dtype=float)
    sx, sy = position
    normals = arr - (sx, sy)
    offsets = 0.5 * (arr[:, 0] ** 2 + arr[:, 1] ** 2 - (sx * sx + sy * sy))
    normals, offsets = _reduce_constraints(position, normals, offsets)
    return VoronoiCell(
        site=position,
        normals=normals,
        offsets=offsets,
        bounded=_is_bounded(normals),
    )


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
    cells = tuple(own_cell(p, pts) for p in pts)
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
