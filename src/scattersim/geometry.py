"""Planar geometry for dispersing robots.

Voronoi cells are represented per site as an intersection of open
half-planes, one constraint per rival site. Membership is strict
everywhere: a point on a bisector belongs to no cell. Position equality
means bit-equal coordinates; nothing in this module ever snaps or rounds.

The cell kernel is :func:`own_cell`, which builds a :class:`VoronoiCell`
on numpy columns, and :func:`sample_in_cell`, which casts rays in one. A
robot needs only its own cell, so no whole diagram is built: the oracle
campaign (C1) locates a query through each site's ``own_cell``.
The scatter draw, :func:`scatter_target`, is ``own_cell`` then
``sample_in_cell`` from the site itself, and the form of its points picks
its route: an array goes through those two functions on numpy columns; a
sequence of points, of any length, goes from the points to the target on
Python floats in one pass, which builds each rival's row and its slack at
the site and casts the rays on those rows, with no ``VoronoiCell``. The
caller decides the form; for ``protocols.scatter_from`` that is
``world.View.within_reach``, or the engine's tuple of the distinct
positions when they are at most ``world.SMALL_CELL``. Both routes do the same IEEE-754 double
operations in the same order (``x*x`` for a square, no fused multiply-add,
an exact minimum) and draw the same random numbers, so they give the same
target, the same generator state and the same error, bit for bit.

Reach. A scatter draw (:func:`own_cell` of a site ``s`` among a view's
points, then :func:`sample_in_cell` from ``s`` itself with travel bound
sigma) depends only on the rivals within the reach r of ``s``, which
:func:`reach` returns, rounding included, as at least::

    4*sigma*(1 + 2**-41) + 2**-23 * M + 2**-500

where M, at most ``2**500``, is the largest coordinate magnitude of the
view. :func:`reach_index` finds those rivals through a uniform grid, and
the cell built from them gives the draw of the cell of all points, bit
for bit: the same point, the same generator state, the same exception
and message. Rows do not interact (membership is an ``all``, the exit
distance an exact minimum) and the two routes of the draw agree bit for
bit, so it suffices that the row of every rival o at distance D >= r
from s passes each check the draw makes, for every direction drawn.

Proof. Take u = 2**-53 (unit roundoff) and eta = 2**-1074 (the least
subnormal); a rounded product or quotient is ``x(1 + d) + e`` with
|d| <= u and |e| <= eta/2, and a rounded sum or difference has e = 0.
Every coordinate is at most M, so D <= 2*sqrt(2)*M, each square and
product of the kernel is below 8*M**2 and nothing overflows. The exact
slack of o's row at s, ``0.5*(|o|**2 - |s|**2) - (o - s).s``, is D**2/2.
Summing the rounding errors of the offset (two squares, two sums, a
difference, a halving), of ``n.s`` (a rounded normal, two products, a
sum) and of the final difference bounds the error of the computed slack
by E = 64*u*M**2 + 8*eta, with room to spare (first order gives
22*u*M**2 + 3*eta). Since sqrt(2E) <= 2**-23*M + 2**-535, D >= r gives
D >= 4*s1 + sqrt(2E) + 2**-500 with s1 = sigma*(1 + 16u), hence
D*(D - 4*s1) >= 2E + D*2**-500 and D*(D - 2*s1) >= 2E + 8*s1**2 +
D*2**-500. The D*2**-500 term covers every eta-sized term below.

(a) The start check ``slack > 0`` holds: the computed slack is at least
    D**2/2 - E > 0.
(b) The exit distance matters only through hi = min(sigma, d/2), and
    that is unchanged. Along a drawn direction (ux, uy), the cosine and
    sine of the drawn angle, the computed speed ``n.u`` is at most
    D*(1 + 8u) + 2*eta (Cauchy-Schwarz, |n| <= D(1 + u), |u| <= 1 + 2u).
    Where it is positive, slack/speed >= (D**2/2 - E)/(D(1 + 8u) + 2*eta)
    >= 2*sigma by the first inequality above, and rounding is monotone,
    so the row's exit t >= 2*sigma and 0.5*t >= sigma. So with or without
    these rows hi is the same float: sigma whenever a dropped row would
    give the minimum. The step, the target and every draw are the same.
(c) The final check ``n.p < offset`` holds. It is reached only when
    ``distance(s, p) <= sigma``, so |p - s| <= sigma(1 + 8u) + eta and
    every coordinate of p is at most M + 2*sigma. The exact margin
    ``offset - n.p`` is at least D**2/2 - D*|p - s|, which the second
    inequality above puts at E + 4*sigma**2 or more; the rounding error
    of offset and ``n.p`` is at most 31*u*M**2 + 12*u*sigma**2 + 3*eta,
    less than that.

The grid keeps every point within r. Its side is g >= r*(1 + 2**-41) +
62*u*W, W the view's width, and a point's cell is ``floor((x - x0)/g)``
per axis, x0 the view's least coordinate. For |ox - sx| <= r the two
rounded quotients differ by at most (r + 2uW)/g + 2u(1 + u)W/g + eta <= 1,
so their floors differ by at most one: o lies in the 3 x 3 block of cells
around s. Cells number below 2**47 per axis, so their indices are exact.
Of a block's points, one is dropped only when its rounded squared
distance exceeds (r*(1 + 2**-30))**2, which, with D**2 rounded by at most
5u relative and 2*eta absolute and r**2 >= 2**-1000, means D > r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, GeometryError

TWO_PI = 2.0 * math.pi

# Step-length floor, as a fraction of sigma, so a sampled target never
# rounds back onto the start point.
_STEP_FLOOR = 1e-3

# A view whose bounding box spans at most this many reaches keeps all its
# points: its grid would be a few cells wide, so each mover would still
# scan most points, and on Python floats.
COMPACT_REACHES = 4.0

# Views with a larger coordinate keep all their points: the reach bound
# needs squares well inside the double range.
_MAX_MAGNITUDE = 2.0**500


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

    def contains(self, q: Sequence[float]) -> bool:
        """Strict membership test; boundary points are outside."""
        k = self.normals.shape[0]
        if k == 0:
            return True
        return _inside_columns(self.normals[:, 0], self.normals[:, 1], self.offsets, q[0], q[1])


def _inside_rows(rows, x: float, y: float) -> bool:
    """Strict membership of (x, y) on the Python-float rows."""
    for nx, ny, off, _ in rows:
        if not nx * x + ny * y < off:
            return False
    return True


def _inside_columns(nx: np.ndarray, ny: np.ndarray, offsets: np.ndarray, x: float, y: float) -> bool:
    """Strict membership of (x, y) on the numpy columns."""
    return bool((nx * x + ny * y < offsets).all())


def _site_rows(position: Point, occupied: Sequence[Point]):
    """The rows of :func:`own_cell` on Python floats, one ``(nx, ny, offset,
    slack)`` per rival in the order of ``occupied``, where ``slack`` is
    ``offset - n.position``, the row's slack at the site itself. Raises as
    :func:`own_cell` does when ``position`` is not among the points."""
    sx, sy = position
    if len(occupied) == 1:
        ox, oy = occupied[0]
        if ox != sx or oy != sy:
            raise ContractViolationError("position is not one of the occupied points")
        return ()
    own = sx * sx + sy * sy
    # ``* 1.0`` rounds an int to a double, as an array does, and keeps
    # the sign of a zero.
    sx *= 1.0
    sy *= 1.0
    rows = []
    for ox, oy in occupied:
        ox *= 1.0
        oy *= 1.0
        if ox != sx or oy != sy:
            nx = ox - sx
            ny = oy - sy
            off = 0.5 * ((ox * ox + oy * oy) - own)
            rows.append((nx, ny, off, off - (nx * sx + ny * sy)))
    if len(rows) == len(occupied):
        raise ContractViolationError("position is not one of the occupied points")
    return rows


def own_cell(position: Point, occupied: Sequence[Point] | np.ndarray) -> VoronoiCell:
    """Voronoi cell of ``position`` among the distinct points ``occupied``,
    one half-plane per other point, in the order of ``occupied``, built on
    numpy columns. ``occupied`` is a sequence of points or an (m, 2) array
    of them, and every coordinate is rounded to a double before it is
    compared or subtracted, so the rows come out bit-identical either way,
    and equal to the Python-float rows of :func:`scatter_target`'s
    sequence route; it must contain ``position`` and must be
    duplicate-free.
    """
    sx, sy = position
    pts = np.asarray(occupied, dtype=float).reshape(-1, 2)
    rival = (pts[:, 0] != sx) | (pts[:, 1] != sy)
    if rival.all():
        raise ContractViolationError("position is not one of the occupied points")
    arr = pts[rival]
    normals = arr - (sx, sy)
    offsets = 0.5 * (arr[:, 0] ** 2 + arr[:, 1] ** 2 - (sx * sx + sy * sy))
    return VoronoiCell(site=position, normals=normals, offsets=offsets)


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

    The ray is cast on the cell's numpy columns: each row's slack
    ``offset - n.current`` once, then the exact minimum of slack/speed over
    the rows ahead.
    """
    _require_sigma(sigma)
    cx, cy = current
    nx = cell.normals[:, 0]
    ny = cell.normals[:, 1]
    return _cast(current, sigma, rng, None, (nx, ny, cell.offsets, cell.offsets - (nx * cx + ny * cy)))


def scatter_target(position: Point, occupied: Sequence[Point] | np.ndarray, sigma: float, rng) -> Point:
    """The scatter draw from ``position`` in its open cell among the
    distinct points ``occupied``: ``sample_in_cell(own_cell(position,
    occupied), position, sigma, rng)``, bit for bit, with the same draws
    and the same errors in the same order (membership, then sigma, then
    the start check). The form of ``occupied`` picks the route, whatever
    its length: an array takes the numpy route through :func:`own_cell`
    and :func:`sample_in_cell`; a sequence of points goes from the points
    to the target on Python floats, one pass building the rows and their
    slack at the site, and builds no :class:`VoronoiCell`. The caller
    decides the form (for ``protocols.scatter_from``,
    ``world.View.within_reach`` or the engine's tuple of the distinct
    positions)."""
    if isinstance(occupied, np.ndarray):
        return sample_in_cell(own_cell(position, occupied), position, sigma, rng)
    rows = _site_rows(position, occupied)
    _require_sigma(sigma)
    return _cast(position, sigma, rng, rows)


def _require_sigma(sigma: float) -> None:
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ContractViolationError("sigma must be a positive finite length")


def _cast(current: Point, sigma: float, rng, rows, columns=None) -> Point:
    """The start check and ray cast of :func:`sample_in_cell` from
    ``current``, on Python-float ``rows`` ``(nx, ny, offset, slack)`` or,
    when ``columns`` is given, on the numpy columns ``(nx, ny, offsets,
    slack)``. ``slack`` is ``offset - n.current``, positive exactly when
    ``n.current < offset`` for IEEE doubles."""
    if columns is None:
        for row in rows:
            if not row[3] > 0.0:
                raise ContractViolationError("current position must lie strictly inside the cell")
    else:
        nx, ny, offsets, slack = columns
        if not (slack > 0.0).all():
            raise ContractViolationError("current position must lie strictly inside the cell")
    cx, cy = current
    lo = sigma * _STEP_FLOOR
    for _ in range(64):
        theta = float(rng.uniform(0.0, TWO_PI))
        ux = math.cos(theta)
        uy = math.sin(theta)
        d = math.inf
        if columns is None:
            for rx, ry, _, s in rows:
                speed = rx * ux + ry * uy
                if speed > 0.0:
                    t = s / speed
                    if t < d:
                        d = t
        else:
            speed = nx * ux + ny * uy
            ahead = speed > 0.0
            if ahead.any():
                d = float((slack[ahead] / speed[ahead]).min())
        hi = min(sigma, 0.5 * d)
        if hi >= lo:
            step = float(rng.uniform(lo, hi))
        else:
            step = 0.5 * hi
        p = Point(cx + step * ux, cy + step * uy)
        if p != current and distance(current, p) <= sigma and (
            _inside_rows(rows, p.x, p.y) if columns is None else _inside_columns(nx, ny, offsets, p.x, p.y)
        ):
            return p
    raise GeometryError("could not sample a valid in-cell target after 64 attempts")


def reach(sigma: float, magnitude: float) -> float:
    """The reach of a scatter draw with travel bound ``sigma`` in a view
    whose coordinates are at most ``magnitude`` in absolute value: a rival
    farther than this cannot change the draw (module docstring)."""
    return (4.0 * sigma + 2.0**-23 * magnitude + 2.0**-500) * (1.0 + 2.0**-40)


class ReachIndex:
    """A uniform grid over a view's distinct points for one travel bound:
    :meth:`near` lists the points within the reach of a position by
    scanning the 3 x 3 cells around it. Built by :func:`reach_index`."""

    __slots__ = ("_cells", "_x0", "_y0", "_side", "_limit")

    def __init__(self, cells: dict, x0: float, y0: float, side: float, limit: float):
        self._cells = cells
        self._x0 = x0
        self._y0 = y0
        self._side = side
        self._limit = limit

    def near(self, position: Point) -> list[Point]:
        """The points within reach of ``position``, itself included when
        it is one of them; possibly a few more, never fewer."""
        sx, sy = position
        kx = math.floor((sx - self._x0) / self._side)
        ky = math.floor((sy - self._y0) / self._side)
        cells = self._cells
        limit = self._limit
        out = []
        for i in (kx - 1, kx, kx + 1):
            for j in (ky - 1, ky, ky + 1):
                cell = cells.get((i, j))
                if cell is not None:
                    for p in cell:
                        dx = p[0] - sx
                        dy = p[1] - sy
                        if dx * dx + dy * dy <= limit:
                            out.append(p)
        return out


def reach_index(points: Sequence[Point], occupied: np.ndarray, sigma: float) -> ReachIndex | None:
    """A :class:`ReachIndex` over the distinct ``points`` (``occupied`` is
    the same points as an (m, 2) array) for travel bound ``sigma``, built
    in O(m). None when the view should keep all its points: its bounding
    box spans at most ``COMPACT_REACHES`` reaches, or a coordinate exceeds
    ``2**500`` in magnitude."""
    lo = occupied.min(axis=0)
    x0, y0 = lo.tolist()
    x1, y1 = occupied.max(axis=0).tolist()
    magnitude = max(-x0, x1, -y0, y1)
    if not magnitude <= _MAX_MAGNITUDE:
        return None
    r = reach(sigma, magnitude)
    width = max(x1 - x0, y1 - y0)
    if not width > COMPACT_REACHES * r:
        return None
    side = r * (1.0 + 2.0**-40) + width * 2.0**-47
    keys = np.floor((occupied - lo) / side).tolist()
    cells: dict = {}
    for p, (kx, ky) in zip(points, keys):
        cell = cells.get((kx, ky))
        if cell is None:
            cells[kx, ky] = [p]
        else:
            cell.append(p)
    limit = r * (1.0 + 2.0**-30)
    return ReachIndex(cells, x0, y0, side, limit * limit)
