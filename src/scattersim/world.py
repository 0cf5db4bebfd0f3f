"""Robot population state: frames, configurations, multiplicities, views.

A robot's ordinal exists only for bookkeeping (traces, fairness audits).
Decision rules receive a :class:`View`, which carries no ordinals and no
ordering information derived from them, so the population stays anonymous.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ScenarioValidationError
from .geometry import Point, reach_index


@dataclass(frozen=True)
class LocalFrame:
    """Similarity transform between global and robot-local coordinates.

    Local coordinates of a global point q are
    ``reflect(rotate(-rotation) @ (q - origin) / unit)`` where the
    reflection, when enabled, flips the local y axis.
    """

    origin: Point = Point(0.0, 0.0)
    rotation: float = 0.0
    reflect: bool = False
    unit: float = 1.0

    def __post_init__(self):
        if not (self.unit > 0.0 and math.isfinite(self.unit)):
            raise ScenarioValidationError("frame unit must be a positive finite scale")
        if not (math.isfinite(self.origin[0]) and math.isfinite(self.origin[1])):
            raise ScenarioValidationError("frame origin must be finite")
        if not math.isfinite(self.rotation):
            raise ScenarioValidationError("frame rotation must be finite")
        identity = (
            self.origin[0] == 0.0
            and self.origin[1] == 0.0
            and self.rotation == 0.0
            and not self.reflect
            and self.unit == 1.0
        )
        object.__setattr__(self, "_identity", identity)

    @property
    def is_identity(self) -> bool:
        return self._identity  # type: ignore[attr-defined]


IDENTITY_FRAME = LocalFrame()


def as_point(p) -> Point:
    """``p`` as a :class:`Point` holding the same floats; a Point is
    returned as it is. This is all the identity frame's transforms do."""
    return p if type(p) is Point else Point(p[0], p[1])


def to_local(frame: LocalFrame, p: Point) -> Point:
    """Express a global point in the frame. Identity frames pass
    coordinates through bit-exactly."""
    if frame.is_identity:
        return Point(p[0], p[1])
    return _local_map(frame)(p)


def _local_map(frame: LocalFrame):
    """:func:`to_local` under a non-identity ``frame`` as a function of the
    point, the frame's cosine and sine taken once."""
    ox, oy = frame.origin
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    unit = frame.unit
    reflect = frame.reflect

    def local(p) -> Point:
        dx = p[0] - ox
        dy = p[1] - oy
        lx = (dx * c + dy * s) / unit
        ly = (-dx * s + dy * c) / unit
        return Point(lx, -ly if reflect else ly)

    return local


def to_global(frame: LocalFrame, p: Point) -> Point:
    """Inverse of :func:`to_local` (round-trips within 1e-12 relative)."""
    if frame.is_identity:
        return Point(p[0], p[1])
    lx = p[0]
    ly = -p[1] if frame.reflect else p[1]
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    gx = frame.origin[0] + frame.unit * (lx * c - ly * s)
    gy = frame.origin[1] + frame.unit * (lx * s + ly * c)
    return Point(gx, gy)


def random_frame(rng) -> LocalFrame:
    """Draw a frame for scenarios that request per-robot random frames."""
    return LocalFrame(
        origin=Point(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0))),
        rotation=float(rng.uniform(0.0, 2.0 * math.pi)),
        reflect=bool(rng.integers(0, 2)),
        unit=float(rng.uniform(0.5, 2.0)),
    )


@dataclass(frozen=True)
class Robot:
    """Bookkeeping record for one robot: ordinal, travel bound, frame."""

    index: int
    sigma: float
    frame: LocalFrame = IDENTITY_FRAME

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ScenarioValidationError("sigma must be a positive finite length", "robots.sigma")


@dataclass(frozen=True)
class Capabilities:
    multiplicity_detection: bool = False
    localization_knowledge: bool = False


# A view of at most this many points hands them to the scatter draw as a
# tuple, which the draw works on as Python floats: at so few points each
# numpy call costs more than the whole arithmetic (View.within_reach).
SMALL_CELL = 32

# One position per robot, indexed by ordinal.
Configuration = tuple[Point, ...]


def as_configuration(positions) -> Configuration:
    pts = tuple(Point(float(x), float(y)) for x, y in positions)
    for p in pts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ScenarioValidationError(f"non-finite position {p}", "robots.positions")
    return pts


class _Shared:
    """What the views of one observation share: the point array and one
    reach index per travel bound, each built on first use, and under a
    private frame the global position of each point."""

    __slots__ = ("array", "reach", "globals")

    def __init__(self, globals: tuple[Point, ...] | None = None):
        self.array = None
        self.reach = {}
        self.globals = globals


@dataclass(frozen=True)
class View:
    """What one robot observes: the distinct occupied positions in its own
    frame, optional per-position robot counts, and its own local position.

    ``points`` is sorted lexicographically (a canonical order, independent
    of robot ordinals). ``counts`` is aligned with ``points`` and present
    only under multiplicity detection; without it co-located robots
    collapse to a single indistinguishable point. ``occupied`` gives the
    same points as an array for the cell kernel, and :meth:`within_reach`
    the points that can bound a scatter draw.

    The views that :meth:`seen_from` derives share the array and the reach
    indexes with the view they come from, so an instant builds each at
    most once, and they are dropped with the views. A view built under a
    private frame keeps, out of the rule's sight, the global position of
    each of its points, so that the engine can land a robot exactly on
    one.
    """

    points: tuple[Point, ...]
    counts: tuple[int, ...] | None
    self_pos: Point
    # Created on first use, so that a view nobody queries costs nothing.
    _shared: _Shared | None = field(default=None, init=False, repr=False, compare=False)

    def _state(self) -> _Shared:
        shared = self._shared
        if shared is None:
            shared = _Shared()
            object.__setattr__(self, "_shared", shared)
        return shared

    @property
    def occupied(self) -> np.ndarray:
        """``points`` as a read-only (m, 2) float array, built on first use."""
        shared = self._state()
        if shared.array is None:
            arr = np.array(self.points, dtype=float).reshape(-1, 2)
            arr.setflags(write=False)
            shared.array = arr
        return shared.array

    def within_reach(self, sigma: float):
        """The points the robot's scatter cell needs at travel bound
        ``sigma``, in the form that picks the route of
        :func:`geometry.scatter_target`, which this method decides: a
        sequence goes to the target on Python floats, an array on numpy
        columns. A view of at most ``SMALL_CELL`` points returns ``points``
        (for plain scatter, the engine hands the draw the same points as a
        tuple without a view).
        A larger one returns its own point and every point within
        :func:`geometry.reach` of it, as a list of any length, found
        through a grid that the shared views build once per ``sigma`` (see
        :func:`reach_index`). The first query for a ``sigma`` gets all
        points as the array ``occupied`` and builds nothing, so a view that
        only one robot queries, such as a private frame's, never pays for a
        grid. The second builds the grid, or learns that
        :func:`reach_index` keeps the view whole, so that every query gets
        the array; later queries reuse that. The draw is the same, bit for
        bit, whatever the form and the points."""
        points = self.points
        if len(points) <= SMALL_CELL:
            return points
        indexes = self._state().reach
        if sigma not in indexes:
            indexes[sigma] = False
            return self.occupied
        index = indexes[sigma]
        if index is False:
            index = indexes[sigma] = reach_index(points, self.occupied, sigma)
        return self.occupied if index is None else index.near(self.self_pos)

    def seen_from(self, self_pos: Point) -> View:
        """The same observation by a robot at ``self_pos``: same ``points``
        and ``counts`` tuples, same lazily built array and reach indexes."""
        view = View(self.points, self.counts, self_pos)
        object.__setattr__(view, "_shared", self._state())
        return view

    def global_point(self, local: Point) -> Point | None:
        """The global position of the view point equal to ``local``, or
        None when ``local`` is no view point or the view has no map."""
        shared = self._shared
        if shared is None or shared.globals is None:
            return None
        points = self.points
        j = bisect_left(points, local)
        if j < len(points) and points[j] == local:
            return shared.globals[j]
        return None


def build_view(config: Configuration, observer: Robot, caps: Capabilities) -> View:
    """Observe ``config`` through the observer's frame.

    Localization knowledge replaces the private frame with the shared
    identity frame. Duplicate positions are collapsed before the frame
    transform, so robots sharing exact coordinates contribute one view
    point (with a count when detection is on).
    """
    if not 0 <= observer.index < len(config):
        raise ContractViolationError("observer does not belong to the configuration")
    frame = IDENTITY_FRAME if caps.localization_knowledge else observer.frame
    tally: dict[Point, int] = {}
    for p in config:
        tally[p] = tally.get(p, 0) + 1
    identity = frame.is_identity
    if identity:
        entries = sorted(tally.items())
        points = tuple(as_point(p) for p, _ in entries)
        self_pos = as_point(config[observer.index])
    else:  # (local point, count, global point), in the order of the local points
        local = _local_map(frame)
        entries = sorted((local(p), c, p) for p, c in tally.items())
        points = tuple(e[0] for e in entries)
        self_pos = local(config[observer.index])
    counts = tuple(e[1] for e in entries) if caps.multiplicity_detection else None
    view = View(points=points, counts=counts, self_pos=self_pos)
    if not identity:
        object.__setattr__(view, "_shared", _Shared(tuple(e[2] for e in entries)))
    return view


def multiplicity_points(config: Configuration) -> tuple[tuple[Point, int], ...]:
    """Positions occupied by two or more robots, with their counts."""
    tally: dict[Point, int] = {}
    for p in config:
        tally[p] = tally.get(p, 0) + 1
    return tuple(sorted((p, c) for p, c in tally.items() if c >= 2))


def all_distinct(config: Configuration) -> bool:
    return len(set(config)) == len(config)
