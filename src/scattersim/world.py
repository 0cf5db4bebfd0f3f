"""Robot population state: frames, configurations, multiplicities, views.

A robot's ordinal exists only for bookkeeping (traces, fairness audits).
Decision rules receive a :class:`View`, which carries no ordinals and no
ordering information derived from them, so the population stays anonymous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ScenarioValidationError
from .geometry import Point


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


def to_local(frame: LocalFrame, p: Point) -> Point:
    """Express a global point in the frame. Identity frames pass
    coordinates through bit-exactly."""
    if frame.is_identity:
        return Point(p[0], p[1])
    dx = p[0] - frame.origin[0]
    dy = p[1] - frame.origin[1]
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    lx = (dx * c + dy * s) / frame.unit
    ly = (-dx * s + dy * c) / frame.unit
    if frame.reflect:
        ly = -ly
    return Point(lx, ly)


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


# One position per robot, indexed by ordinal.
Configuration = tuple[Point, ...]


def as_configuration(positions) -> Configuration:
    pts = tuple(Point(float(x), float(y)) for x, y in positions)
    for p in pts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ScenarioValidationError(f"non-finite position {p}", "robots.positions")
    return pts


@dataclass(frozen=True)
class View:
    """What one robot observes: the distinct occupied positions in its own
    frame, optional per-position robot counts, and its own local position.

    ``points`` is sorted lexicographically (a canonical order, independent
    of robot ordinals). ``counts`` is aligned with ``points`` and present
    only under multiplicity detection; without it co-located robots
    collapse to a single indistinguishable point. ``occupied`` gives the
    same points as an array for the cell kernel.
    """

    points: tuple[Point, ...]
    counts: tuple[int, ...] | None
    self_pos: Point
    # Holds the (m, 2) array of ``points`` once built; shared by the views
    # that :meth:`seen_from` derives, so an instant builds it at most once.
    _array_slot: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def occupied(self) -> np.ndarray:
        """``points`` as a read-only (m, 2) float array, built on first use."""
        if not self._array_slot:
            arr = np.array(self.points, dtype=float).reshape(-1, 2)
            arr.setflags(write=False)
            self._array_slot.append(arr)
        return self._array_slot[0]

    def seen_from(self, self_pos: Point) -> View:
        """The same observation by a robot at ``self_pos``: same ``points``
        and ``counts`` tuples, same lazily built array."""
        view = View(self.points, self.counts, self_pos)
        object.__setattr__(view, "_array_slot", self._array_slot)
        return view


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
    pairs = sorted((to_local(frame, p), c) for p, c in tally.items())
    points = tuple(p for p, _ in pairs)
    counts = tuple(c for _, c in pairs) if caps.multiplicity_detection else None
    return View(points=points, counts=counts, self_pos=to_local(frame, config[observer.index]))


def multiplicity_points(config: Configuration) -> tuple[tuple[Point, int], ...]:
    """Positions occupied by two or more robots, with their counts."""
    tally: dict[Point, int] = {}
    for p in config:
        tally[p] = tally.get(p, 0) + 1
    return tuple(sorted((p, c) for p, c in tally.items() if c >= 2))


def all_distinct(config: Configuration) -> bool:
    return len(set(config)) == len(config)
