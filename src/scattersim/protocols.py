"""Per-robot decision rules.

Each rule maps (view, capabilities, travel bound, randomness) to a target
point in the robot's local frame. Rules never see ordinals or history;
"move toward" semantics live in the engine, which caps actual travel at
the robot's sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import fmean
from typing import Callable

from .errors import CapabilityError, ContractViolationError, ScenarioValidationError
from .geometry import Point, distance, own_cell, sample_in_cell
from .world import Capabilities, View


def _flip(rng) -> int:
    """Fair coin over {0, 1}."""
    return int(rng.integers(0, 2))


def scatter_step(view: View, sigma: float, rng) -> Point:
    """Randomized dispersion: on coin 1 stay put, on coin 0 move to a fresh
    point inside the open Voronoi cell of the robot's position (taken among
    the distinct occupied positions)."""
    if not view.points or view.self_pos not in view.points:
        raise ContractViolationError("observer position missing from view")
    if _flip(rng) == 1:
        return view.self_pos
    cell = own_cell(view.self_pos, view.points)
    return sample_in_cell(cell, view.self_pos, sigma, rng)


def _require_counts(view: View, caps: Capabilities) -> tuple[int, ...]:
    if not caps.multiplicity_detection or view.counts is None:
        raise CapabilityError("multiplicity detection is required")
    return view.counts


def stabilized_pattern_step(view, caps, sigma, rng, formation: "Protocol") -> Point:
    """Self-stabilizing wrapper: scatter while any position holds two or
    more robots, otherwise defer to the pattern-formation rule."""
    counts = _require_counts(view, caps)
    if any(c >= 2 for c in counts):
        return scatter_step(view, sigma, rng)
    return formation.decide(view, caps, sigma, rng)


def stabilized_gather_step(view, caps, sigma, rng, gatherer: "Protocol") -> Point:
    """Self-stabilizing wrapper: scatter while two or more positions hold
    multiple robots, otherwise defer to the gathering rule."""
    counts = _require_counts(view, caps)
    if sum(1 for c in counts if c >= 2) >= 2:
        return scatter_step(view, sigma, rng)
    return gatherer.decide(view, caps, sigma, rng)


def pair_gather_step(view: View, sigma: float, rng) -> Point:
    """Two-robot randomized gathering: jump to the other robot's position
    on coin 0, stay on coin 1."""
    if len(view.points) > 2:
        raise ContractViolationError("pair gathering is defined for two robots")
    others = [p for p in view.points if p != view.self_pos]
    other = others[0] if others else view.self_pos
    return other if _flip(rng) == 0 else view.self_pos


def reference_gather_step(view: View, caps: Capabilities, sigma: float) -> Point:
    """Bundled deterministic gathering plug-in (needs a shared frame and
    multiplicity detection; at most one crowded position).

    With no crowded position, the robot at the lexicographically
    second-smallest position walks onto the smallest, creating one. With
    one crowded position m, the robot at the occupied position farthest
    from m (smallest-lex on ties) walks onto m. One mover per instant.
    """
    counts = _require_counts(view, caps)
    if not caps.localization_knowledge:
        raise CapabilityError("the bundled gathering rule needs a shared frame")
    crowded = [p for p, c in zip(view.points, counts) if c >= 2]
    if len(crowded) > 1:
        raise ContractViolationError("more than one crowded position; guard should scatter")
    if not crowded:
        order = sorted(view.points)
        if len(order) < 2:
            return view.self_pos
        return order[0] if view.self_pos == order[1] else view.self_pos
    m = crowded[0]
    dmax = max(distance(p, m) for p in view.points)
    if dmax == 0.0:
        return view.self_pos
    mover = min(p for p in view.points if distance(p, m) == dmax)
    return m if view.self_pos == mover else view.self_pos


def reference_pattern_step(
    view: View, caps: Capabilities, sigma: float, pattern: tuple[Point, ...]
) -> Point:
    """Bundled deterministic pattern-formation plug-in (needs a shared
    frame and all-distinct positions).

    Occupied positions and pattern points are each sorted
    lexicographically and paired by rank; the smallest robot not at its
    paired point walks onto it. One mover per instant.
    """
    if not caps.localization_knowledge:
        raise CapabilityError("the bundled pattern rule needs a shared frame")
    if view.counts is not None and any(c >= 2 for c in view.counts):
        raise ContractViolationError("view holds a crowded position; guard should scatter")
    if len(view.points) != len(pattern):
        raise ContractViolationError(
            f"pattern size {len(pattern)} does not match {len(view.points)} occupied positions"
        )
    occupied = sorted(view.points)
    targets = sorted(pattern)
    for o, t in zip(occupied, targets):
        if o != t:
            return t if view.self_pos == o else view.self_pos
    return view.self_pos


def _rule_unit_x(view: View) -> Point:
    return Point(view.self_pos.x + 1.0, view.self_pos.y)


def _rule_unit_y(view: View) -> Point:
    return Point(view.self_pos.x, view.self_pos.y + 1.0)


def _rule_diagonal(view: View) -> Point:
    return Point(view.self_pos.x + 1.0, view.self_pos.y + 1.0)


def _rule_centroid(view: View) -> Point:
    return Point(fmean(p.x for p in view.points), fmean(p.y for p in view.points))


def _rule_lex_min(view: View) -> Point:
    return min(view.points)


# Coin-free functions of the view, used to demonstrate that no
# deterministic rule can break an all-co-located configuration.
DETERMINISTIC_RULES = {
    "unit_x": _rule_unit_x,
    "unit_y": _rule_unit_y,
    "diagonal": _rule_diagonal,
    "centroid": _rule_centroid,
    "lex_min": _rule_lex_min,
}


def deterministic_rule(name: str):
    """The coin-free rule called ``name``; the one check of rule names."""
    try:
        return DETERMINISTIC_RULES[name]
    except KeyError:
        raise ScenarioValidationError(f"unknown deterministic rule {name!r}") from None


def deterministic_rule_step(view: View, rule: str = "unit_x") -> Point:
    return deterministic_rule(rule)(view)


class Protocol:
    """A decision rule; ``decide`` must be pure given its arguments."""

    kind = "?"

    def decide(self, view: View, caps: Capabilities, sigma: float, rng) -> Point:
        raise NotImplementedError


@dataclass(frozen=True)
class Kind:
    """What one protocol kind is and needs.

    ``rule(protocol, view, caps, sigma, rng)`` decides for a built
    :class:`KindProtocol`. A ``shared_frame`` kind needs multiplicity
    detection and localization knowledge; ``plugin`` names the kind a
    self-stabilizing wrapper defers to once the guard is clear.
    """

    rule: Callable
    shared_frame: bool = False
    takes_pattern: bool = False
    takes_rule: bool = False
    exact_n: int | None = None
    min_n: int = 1
    plugin: str | None = None


KINDS = {
    "scatter": Kind(lambda p, view, caps, sigma, rng: scatter_step(view, sigma, rng)),
    "pair_gather": Kind(
        lambda p, view, caps, sigma, rng: pair_gather_step(view, sigma, rng), exact_n=2
    ),
    "stabilized_pattern": Kind(
        lambda p, view, caps, sigma, rng: stabilized_pattern_step(view, caps, sigma, rng, p.plugin),
        shared_frame=True,
        takes_pattern=True,
        plugin="reference_pattern",
    ),
    "stabilized_gather": Kind(
        lambda p, view, caps, sigma, rng: stabilized_gather_step(view, caps, sigma, rng, p.plugin),
        shared_frame=True,
        min_n=3,
        plugin="reference_gather",
    ),
    "reference_pattern": Kind(
        lambda p, view, caps, sigma, rng: reference_pattern_step(view, caps, sigma, p.spec.pattern),
        shared_frame=True,
        takes_pattern=True,
    ),
    "reference_gather": Kind(
        lambda p, view, caps, sigma, rng: reference_gather_step(view, caps, sigma),
        shared_frame=True,
        min_n=3,
    ),
    "deterministic_rule": Kind(
        lambda p, view, caps, sigma, rng: deterministic_rule_step(view, p.spec.rule or "unit_x"),
        takes_rule=True,
    ),
}


class KindProtocol(Protocol):
    """The protocol a :class:`ProtocolSpec` names, deciding by its
    :data:`KINDS` entry; a wrapper kind holds its plug-in as ``plugin``."""

    def __init__(self, spec: ProtocolSpec):
        self.spec = spec
        self.kind = spec.kind
        entry = KINDS[spec.kind]
        self._rule = entry.rule
        self.plugin = None if entry.plugin is None else KindProtocol(replace(spec, kind=entry.plugin))

    def decide(self, view, caps, sigma, rng):
        return self._rule(self, view, caps, sigma, rng)


@dataclass(frozen=True)
class ProtocolSpec:
    """Serializable protocol description; ``build`` yields the rule."""

    kind: str
    pattern: tuple[Point, ...] | None = None
    rule: str | None = None

    def validate(self, n: int | None = None, caps: Capabilities | None = None) -> None:
        """Check the spec, then, when given, its fit to ``n`` robots and ``caps``."""
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ScenarioValidationError(f"unknown protocol kind {self.kind!r}")
        if kind.takes_pattern:
            if not self.pattern:
                raise ScenarioValidationError(f"protocol {self.kind} needs a pattern")
            if len(set(self.pattern)) != len(self.pattern):
                raise ScenarioValidationError("pattern points must be pairwise distinct")
            if n is not None and len(self.pattern) != n:
                raise ScenarioValidationError(
                    f"pattern has {len(self.pattern)} points for {n} robots"
                )
        elif self.pattern:
            raise ScenarioValidationError(f"protocol {self.kind} takes no pattern")
        if self.rule is not None and not kind.takes_rule:
            raise ScenarioValidationError(f"protocol {self.kind} takes no rule")
        if kind.takes_rule:
            deterministic_rule(self.rule or "unit_x")
        if caps is not None and kind.shared_frame:
            if not caps.multiplicity_detection:
                raise ScenarioValidationError(
                    f"capabilities: protocol {self.kind} requires multiplicity_detection"
                )
            if not caps.localization_knowledge:
                raise ScenarioValidationError(
                    f"capabilities: protocol {self.kind} requires localization_knowledge"
                )
        if n is not None and kind.exact_n is not None and n != kind.exact_n:
            raise ScenarioValidationError(f"robots: {self.kind} requires exactly n = {kind.exact_n}")
        if n is not None and n < kind.min_n:
            raise ScenarioValidationError(f"robots: protocol {self.kind} requires n >= {kind.min_n}")

    def build(self) -> Protocol:
        self.validate()
        return KindProtocol(self)
