"""Semi-synchronous execution loop.

Discrete instants: a scheduler activates a non-empty subset of robots, each
active robot observes the pre-step configuration (so evaluation order
inside an instant cannot matter), decides a local target, and moves toward
it by at most its sigma. Inactive robots keep their exact position.

Every robot that observes through the identity frame (its own, or the
shared one under localization knowledge) sees the same points, so an
instant builds that view once and hands each such robot a copy that
differs only in its own position; robots with a private frame get a view
of their own.

Randomness discipline: one root generator seeded from the scenario. Per
instant the scheduler draws first, then active robots consume draws in
ascending ordinal order (each robot: its coin, then any sampling draws).
That ordering is what makes replay bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DigestMismatchError,
    ScenarioValidationError,
    TraceFormatError,
)
from .geometry import Point, distance
from .protocols import Protocol, ProtocolSpec
from .scheduler import SchedulerSpec
from .world import (
    Capabilities,
    Configuration,
    IDENTITY_FRAME,
    Robot,
    all_distinct,
    as_configuration,
    build_view,
    multiplicity_points,
    to_global,
    to_local,
)

TRACE_FORMAT = "scattersim-trace"
TRACE_VERSION = 1

STOP_RULES = ("none", "no_multiplicity", "gathered", "pattern_reached")


def _f17(x: float) -> str:
    """Decimal rendering with 17 significant digits (bit-faithful)."""
    return format(float(x), ".17g")


class RecordingSource:
    """Wraps a numpy Generator for protocol use.

    Integer draws are the protocol coins and are logged per robot so the
    trace can record them; the total draw count lets harnesses verify that
    a rule is coin-free.
    """

    def __init__(self, generator):
        self._g = generator
        self.total_draws = 0
        self._coins: list[int] = []

    def integers(self, low: int, high: int) -> int:
        self.total_draws += 1
        value = int(self._g.integers(low, high))
        self._coins.append(value)
        return value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        self.total_draws += 1
        return float(self._g.uniform(low, high))

    def begin_robot(self) -> None:
        self._coins = []

    def coins(self) -> tuple[int, ...]:
        return tuple(self._coins)


@dataclass(frozen=True)
class Scenario:
    """Complete, serializable description of one experiment."""

    robots: tuple[Robot, ...]
    initial: Configuration
    caps: Capabilities
    scheduler: SchedulerSpec
    protocol: ProtocolSpec
    seed: int
    max_steps: int
    stop_rule: str = "none"

    @property
    def n(self) -> int:
        return len(self.robots)

    def validate(self) -> None:
        if self.n < 1:
            raise ScenarioValidationError("robots: at least one robot is required")
        if len(self.initial) != self.n:
            raise ScenarioValidationError(
                f"positions: {len(self.initial)} positions for {self.n} robots"
            )
        for p in self.initial:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ScenarioValidationError(f"positions: non-finite position {p}")
        for i, r in enumerate(self.robots):
            if r.index != i:
                raise ScenarioValidationError("robots: ordinals must be 0..n-1 in order")
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise ScenarioValidationError("max_steps: must be a positive integer", "max_steps")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ScenarioValidationError("seed: must be an unsigned 64-bit integer", "seed")
        if self.stop_rule not in STOP_RULES:
            raise ScenarioValidationError(
                f"stop_rule: unknown rule {self.stop_rule!r}", "stop_rule"
            )
        self.scheduler.validate()
        self.protocol.validate(n=self.n, caps=self.caps)
        if self.stop_rule == "no_multiplicity" and not self.caps.multiplicity_detection:
            raise ScenarioValidationError(
                "stop_rule: no_multiplicity requires multiplicity_detection", "stop_rule"
            )
        if self.stop_rule == "pattern_reached" and not self.protocol.pattern:
            raise ScenarioValidationError(
                "stop_rule: pattern_reached requires a pattern", "stop_rule"
            )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "robots": [
            {
                "sigma": r.sigma,
                "frame": {
                    "origin": [r.frame.origin.x, r.frame.origin.y],
                    "rotation": r.frame.rotation,
                    "reflect": r.frame.reflect,
                    "unit": r.frame.unit,
                },
            }
            for r in s.robots
        ],
        "initial": [[p.x, p.y] for p in s.initial],
        "capabilities": {
            "multiplicity_detection": s.caps.multiplicity_detection,
            "localization_knowledge": s.caps.localization_knowledge,
        },
        "scheduler": {"kind": s.scheduler.kind, "param": s.scheduler.param},
        "protocol": {
            "kind": s.protocol.kind,
            "pattern": None
            if s.protocol.pattern is None
            else [[p.x, p.y] for p in s.protocol.pattern],
            "rule": s.protocol.rule,
        },
        "seed": s.seed,
        "max_steps": s.max_steps,
        "stop_rule": s.stop_rule,
    }


def scenario_from_dict(d: dict) -> Scenario:
    from .world import LocalFrame  # local import keeps module top light

    robots = tuple(
        Robot(
            index=i,
            sigma=float(r["sigma"]),
            frame=LocalFrame(
                origin=Point(float(r["frame"]["origin"][0]), float(r["frame"]["origin"][1])),
                rotation=float(r["frame"]["rotation"]),
                reflect=bool(r["frame"]["reflect"]),
                unit=float(r["frame"]["unit"]),
            ),
        )
        for i, r in enumerate(d["robots"])
    )
    pat = d["protocol"]["pattern"]
    return Scenario(
        robots=robots,
        initial=as_configuration(d["initial"]),
        caps=Capabilities(
            multiplicity_detection=bool(d["capabilities"]["multiplicity_detection"]),
            localization_knowledge=bool(d["capabilities"]["localization_knowledge"]),
        ),
        scheduler=SchedulerSpec(d["scheduler"]["kind"], d["scheduler"]["param"]),
        protocol=ProtocolSpec(
            kind=d["protocol"]["kind"],
            pattern=None if pat is None else tuple(Point(float(x), float(y)) for x, y in pat),
            rule=d["protocol"]["rule"],
        ),
        seed=int(d["seed"]),
        max_steps=int(d["max_steps"]),
        stop_rule=d["stop_rule"],
    )


def scenario_digest(s: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class StepOutcome:
    """Per-instant activity: how many robots were activated and how many
    actually changed position."""

    activated_count: int
    moved_count: int


@dataclass(frozen=True)
class StepRecord:
    t: int
    active: tuple[int, ...]
    coins: tuple[tuple[int, ...], ...]  # aligned with active
    targets: tuple[Point, ...]  # intended global targets, before the sigma cap
    config: Configuration  # resulting configuration (instant t + 1)


@dataclass(frozen=True)
class Trace:
    """Deterministically replayable record of one run."""

    scenario: Scenario
    digest: str
    initial: Configuration
    records: tuple[StepRecord, ...]
    status: str

    @property
    def n(self) -> int:
        return len(self.initial)

    def configs(self):
        """Configurations at instants 0, 1, ..., len(records)."""
        yield self.initial
        for rec in self.records:
            yield rec.config


def _advance(
    config: Configuration,
    activation,
    robots: tuple[Robot, ...],
    protocol: Protocol,
    caps: Capabilities,
    src: RecordingSource,
):
    active = tuple(sorted(activation))
    if not active:
        raise ScenarioValidationError("activation set must be non-empty")
    positions = list(config)
    coins_by = {}
    targets_by = {}
    moved = 0
    shared = None  # the one view that every identity-frame robot observes
    for i in active:
        robot = robots[i]
        frame = IDENTITY_FRAME if caps.localization_knowledge else robot.frame
        if not frame.is_identity:
            view = build_view(config, robot, caps)
        elif shared is None:
            view = shared = build_view(config, robot, caps)
        else:
            view = shared.seen_from(to_local(frame, config[robot.index]))
        src.begin_robot()
        local_target = protocol.decide(view, caps, robot.sigma, src)
        coins_by[i] = src.coins()
        target = to_global(frame, local_target)
        targets_by[i] = target
        cur = config[i]
        d = distance(cur, target)
        if d <= robot.sigma:
            new = Point(target.x, target.y)
        else:
            f = robot.sigma / d
            new = Point(cur.x + f * (target.x - cur.x), cur.y + f * (target.y - cur.y))
        if new != cur:
            moved += 1
        positions[i] = new
    outcome = StepOutcome(activated_count=len(active), moved_count=moved)
    coins = tuple(coins_by[i] for i in active)
    targets = tuple(targets_by[i] for i in active)
    return tuple(positions), outcome, active, coins, targets


def step(
    config: Configuration,
    activation,
    robots: tuple[Robot, ...],
    protocol: Protocol,
    caps: Capabilities,
    rng,
) -> tuple[Configuration, StepOutcome]:
    """One computation step. All views read ``config``; each active robot
    moves to its target if within its sigma, else exactly sigma along the
    straight segment toward it."""
    src = rng if isinstance(rng, RecordingSource) else RecordingSource(rng)
    new_config, outcome, _, _, _ = _advance(config, activation, robots, protocol, caps, src)
    return new_config, outcome


def _stop_hit(stop_rule: str, config: Configuration, sorted_pattern) -> bool:
    if stop_rule == "no_multiplicity":
        return all_distinct(config)
    if stop_rule == "gathered":
        first = config[0]
        return all(p == first for p in config)
    if stop_rule == "pattern_reached":
        return sorted(config) == sorted_pattern
    return False


def run(scenario: Scenario) -> Trace:
    """Execute the scenario to its stop rule or step budget."""
    scenario.validate()
    digest = scenario_digest(scenario)
    n = scenario.n
    g = np.random.default_rng(scenario.seed)
    sched = scenario.scheduler.build()
    protocol = scenario.protocol.build()
    src = RecordingSource(g)
    sorted_pattern = sorted(scenario.protocol.pattern) if scenario.protocol.pattern else None
    config = scenario.initial
    records: list[StepRecord] = []
    status = "budget_exhausted"
    if _stop_hit(scenario.stop_rule, config, sorted_pattern):
        status = f"stopped:{scenario.stop_rule}"
    else:
        for t in range(scenario.max_steps):
            activation = sched.next_activation(n, g)
            config, _, active, coins, targets = _advance(
                config, activation, scenario.robots, protocol, scenario.caps, src
            )
            records.append(StepRecord(t, active, coins, targets, config))
            if _stop_hit(scenario.stop_rule, config, sorted_pattern):
                status = f"stopped:{scenario.stop_rule}"
                break
    return Trace(
        scenario=scenario,
        digest=digest,
        initial=scenario.initial,
        records=tuple(records),
        status=status,
    )


@dataclass(frozen=True)
class ReplayVerdict:
    passed: bool
    first_divergence: int | None  # instant index, 0 = initial configuration
    message: str


_REPLAYED_FIELDS = (
    ("config", "configuration"),
    ("active", "activation set"),
    ("t", "instant counter"),
    ("coins", "coin record"),
    ("targets", "target record"),
)


def replay(trace: Trace) -> ReplayVerdict:
    """Re-execute the embedded scenario and compare every record field
    (configuration, activation set, ``t``, coins, targets) instant by
    instant, then the length and final status. Refuses to run on a
    digest mismatch."""
    if trace.digest != scenario_digest(trace.scenario):
        raise DigestMismatchError("trace digest does not match its embedded scenario")
    fresh = run(trace.scenario)
    if fresh.initial != trace.initial:
        return ReplayVerdict(False, 0, "initial configuration differs")
    for j, (a, b) in enumerate(zip(trace.records, fresh.records)):
        for field, name in _REPLAYED_FIELDS:
            if getattr(a, field) != getattr(b, field):
                return ReplayVerdict(False, j + 1, f"{name} diverges at instant {j + 1}")
    if len(fresh.records) != len(trace.records) or fresh.status != trace.status:
        k = min(len(fresh.records), len(trace.records)) + 1
        return ReplayVerdict(False, k, "trace length or final status differs")
    return ReplayVerdict(True, None, "identical")


def _pairs(points) -> str:
    return "[" + ",".join(f"[{_f17(p[0])},{_f17(p[1])}]" for p in points) + "]"


def write_trace(trace: Trace, path) -> None:
    """Line-delimited trace: a JSON header (format, version, digest, seed,
    n, embedded scenario), one JSON record per instant with floats rendered
    to 17 significant digits, and a status trailer."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "digest": trace.digest,
            "seed": trace.scenario.seed,
            "n": trace.n,
            "scenario": scenario_to_dict(trace.scenario),
        }
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for rec in trace.records:
            coins = "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in rec.coins) + "]"
            line = (
                f'{{"t":{rec.t},'
                f'"active":[{",".join(map(str, rec.active))}],'
                f'"coins":{coins},'
                f'"targets":{_pairs(rec.targets)},'
                f'"positions":{_pairs(rec.config)}}}'
            )
            fh.write(line + "\n")
        fh.write(json.dumps({"status": trace.status}) + "\n")


def load_trace(path) -> Trace:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad header: {exc}") from exc
    if header.get("format") != TRACE_FORMAT or header.get("version") != TRACE_VERSION:
        raise TraceFormatError("unrecognized trace format or version")
    try:
        scenario = scenario_from_dict(header["scenario"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad embedded scenario: {exc}") from exc
    try:
        trailer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad trailer: {exc}") from exc
    if "status" not in trailer:
        raise TraceFormatError("truncated trace: missing status trailer")
    n = len(scenario.initial)
    records = []
    for k, ln in enumerate(lines[1:-1]):
        try:
            obj = json.loads(ln)
            rec = StepRecord(
                t=int(obj["t"]),
                active=tuple(int(i) for i in obj["active"]),
                coins=tuple(tuple(int(c) for c in cs) for cs in obj["coins"]),
                targets=tuple(Point(float(x), float(y)) for x, y in obj["targets"]),
                config=tuple(Point(float(x), float(y)) for x, y in obj["positions"]),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise TraceFormatError(f"bad record line: {exc}") from exc
        if rec.t != k:
            raise TraceFormatError(f"record {k}: t = {rec.t}, expected {k}")
        if len(rec.config) != n:
            raise TraceFormatError(f"record {k}: {len(rec.config)} positions for {n} robots")
        if len(rec.coins) != len(rec.active) or len(rec.targets) != len(rec.active):
            raise TraceFormatError(f"record {k}: coins or targets not aligned with active")
        if any(not 0 <= i < n for i in rec.active):
            raise TraceFormatError(f"record {k}: active ordinal out of range 0..{n - 1}")
        records.append(rec)
    return Trace(
        scenario=scenario,
        digest=str(header["digest"]),
        initial=scenario.initial,
        records=tuple(records),
        status=str(trailer["status"]),
    )
