"""Scenarios: the record of one experiment, its JSON form and its file form.

A :class:`Scenario` fixes all that a run depends on. Its JSON form, which
a trace embeds, is :func:`scenario_to_dict`; :func:`scenario_digest`
hashes it, and :func:`scenario_from_dict` is the one constructor of a
Scenario from stored fields. The file form is flat, human-writable text:
:func:`parse_scenario_text` reads it into the JSON form and builds the
Scenario through :func:`scenario_from_dict`.

File format: full-line comments (#), blank lines, [section] headers, and
``key = value`` pairs. Top-level keys come before any section. Unknown
sections or keys are errors. Parse and validation diagnostics carry the
line of the key at fault; a missing key names its section header's line
(none at top level).

    version = 1
    seed = 42
    max_steps = 500
    stop_rule = none

    [robots]
    count = 3
    positions = 0,0 1,0 2,0
    sigma = 1.0
    frames = identity

    [capabilities]
    multiplicity_detection = off
    localization_knowledge = off

    [scheduler]
    kind = bernoulli
    p = 0.5

    [protocol]
    kind = scatter

``sigma`` takes one value (uniform) or one per robot. ``frames`` is
``identity`` or ``seeded-random`` (frames drawn deterministically from the
scenario seed). ``[protocol]`` accepts ``pattern = x,y x,y ...`` for the
pattern kinds and ``rule = ...`` for the deterministic rule. ``_KEYS``,
the one table of keys, sets the keys, their parsers and their defaults.
Of several faults, the first found is reported: faults of form in file
order, then keys in table order, then checks across keys, then validation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ScenarioParseError, ScenarioValidationError
from .geometry import Point
from .protocols import ProtocolSpec
from .scheduler import SchedulerSpec
from .world import (
    Capabilities,
    Configuration,
    IDENTITY_FRAME,
    LocalFrame,
    Robot,
    random_frame,
)

STOP_RULES = ("none", "no_multiplicity", "gathered", "pattern_reached")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        # A bool is an int, but neither a step count nor a seed.
        if not _is_int(self.max_steps) or self.max_steps < 1:
            raise ScenarioValidationError("max_steps: must be a positive integer", "max_steps")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ScenarioValidationError("seed: must be an unsigned 64-bit integer", "seed")
        if self.stop_rule not in STOP_RULES:
            raise ScenarioValidationError(f"stop_rule: unknown rule {self.stop_rule!r}", "stop_rule")
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


def _frame_dict(frame: LocalFrame) -> dict:
    return {
        "origin": [frame.origin.x, frame.origin.y],
        "rotation": frame.rotation,
        "reflect": frame.reflect,
        "unit": frame.unit,
    }


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "robots": [{"sigma": r.sigma, "frame": _frame_dict(r.frame)} for r in s.robots],
        "initial": [[p.x, p.y] for p in s.initial],
        "capabilities": asdict(s.caps),
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
    """The exact inverse of :func:`scenario_to_dict`: arrays become points
    and tuples, other values are kept as they are, non-finite positions refused."""
    robots = tuple(
        Robot(i, r["sigma"], LocalFrame(**dict(r["frame"], origin=Point(*r["frame"]["origin"]))))
        for i, r in enumerate(d["robots"])
    )
    initial = tuple(Point(x, y) for x, y in d["initial"])
    for p in initial:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ScenarioValidationError(f"non-finite position {p}", "robots.positions")
    pattern = d["protocol"]["pattern"]
    if pattern is not None:
        pattern = tuple(Point(x, y) for x, y in pattern)
    return Scenario(
        robots=robots,
        initial=initial,
        caps=Capabilities(**d["capabilities"]),
        scheduler=SchedulerSpec(**d["scheduler"]),
        protocol=ProtocolSpec(**dict(d["protocol"], pattern=pattern)),
        seed=d["seed"],
        max_steps=d["max_steps"],
        stop_rule=d["stop_rule"],
    )


def scenario_digest(s: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# Stream label that keeps frame generation separate from run-time draws.
_FRAME_STREAM = 0x46524D45


def _version(value: str) -> str:
    if value != "1":
        raise ValueError(f"unsupported version {value!r}")
    return value


def _frames(value: str) -> str:
    if value not in ("identity", "seeded-random"):
        raise ValueError("frames must be identity or seeded-random")
    return value


def _boolean(value: str) -> bool:
    v = value.lower()
    if v in ("on", "true", "yes", "1"):
        return True
    if v in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _points(value: str) -> list[list[float]]:
    pts = []
    for token in value.split():
        try:
            xs, ys = token.split(",")
            pts.append([float(xs), float(ys)])
        except ValueError:
            raise ValueError(f"expected x,y pairs, got {token!r}") from None
    if not pts:
        raise ValueError("expected at least one x,y pair")
    return pts


_REQUIRED = object()

# Every key a file may hold, as "section.key" (a bare key at top level), in
# the order that faults are reported: (parse, kind, default). ``parse``
# takes the value's text and raises ValueError to refuse it; the error
# reads "KEY must be KIND, got TEXT" when ``kind`` is given, else parse's
# own message. A key whose default is _REQUIRED must be present.
_KEYS = {
    "version": (_version, None, _REQUIRED),
    "seed": (int, "an integer", _REQUIRED),
    "max_steps": (int, "an integer", _REQUIRED),
    "stop_rule": (str, None, "none"),
    "robots.count": (int, "an integer", _REQUIRED),
    "robots.positions": (_points, None, _REQUIRED),
    "robots.sigma": (lambda text: [float(tok) for tok in text.split()], "numeric", _REQUIRED),
    "robots.frames": (_frames, None, "identity"),
    "capabilities.multiplicity_detection": (_boolean, None, False),
    "capabilities.localization_knowledge": (_boolean, None, False),
    "scheduler.kind": (str, None, _REQUIRED),
    "scheduler.p": (float, "numeric", None),
    "scheduler.window": (int, "an integer", None),
    "protocol.kind": (str, None, _REQUIRED),
    "protocol.pattern": (_points, None, None),
    "protocol.rule": (str, None, None),
}
_SECTIONS = {name.partition(".")[0] for name in _KEYS if "." in name}


def _scan(text: str):
    """The assignments of ``text`` as ``{name: (line, value)}``, ``name``
    the key's entry in ``_KEYS``, and the first header line of each section."""
    found: dict[str, tuple[int, str]] = {}
    headers: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioParseError(lineno, f"unknown section [{section}]")
            headers.setdefault(section, lineno)
            continue
        if "=" not in stripped:
            raise ScenarioParseError(lineno, "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        name = key if section is None else f"{section}.{key}"
        if name not in _KEYS or section is None and "." in key:
            where = "top level" if section is None else f"section [{section}]"
            raise ScenarioParseError(lineno, f"unknown key {key!r} in {where}")
        if name in found:
            raise ScenarioParseError(lineno, f"duplicate key {key!r}")
        found[name] = (lineno, value.strip())
    return found, headers


def parse_scenario_text(text: str) -> Scenario:
    found, headers = _scan(text)
    values: dict[str, dict] = {section: {} for section in ("", *_SECTIONS)}
    for name, (parse, kind, default) in _KEYS.items():
        section, _, key = name.rpartition(".")
        if name in found:
            lineno, value = found[name]
            try:
                values[section][key] = parse(value)
            except ValueError as exc:
                reason = str(exc) if kind is None else f"{key} must be {kind}, got {value!r}"
                raise ScenarioParseError(lineno, reason) from None
        elif default is _REQUIRED:
            where = f"[{section}]" if section else "top level"
            raise ScenarioParseError(headers.get(section), f"missing required key {key!r} in {where}")
        else:
            values[section][key] = default

    top, robots, sch = values[""], values["robots"], values["scheduler"]
    count, positions, sigmas = robots["count"], robots["positions"], robots["sigma"]
    if len(positions) != count:
        raise ScenarioParseError(
            found["robots.positions"][0], f"count = {count} but {len(positions)} positions given"
        )
    if len(sigmas) == 1:
        sigmas = sigmas * count
    if len(sigmas) != count:
        raise ScenarioParseError(
            found["robots.sigma"][0], f"sigma needs 1 or {count} values, got {len(sigmas)}"
        )
    p, window = sch["p"], sch["window"]
    if p is not None and window is not None:
        raise ScenarioParseError(found["scheduler.window"][0], "give either p or window, not both")
    # Frames are drawn from a valid seed only; validation refuses any other.
    if robots["frames"] == "identity" or not 0 <= top["seed"] < 2**64:
        frames = [IDENTITY_FRAME] * count
    else:
        frame_rng = np.random.default_rng([top["seed"], _FRAME_STREAM])
        frames = [random_frame(frame_rng) for _ in range(count)]

    stored = {
        "robots": [{"sigma": s, "frame": _frame_dict(f)} for s, f in zip(sigmas, frames)],
        "initial": positions,
        "capabilities": values["capabilities"],
        "scheduler": {"kind": sch["kind"], "param": window if p is None else p},
        "protocol": values["protocol"],
        "seed": top["seed"],
        "max_steps": top["max_steps"],
        "stop_rule": top["stop_rule"],
    }
    try:
        scenario = scenario_from_dict(stored)
        scenario.validate()
    except ScenarioValidationError as exc:
        section, _, key = (exc.field or "").rpartition(".")
        names = (f"{section}.p", f"{section}.window") if key == "param" else (exc.field,)
        line = next((found[n][0] for n in names if n in found), headers.get(section))
        if line is None:
            raise
        raise ScenarioValidationError(f"line {line}: {exc}", exc.field) from None
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(None, f"not UTF-8 text: {exc}") from exc
    return parse_scenario_text(text)
