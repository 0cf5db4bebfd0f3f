"""Flat, human-writable scenario files.

Format: full-line comments (#), blank lines, [section] headers, and
``key = value`` pairs. Top-level keys come before any section. Unknown
sections or keys are errors. Parse diagnostics carry the offending line
number; a missing key names its section header's line (none at top level).

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
pattern kinds and ``rule = ...`` for the deterministic rule.
"""

from __future__ import annotations

import numpy as np

from .engine import Scenario
from .errors import ScenarioParseError
from .geometry import Point
from .protocols import ProtocolSpec
from .scheduler import SchedulerSpec
from .world import Capabilities, IDENTITY_FRAME, Robot, as_configuration, random_frame

# Stream label that keeps frame generation separate from run-time draws.
_FRAME_STREAM = 0x46524D45

_TOP_KEYS = {"version", "seed", "max_steps", "stop_rule"}
_SECTION_KEYS = {
    "robots": {"count", "positions", "sigma", "frames"},
    "capabilities": {"multiplicity_detection", "localization_knowledge"},
    "scheduler": {"kind", "p", "window"},
    "protocol": {"kind", "pattern", "rule"},
}


def _parse_bool(value: str, line: int) -> bool:
    v = value.strip().lower()
    if v in ("on", "true", "yes", "1"):
        return True
    if v in ("off", "false", "no", "0"):
        return False
    raise ScenarioParseError(line, f"expected a boolean, got {value!r}")


def _parse_points(value: str, line: int) -> tuple[Point, ...]:
    pts = []
    for token in value.split():
        try:
            xs, ys = token.split(",")
            pts.append(Point(float(xs), float(ys)))
        except ValueError:
            raise ScenarioParseError(line, f"expected x,y pairs, got {token!r}") from None
    if not pts:
        raise ScenarioParseError(line, "expected at least one x,y pair")
    return tuple(pts)


def _scan(text: str):
    """Yield (line_number, section, key, value) for every assignment, and
    (line_number, section, None, None) for every section header."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ScenarioParseError(lineno, f"unknown section [{section}]")
            yield lineno, section, None, None
            continue
        if "=" not in stripped:
            raise ScenarioParseError(lineno, "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        allowed = _TOP_KEYS if section is None else _SECTION_KEYS[section]
        if key not in allowed:
            where = "top level" if section is None else f"section [{section}]"
            raise ScenarioParseError(lineno, f"unknown key {key!r} in {where}")
        yield lineno, section, key, value


def parse_scenario_text(text: str) -> Scenario:
    top: dict[str, tuple[int, str]] = {}
    sections: dict[str, dict[str, tuple[int, str]]] = {name: {} for name in _SECTION_KEYS}
    headers: dict[str, int] = {}
    for lineno, section, key, value in _scan(text):
        if key is None:
            headers.setdefault(section, lineno)
            continue
        bucket = top if section is None else sections[section]
        if key in bucket:
            raise ScenarioParseError(lineno, f"duplicate key {key!r}")
        bucket[key] = (lineno, value)

    def need(bucket, key, section=None) -> tuple[int, str]:
        if key not in bucket:
            where = "top level" if section is None else f"[{section}]"
            raise ScenarioParseError(headers.get(section), f"missing required key {key!r} in {where}")
        return bucket[key]

    lineno, version = need(top, "version")
    if version.strip() != "1":
        raise ScenarioParseError(lineno, f"unsupported version {version!r}")
    lineno, seed_raw = need(top, "seed")
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ScenarioParseError(lineno, f"seed must be an integer, got {seed_raw!r}") from None
    lineno, steps_raw = need(top, "max_steps")
    try:
        max_steps = int(steps_raw)
    except ValueError:
        raise ScenarioParseError(lineno, f"max_steps must be an integer, got {steps_raw!r}") from None
    stop_rule = top.get("stop_rule", (0, "none"))[1]

    rob = sections["robots"]
    lineno, count_raw = need(rob, "count", "robots")
    try:
        count = int(count_raw)
    except ValueError:
        raise ScenarioParseError(lineno, f"count must be an integer, got {count_raw!r}") from None
    lineno, pos_raw = need(rob, "positions", "robots")
    positions = _parse_points(pos_raw, lineno)
    if len(positions) != count:
        raise ScenarioParseError(lineno, f"count = {count} but {len(positions)} positions given")
    lineno, sigma_raw = need(rob, "sigma", "robots")
    try:
        sigmas = [float(tok) for tok in sigma_raw.split()]
    except ValueError:
        raise ScenarioParseError(lineno, f"sigma must be numeric, got {sigma_raw!r}") from None
    if len(sigmas) == 1:
        sigmas = sigmas * count
    if len(sigmas) != count:
        raise ScenarioParseError(lineno, f"sigma needs 1 or {count} values, got {len(sigmas)}")
    frame_line, frame_mode = rob.get("frames", (0, "identity"))
    if frame_mode == "identity":
        frames = [IDENTITY_FRAME] * count
    elif frame_mode == "seeded-random":
        frame_rng = np.random.default_rng([seed, _FRAME_STREAM])
        frames = [random_frame(frame_rng) for _ in range(count)]
    else:
        raise ScenarioParseError(frame_line, f"frames must be identity or seeded-random")

    cap = sections["capabilities"]
    caps = Capabilities(
        multiplicity_detection=_parse_bool(*reversed(cap.get("multiplicity_detection", (0, "off")))),
        localization_knowledge=_parse_bool(*reversed(cap.get("localization_knowledge", (0, "off")))),
    )

    sch = sections["scheduler"]
    lineno, kind = need(sch, "kind", "scheduler")
    param: float | int | None = None
    if "p" in sch:
        p_line, p_raw = sch["p"]
        try:
            param = float(p_raw)
        except ValueError:
            raise ScenarioParseError(p_line, f"p must be numeric, got {p_raw!r}") from None
    if "window" in sch:
        w_line, w_raw = sch["window"]
        if param is not None:
            raise ScenarioParseError(w_line, "give either p or window, not both")
        try:
            param = int(w_raw)
        except ValueError:
            raise ScenarioParseError(w_line, f"window must be an integer, got {w_raw!r}") from None
    scheduler = SchedulerSpec(kind, param)

    pro = sections["protocol"]
    lineno, pkind = need(pro, "kind", "protocol")
    pattern = None
    if "pattern" in pro:
        pat_line, pat_raw = pro["pattern"]
        pattern = _parse_points(pat_raw, pat_line)
    rule = pro.get("rule", (0, None))[1]
    protocol = ProtocolSpec(kind=pkind, pattern=pattern, rule=rule)

    sigma_robots = tuple(
        Robot(index=i, sigma=sigmas[i], frame=frames[i]) for i in range(count)
    )
    scenario = Scenario(
        robots=sigma_robots,
        initial=as_configuration(positions),
        caps=caps,
        scheduler=scheduler,
        protocol=protocol,
        seed=seed,
        max_steps=max_steps,
        stop_rule=stop_rule,
    )
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())
