import ast
import math
from dataclasses import replace
from pathlib import Path

import pytest

import scattersim
from scattersim import Point, load_scenario, parse_scenario_text, scenario_digest, scenario_text
from scattersim.errors import ScatterSimError, ScenarioParseError, ScenarioValidationError

VALID = """\
# demo scenario
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
"""


def test_valid_scenario_parses():
    scenario = parse_scenario_text(VALID)
    assert scenario.n == 3
    assert scenario.seed == 42
    assert scenario.max_steps == 500
    assert scenario.initial == (Point(0, 0), Point(1, 0), Point(2, 0))
    assert scenario.scheduler.kind == "bernoulli"
    assert scenario.scheduler.param == 0.5
    assert scenario.protocol.kind == "scatter"
    assert all(r.frame.is_identity for r in scenario.robots)


def test_sigma_list_and_uniform():
    text = VALID.replace("sigma = 1.0", "sigma = 1.0 2.0 0.5")
    scenario = parse_scenario_text(text)
    assert [r.sigma for r in scenario.robots] == [1.0, 2.0, 0.5]
    bad = VALID.replace("sigma = 1.0", "sigma = 1.0 2.0")
    with pytest.raises(ScenarioParseError, match="sigma"):
        parse_scenario_text(bad)


def test_seeded_random_frames_deterministic():
    text = VALID.replace("frames = identity", "frames = seeded-random")
    a = parse_scenario_text(text)
    b = parse_scenario_text(text)
    assert scenario_digest(a) == scenario_digest(b)
    assert not a.robots[0].frame.is_identity


def test_unknown_key_is_line_anchored_error():
    text = VALID + "mystery = 1\n"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario_text(text)
    assert "mystery" in str(err.value)
    assert err.value.line == len(VALID.splitlines()) + 1


def test_unknown_section_rejected():
    with pytest.raises(ScenarioParseError, match=r"unknown section"):
        parse_scenario_text(VALID + "[surprise]\nx = 1\n")


def test_duplicate_key_rejected():
    text = VALID.replace("seed = 42", "seed = 42\nseed = 43")
    with pytest.raises(ScenarioParseError, match="duplicate"):
        parse_scenario_text(text)


def test_count_position_mismatch():
    text = VALID.replace("count = 3", "count = 4")
    with pytest.raises(ScenarioParseError, match="count"):
        parse_scenario_text(text)


def test_bad_boolean():
    text = VALID.replace("multiplicity_detection = off", "multiplicity_detection = maybe")
    with pytest.raises(ScenarioParseError, match="boolean"):
        parse_scenario_text(text)


def test_missing_version_rejected():
    text = VALID.replace("version = 1\n", "")
    with pytest.raises(ScenarioParseError, match="version"):
        parse_scenario_text(text)


def test_missing_key_points_to_its_section_header():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario_text(VALID.replace("count = 3\n", ""))
    header = VALID.splitlines().index("[robots]") + 1
    assert err.value.line == header
    assert str(err.value) == f"line {header}: missing required key 'count' in [robots]"


def test_missing_top_level_key_has_no_line():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario_text(VALID.replace("seed = 42\n", ""))
    assert err.value.line is None
    assert str(err.value) == "missing required key 'seed' in top level"


def test_pattern_points_parse():
    text = (
        VALID.replace("kind = scatter", "kind = stabilized_pattern\npattern = 0,0 1,0 2,0")
        .replace("multiplicity_detection = off", "multiplicity_detection = on")
        .replace("localization_knowledge = off", "localization_knowledge = on")
    )
    scenario = parse_scenario_text(text)
    assert scenario.protocol.pattern == (Point(0, 0), Point(1, 0), Point(2, 0))


def test_validation_errors_surface():
    with pytest.raises(ScenarioValidationError, match="sigma"):
        parse_scenario_text(VALID.replace("sigma = 1.0", "sigma = 0.0"))
    two_robot_gather = (
        VALID.replace("count = 3", "count = 2")
        .replace("positions = 0,0 1,0 2,0", "positions = 0,0 1,0")
        .replace("kind = scatter", "kind = stabilized_gather")
        .replace("multiplicity_detection = off", "multiplicity_detection = on")
        .replace("localization_knowledge = off", "localization_knowledge = on")
    )
    with pytest.raises(ScenarioValidationError, match="n >= 3"):
        parse_scenario_text(two_robot_gather)


@pytest.mark.parametrize(
    "old, new, key_line, message",
    [
        ("sigma = 1.0", "sigma = 0.0", "sigma = 0.0", "sigma must be a positive finite length"),
        (
            "kind = scatter",
            "kind = stabilized_gather",
            "multiplicity_detection = off",
            "capabilities: protocol stabilized_gather requires multiplicity_detection",
        ),
        ("p = 0.5", "p = 1.5", "p = 1.5", "bernoulli scheduler needs p in (0, 1]"),
        ("p = 0.5\n", "", "[scheduler]", "bernoulli scheduler needs p in (0, 1]"),
        ("max_steps = 500", "max_steps = 0", "max_steps = 0", "max_steps: must be a positive integer"),
    ],
    ids=["sigma", "capabilities", "p", "p-absent", "max_steps"],
)
def test_validation_error_names_the_line_of_its_key(old, new, key_line, message):
    text = VALID.replace(old, new)
    line = text.splitlines().index(key_line) + 1
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario_text(text)
    assert str(err.value) == f"line {line}: {message}"


# One fault per variant of VALID: each reaches one raise of the parser or
# one branch of Scenario, SchedulerSpec or ProtocolSpec validation. Each
# case is (id, edits, class, message, line, field); an edit replaces text
# that VALID holds once, and a case with several edits makes the one
# change its fault needs plus the changes that keep the file otherwise
# valid. ``line`` and ``field`` are None where the error has no such
# attribute or it is None.
P, V = ScenarioParseError, ScenarioValidationError
CAPS_ON = [
    ("multiplicity_detection = off", "multiplicity_detection = on"),
    ("localization_knowledge = off", "localization_knowledge = on"),
]
TWO_ROBOTS = [("count = 3", "count = 2"), ("positions = 0,0 1,0 2,0", "positions = 0,0 1,0")]
ONE_FAULT = [
    # the scan: sections, assignments, keys
    ("unknown-section", [("[protocol]", "[protocols]")],
     P, "line 21: unknown section [protocols]", 21, None),
    ("not-an-assignment", [("count = 3", "count 3")], P, "line 8: expected 'key = value'", 8, None),
    ("unknown-top-key", [("stop_rule = none", "stop_rules = none")], P,
     "line 5: unknown key 'stop_rules' in top level", 5, None),
    ("dotted-top-key", [("stop_rule = none", "robots.count = 3")], P,
     "line 5: unknown key 'robots.count' in top level", 5, None),
    ("unknown-section-key", [("frames = identity", "frame = identity")], P,
     "line 11: unknown key 'frame' in section [robots]", 11, None),
    ("top-key-in-section", [("kind = scatter", "kind = scatter\nseed = 1")], P,
     "line 23: unknown key 'seed' in section [protocol]", 23, None),
    ("duplicate-top-key", [("seed = 42", "seed = 42\nseed = 43")],
     P, "line 4: duplicate key 'seed'", 4, None),
    ("duplicate-section-key", [("p = 0.5", "p = 0.5\np = 0.5")],
     P, "line 20: duplicate key 'p'", 20, None),
    # missing required keys
    ("missing-version", [("version = 1\n", "")],
     P, "missing required key 'version' in top level", None, None),
    ("missing-seed", [("seed = 42\n", "")],
     P, "missing required key 'seed' in top level", None, None),
    ("missing-max_steps", [("max_steps = 500\n", "")], P,
     "missing required key 'max_steps' in top level", None, None),
    ("missing-count", [("count = 3\n", "")],
     P, "line 7: missing required key 'count' in [robots]", 7, None),
    ("missing-positions", [("positions = 0,0 1,0 2,0\n", "")], P,
     "line 7: missing required key 'positions' in [robots]", 7, None),
    ("missing-sigma", [("sigma = 1.0\n", "")],
     P, "line 7: missing required key 'sigma' in [robots]", 7, None),
    ("missing-scheduler-kind", [("kind = bernoulli\n", "")], P,
     "line 17: missing required key 'kind' in [scheduler]", 17, None),
    ("missing-protocol-kind", [("kind = scatter\n", "")], P,
     "line 21: missing required key 'kind' in [protocol]", 21, None),
    ("missing-section", [("[protocol]\nkind = scatter\n", "")], P,
     "missing required key 'kind' in [protocol]", None, None),
    # values the parser refuses
    ("version", [("version = 1", "version = 2")], P, "line 2: unsupported version '2'", 2, None),
    ("seed-integer", [("seed = 42", "seed = 4.2")],
     P, "line 3: seed must be an integer, got '4.2'", 3, None),
    ("max_steps-integer", [("max_steps = 500", "max_steps = lots")], P,
     "line 4: max_steps must be an integer, got 'lots'", 4, None),
    ("count-integer", [("count = 3", "count = three")],
     P, "line 8: count must be an integer, got 'three'", 8, None),
    ("positions-pair", [("positions = 0,0 1,0 2,0", "positions = 0,0 1;0 2,0")], P,
     "line 9: expected x,y pairs, got '1;0'", 9, None),
    ("positions-empty", [("positions = 0,0 1,0 2,0", "positions =")], P,
     "line 9: expected at least one x,y pair", 9, None),
    ("count-positions", [("count = 3", "count = 4")],
     P, "line 9: count = 4 but 3 positions given", 9, None),
    ("sigma-numeric", [("sigma = 1.0", "sigma = one")],
     P, "line 10: sigma must be numeric, got 'one'", 10, None),
    ("sigma-values", [("sigma = 1.0", "sigma = 1.0 2.0")],
     P, "line 10: sigma needs 1 or 3 values, got 2", 10, None),
    ("frames", [("frames = identity", "frames = random")], P,
     "line 11: frames must be identity or seeded-random", 11, None),
    ("multiplicity-boolean", [("multiplicity_detection = off", "multiplicity_detection = maybe")],
     P, "line 14: expected a boolean, got 'maybe'", 14, None),
    ("localization-boolean", [("localization_knowledge = off", "localization_knowledge = 2")], P,
     "line 15: expected a boolean, got '2'", 15, None),
    ("p-numeric", [("p = 0.5", "p = half")], P, "line 19: p must be numeric, got 'half'", 19, None),
    ("window-integer", [("kind = bernoulli\np = 0.5", "kind = bounded_delay\nwindow = 2.5")], P,
     "line 19: window must be an integer, got '2.5'", 19, None),
    ("p-and-window", [("p = 0.5", "p = 0.5\nwindow = 4")],
     P, "line 20: give either p or window, not both", 20, None),
    ("pattern-pair",
     CAPS_ON + [("kind = scatter", "kind = reference_pattern\npattern = 0,0 1,0 x")],
     P, "line 23: expected x,y pairs, got 'x'", 23, None),
    ("pattern-empty", CAPS_ON + [("kind = scatter", "kind = reference_pattern\npattern =")], P,
     "line 23: expected at least one x,y pair", 23, None),
    # Scenario validation
    ("sigma-positive", [("sigma = 1.0", "sigma = 1.0 0 1.0")], V,
     "line 10: sigma must be a positive finite length", None, "robots.sigma"),
    ("position-finite", [("positions = 0,0 1,0 2,0", "positions = 0,0 inf,0 2,0")], V,
     "line 9: non-finite position Point(x=inf, y=0.0)", None, "robots.positions"),
    ("max_steps-positive", [("max_steps = 500", "max_steps = 0")], V,
     "line 4: max_steps: must be a positive integer", None, "max_steps"),
    ("seed-negative", [("seed = 42", "seed = -1")], V,
     "line 3: seed: must be an unsigned 64-bit integer", None, "seed"),
    ("seed-64-bit", [("seed = 42", "seed = 18446744073709551616")], V,
     "line 3: seed: must be an unsigned 64-bit integer", None, "seed"),
    ("stop_rule", [("stop_rule = none", "stop_rule = never")], V,
     "line 5: stop_rule: unknown rule 'never'", None, "stop_rule"),
    ("stop_rule-multiplicity", [("stop_rule = none", "stop_rule = no_multiplicity")], V,
     "line 5: stop_rule: no_multiplicity requires multiplicity_detection", None, "stop_rule"),
    ("stop_rule-pattern", [("stop_rule = none", "stop_rule = pattern_reached")], V,
     "line 5: stop_rule: pattern_reached requires a pattern", None, "stop_rule"),
    # SchedulerSpec validation
    ("scheduler-kind", [("kind = bernoulli", "kind = lottery")], V,
     "line 18: unknown scheduler kind 'lottery'", None, "scheduler.kind"),
    ("p-range", [("p = 0.5", "p = 1.5")],
     V, "line 19: bernoulli scheduler needs p in (0, 1]", None, "scheduler.param"),
    ("p-nan", [("p = 0.5", "p = nan")],
     V, "line 19: bernoulli scheduler needs p in (0, 1]", None, "scheduler.param"),
    ("p-absent", [("p = 0.5\n", "")],
     V, "line 17: bernoulli scheduler needs p in (0, 1]", None, "scheduler.param"),
    ("window-range", [("kind = bernoulli\np = 0.5", "kind = bounded_delay\nwindow = 0")], V,
     "line 19: bounded_delay scheduler needs an integer window >= 1", None, "scheduler.param"),
    ("window-given-p", [("kind = bernoulli", "kind = bounded_delay")], V,
     "line 19: bounded_delay scheduler needs an integer window >= 1", None, "scheduler.param"),
    ("scheduler-no-param", [("kind = bernoulli", "kind = round_robin")], V,
     "line 19: scheduler round_robin takes no parameter", None, "scheduler.param"),
    # ProtocolSpec validation
    ("protocol-kind", [("kind = scatter", "kind = spread")], V,
     "line 22: unknown protocol kind 'spread'", None, "protocol.kind"),
    ("pattern-needed", CAPS_ON + [("kind = scatter", "kind = reference_pattern")], V,
     "line 21: protocol reference_pattern needs a pattern", None, "protocol.pattern"),
    ("pattern-distinct",
     CAPS_ON + [("kind = scatter", "kind = reference_pattern\npattern = 0,0 0,0 1,0")],
     V, "line 23: pattern points must be pairwise distinct", None, "protocol.pattern"),
    ("pattern-size", CAPS_ON + [("kind = scatter", "kind = reference_pattern\npattern = 0,0 1,0")],
     V, "line 23: pattern has 2 points for 3 robots", None, "protocol.pattern"),
    ("pattern-refused", [("kind = scatter", "kind = scatter\npattern = 0,0 1,0 2,0")], V,
     "line 23: protocol scatter takes no pattern", None, "protocol.pattern"),
    ("rule-refused", [("kind = scatter", "kind = scatter\nrule = unit_x")], V,
     "line 23: protocol scatter takes no rule", None, "protocol.rule"),
    ("rule-unknown", [("kind = scatter", "kind = deterministic_rule\nrule = spin")], V,
     "line 23: unknown deterministic rule 'spin'", None, "protocol.rule"),
    ("needs-multiplicity", [("kind = scatter", "kind = stabilized_gather")], V,
     "line 14: capabilities: protocol stabilized_gather requires multiplicity_detection", None,
     "capabilities.multiplicity_detection"),
    ("needs-localization", CAPS_ON[:1] + [("kind = scatter", "kind = stabilized_gather")], V,
     "line 15: capabilities: protocol stabilized_gather requires localization_knowledge", None,
     "capabilities.localization_knowledge"),
    ("needs-section",
     [("[capabilities]\nmultiplicity_detection = off\nlocalization_knowledge = off\n", ""),
      ("kind = scatter", "kind = stabilized_gather")], V,
     "capabilities: protocol stabilized_gather requires multiplicity_detection", None,
     "capabilities.multiplicity_detection"),
    ("exact-n", [("kind = scatter", "kind = pair_gather")], V,
     "line 8: robots: pair_gather requires exactly n = 2", None, "robots.count"),
    ("min-n", CAPS_ON + TWO_ROBOTS + [("kind = scatter", "kind = stabilized_gather")], V,
     "line 8: robots: protocol stabilized_gather requires n >= 3", None, "robots.count"),
]


def _edited(edits):
    text = VALID
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def _reported(exc):
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)


@pytest.mark.parametrize(
    "edits, cls, message, line, field",
    [case[1:] for case in ONE_FAULT],
    ids=[case[0] for case in ONE_FAULT],
)
def test_one_fault_is_reported_by_class_message_line_and_field(edits, cls, message, line, field):
    with pytest.raises(ScatterSimError) as err:
        parse_scenario_text(_edited(edits))
    assert _reported(err.value) == (cls, message, line, field)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("frames", ["identity", "seeded-random"])
def test_a_bad_seed_is_reported_alike_under_either_frame_kind(seed, frames):
    # Random frames are drawn from the seed; a negative one once crashed
    # numpy's generator before validation could refuse it.
    text = _edited([("seed = 42", f"seed = {seed}"), ("frames = identity", f"frames = {frames}")])
    with pytest.raises(ScatterSimError) as err:
        parse_scenario_text(text)
    assert _reported(err.value) == (
        ScenarioValidationError, "line 3: seed: must be an unsigned 64-bit integer", None, "seed"
    )


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"\xff" + VALID.encode())
    with pytest.raises(ScatterSimError) as err:
        load_scenario(path)
    message = (
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )
    assert _reported(err.value) == (P, message, None, None)


BASE = parse_scenario_text(VALID)

# Faults that no file can hold, only a Scenario built in code.
API_FAULTS = [
    ("no-robots", {"robots": (), "initial": ()}, "robots: at least one robot is required", None),
    ("position-count", {"initial": BASE.initial[:2]}, "positions: 2 positions for 3 robots", None),
    ("position-finite", {"initial": (Point(math.inf, 0.0),) + BASE.initial[1:]},
     "positions: non-finite position Point(x=inf, y=0.0)", None),
    ("ordinals", {"robots": BASE.robots[::-1]}, "robots: ordinals must be 0..n-1 in order", None),
    ("max_steps-bool", {"max_steps": True}, "max_steps: must be a positive integer", "max_steps"),
    ("seed-bool", {"seed": True}, "seed: must be an unsigned 64-bit integer", "seed"),
]


@pytest.mark.parametrize(
    "changes, message, field",
    [case[1:] for case in API_FAULTS],
    ids=[case[0] for case in API_FAULTS],
)
def test_api_only_fault_is_reported_by_class_message_and_field(changes, message, field):
    with pytest.raises(ScatterSimError) as err:
        replace(BASE, **changes).validate()
    assert _reported(err.value) == (V, message, None, field)


def test_every_validation_field_names_a_key_of_the_table():
    """Each field that package code raises a ScenarioValidationError with
    names a key of the scenario file, so the parser can find its line;
    ``scheduler.param`` stands for ``p`` or ``window``. The one-fault
    tables reach every such field."""
    fields = set()
    for path in Path(scattersim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(getattr(node, "func", None), "id", None) == "ScenarioValidationError":
                assert not node.keywords, path
                field = node.args[1] if len(node.args) == 2 else None
                if isinstance(field, ast.Constant):
                    fields.add(field.value)
                else:  # none, or the field of the error the parser raises again
                    assert field is None or getattr(field, "attr", None) == "field", path
    for field in fields:
        names = ("scheduler.p", "scheduler.window") if field == "scheduler.param" else (field,)
        assert all(name in scenario_text._KEYS for name in names), field
    reached = {case[-1] for case in ONE_FAULT + API_FAULTS} - {None}
    assert reached == fields
