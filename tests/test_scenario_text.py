import pytest

from scattersim import Point, parse_scenario_text, scenario_digest
from scattersim.errors import ScenarioParseError, ScenarioValidationError

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
