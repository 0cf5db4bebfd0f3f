import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import (
    IDENTITY_FRAME,
    Capabilities,
    LocalFrame,
    Point,
    ProtocolSpec,
    RecordingSource,
    ReplayVerdict,
    Robot,
    Scenario,
    SchedulerSpec,
    all_distinct,
    as_configuration,
    build_view,
    distance,
    load_trace,
    random_frame,
    replay,
    run,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
    step,
    to_global,
    to_local,
    write_trace,
)
import scattersim.engine as engine_module
import scattersim.protocols as protocols_module
from scattersim.engine import StepRecord
from scattersim.errors import (
    ContractViolationError,
    ScatterSimError,
    DigestMismatchError,
    ScenarioParseError,
    ScenarioValidationError,
    TraceFormatError,
)
from scattersim.protocols import DETERMINISTIC_RULES, Protocol
from scattersim.world import SMALL_CELL

from conftest import ScriptedSource, make_scenario


class FixedTarget(Protocol):
    def __init__(self, target):
        self.target = target

    def decide(self, view, caps, sigma, rng):
        return self.target


def test_inactive_robot_keeps_exact_position():
    config = as_configuration([(0.1, 0.2), (5.0, 5.0)])
    robots = (Robot(0, 1.0), Robot(1, 1.0))
    new, outcome = step(
        config, {0}, robots, FixedTarget(Point(9, 9)), Capabilities(), np.random.default_rng(0)
    )
    assert new[1] == Point(5.0, 5.0)
    assert outcome.activated_count == 1


def test_step_refuses_an_empty_activation_set():
    config = as_configuration([(0.1, 0.2), (5.0, 5.0)])
    robots = (Robot(0, 1.0), Robot(1, 1.0))
    with pytest.raises(ScenarioValidationError, match="non-empty"):
        step(config, set(), robots, FixedTarget(Point(9, 9)), Capabilities(), np.random.default_rng(0))


def test_travel_capped_exactly_at_sigma():
    config = as_configuration([(0, 0)])
    robots = (Robot(0, 2.0),)
    new, outcome = step(
        config, {0}, robots, FixedTarget(Point(5, 0)), Capabilities(), np.random.default_rng(0)
    )
    assert new[0] == Point(2.0, 0.0)
    assert outcome.moved_count == 1
    # A configuration of plain tuples is capped the same way.
    new, _ = step(
        ((0.0, 0.0),), {0}, robots, FixedTarget(Point(5, 0)), Capabilities(), np.random.default_rng(0)
    )
    assert new == (Point(2.0, 0.0),)


def test_capped_point_lies_on_segment():
    config = as_configuration([(1.0, 1.0)])
    robots = (Robot(0, 0.7),)
    target = Point(4.0, -3.0)
    new, _ = step(config, {0}, robots, FixedTarget(target), Capabilities(), np.random.default_rng(0))
    moved = distance(config[0], new[0])
    assert abs(moved - 0.7) <= 1e-12
    cross = (target.x - config[0].x) * (new[0].y - config[0].y) - (
        target.y - config[0].y
    ) * (new[0].x - config[0].x)
    assert abs(cross) <= 1e-12


def test_target_within_sigma_reached_bit_exactly():
    target = Point(0.75, -0.25)
    config = as_configuration([(0, 0)])
    robots = (Robot(0, 1.0),)
    new, _ = step(config, {0}, robots, FixedTarget(target), Capabilities(), np.random.default_rng(0))
    assert new[0] == target


def test_movement_cap_invariant_on_random_runs(rng):
    for seed in range(10):
        sigma = float(rng.uniform(0.2, 2.0))
        scenario = make_scenario(
            rng.uniform(-3, 3, (4, 2)),
            scheduler=("bernoulli", 0.6),
            sigma=sigma,
            seed=seed,
            max_steps=60,
        )
        trace = run(scenario)
        prev = trace.initial
        for rec in trace.records:
            for a, b in zip(prev, rec.config):
                assert distance(a, b) <= sigma * (1 + 1e-12)
            prev = rec.config


class ViewSpy(Protocol):
    """Records each view it is handed and moves the robot, so a view built
    after an earlier robot's move would differ from the pre-step one."""

    def __init__(self):
        self.views = []

    def decide(self, view, caps, sigma, rng):
        self.views.append(view)
        return Point(view.self_pos.x + 0.5, view.self_pos.y)


def test_every_view_is_built_from_the_pre_step_configuration():
    config = as_configuration([(0, 0), (1, 0), (4, 4)])
    robots = tuple(Robot(i, 1.0) for i in range(3))
    caps = Capabilities(multiplicity_detection=True, localization_knowledge=True)
    spy = ViewSpy()
    _, outcome = step(config, {0, 1, 2}, robots, spy, caps, np.random.default_rng(0))
    assert outcome.moved_count == 3
    assert spy.views == [build_view(config, robot, caps) for robot in robots]


def _mixed_frame_robots(n_identity, n_random, seed=0):
    frame_rng = np.random.default_rng(seed)
    frames = [None] * n_identity + [random_frame(frame_rng) for _ in range(n_random)]
    np.random.default_rng(seed + 1).shuffle(frames)
    return tuple(
        Robot(i, 1.0) if f is None else Robot(i, 1.0, frame=f) for i, f in enumerate(frames)
    )


@pytest.mark.parametrize("localization", [False, True])
@pytest.mark.parametrize("multiplicity", [False, True])
def test_shared_views_never_leak_across_frames(localization, multiplicity):
    robots = _mixed_frame_robots(n_identity=4, n_random=3)
    assert 0 < sum(r.frame.is_identity for r in robots) < len(robots)
    config = as_configuration([(0, 0), (0, 0), (1, 0), (4, 4), (4, 4), (-2, 3), (0.5, -1)])
    caps = Capabilities(multiplicity_detection=multiplicity, localization_knowledge=localization)
    spy = ViewSpy()
    step(config, set(range(len(robots))), robots, spy, caps, np.random.default_rng(0))
    assert len(spy.views) == len(robots)
    for robot, view in zip(robots, spy.views):
        expected = build_view(config, robot, caps)
        assert view == expected
        assert view.occupied.tobytes() == np.asarray(expected.points, dtype=float).tobytes()
        assert not view.occupied.flags.writeable  # shared by robots: no rule may edit it


@pytest.mark.parametrize("n_identity", [2, 3, 5])
@pytest.mark.parametrize("n_random", [0, 1, 2])
@pytest.mark.parametrize("localization", [False, True])
def test_one_view_built_per_instant_for_identity_frames(
    monkeypatch, n_identity, n_random, localization
):
    calls = []

    def counting_build_view(*args):
        calls.append(args)
        return build_view(*args)

    monkeypatch.setattr(engine_module, "build_view", counting_build_view)
    robots = _mixed_frame_robots(n_identity, n_random)
    n = len(robots)
    config = as_configuration([(float(i), 0.0) for i in range(n)])
    caps = Capabilities(localization_knowledge=localization)
    step(config, set(range(n)), robots, ViewSpy(), caps, np.random.default_rng(0))
    assert len(calls) == (1 if localization else 1 + n_random)


def test_stop_rule_checked_before_first_step():
    scenario = make_scenario(
        [(0, 0), (1, 0), (2, 0)],
        stop_rule="no_multiplicity",
        multiplicity=True,
        max_steps=50,
    )
    trace = run(scenario)
    assert trace.status == "stopped:no_multiplicity"
    assert len(trace.records) == 0


def test_gathered_stop_rule():
    scenario = make_scenario([(2, 2), (2, 2)], protocol="pair_gather", stop_rule="gathered")
    trace = run(scenario)
    assert trace.status == "stopped:gathered"
    assert len(trace.records) == 0


def test_run_is_deterministic():
    scenario = make_scenario([(0, 0), (0, 0), (1, 1)], seed=99, max_steps=40)
    t1 = run(scenario)
    t2 = run(scenario)
    assert t1 == t2


def test_trace_files_byte_identical(tmp_path):
    scenario = make_scenario([(0, 0), (0, 0)], seed=5, max_steps=30)
    p1 = tmp_path / "a.trace"
    p2 = tmp_path / "b.trace"
    write_trace(run(scenario), p1)
    write_trace(run(scenario), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pair_separation_time_matches_geometric_oracle():
    # Oracle: per-instant separation probability 3/4 under full activation,
    # so the stop instant is geometric with mean 4/3.
    total = 0
    trials = 10_000
    for seed in range(trials):
        scenario = make_scenario(
            [(0, 0), (0, 0)],
            seed=seed,
            max_steps=200,
            stop_rule="no_multiplicity",
            multiplicity=True,
        )
        trace = run(scenario)
        assert trace.status == "stopped:no_multiplicity"
        total += len(trace.records)
    mean = total / trials
    assert abs(mean - 4.0 / 3.0) <= 0.03


def test_trace_roundtrip_and_replay(tmp_path):
    scenario = make_scenario(
        [(0, 0), (0, 0), (2, 1)], scheduler=("bounded_delay", 3), seed=11, max_steps=50
    )
    trace = run(scenario)
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.scenario == trace.scenario
    assert loaded.records == trace.records
    assert loaded.status == trace.status
    verdict = replay(loaded)
    assert verdict.passed
    assert verdict.message == "identical"


def test_a_scenario_built_with_ints_replays_from_its_file(tmp_path):
    """scenario_from_dict keeps every value as it is, so a Scenario built
    in code with ints has its own digest after write and load, and its
    trace replays identical (int sigma, frame unit and rotation, points)."""
    frame = LocalFrame(origin=Point(1, -2), rotation=1, unit=2)
    scenario = Scenario(
        robots=(Robot(0, 1), Robot(1, 2, frame), Robot(2, 1)),
        initial=(Point(0, 0), Point(0, 0), Point(3, 1)),
        caps=Capabilities(),
        scheduler=SchedulerSpec("round_robin"),
        protocol=ProtocolSpec("scatter"),
        seed=1,
        max_steps=6,
    )
    path = tmp_path / "t.trace"
    write_trace(run(scenario), path)
    assert replay(load_trace(path)) == ReplayVerdict(True, None, "identical")
    rebuilt = scenario_from_dict(scenario_to_dict(scenario))
    assert scenario_digest(rebuilt) == scenario_digest(scenario)


def test_replay_detects_perturbed_position():
    scenario = make_scenario([(0, 0), (0, 0)], seed=3, max_steps=30)
    trace = run(scenario)
    k = len(trace.records) // 2
    rec = trace.records[k]
    bad_config = tuple(
        Point(p.x + 1e-9, p.y) if i == 0 else p for i, p in enumerate(rec.config)
    )
    bad_records = list(trace.records)
    bad_records[k] = StepRecord(rec.t, rec.active, rec.coins, rec.targets, bad_config)
    verdict = replay(replace(trace, records=tuple(bad_records)))
    assert not verdict.passed
    assert verdict.first_divergence == k + 1


TAMPER = {
    "t": ("instant counter", lambda r: r.t + 7),
    "coins": ("coin record", lambda r: tuple(tuple(1 - c for c in cs) for cs in r.coins)),
    "targets": ("target record", lambda r: tuple(Point(9.0, 9.0) for _ in r.targets)),
}


@pytest.mark.parametrize("field", sorted(TAMPER))
def test_replay_detects_tampered_record_field(field):
    name, tamper = TAMPER[field]
    trace = run(make_scenario([(0, 0), (0, 0), (2, 1)], seed=5, max_steps=20))
    records = tuple(replace(r, **{field: tamper(r)}) for r in trace.records)
    verdict = replay(replace(trace, records=records))
    assert not verdict.passed
    assert verdict.first_divergence == 1
    assert verdict.message == f"{name} diverges at instant 1"


def _edit_first_record(edit):
    def apply(lines):
        rec = json.loads(lines[1])
        edit(rec)
        lines[1] = json.dumps(rec)

    return apply


def _set(field, value):
    return _edit_first_record(lambda rec: rec.__setitem__(field, value(rec)))


def _pairs(field, pair):
    return _set(field, lambda rec: [pair(x, y) for x, y in rec[field]])


BAD = "record 0: bad record line: "
ACTIVE = BAD + "active must be an array of integers"
COINS = BAD + "coins must be an array of integer arrays"
PAIRS = BAD + "targets and positions must be arrays of [x, y] number pairs"

# The last entries hold a JSON type that write_trace never writes. Such a
# string, fraction or bool once loaded as a number, and replayed identical.
BAD_RECORDS = {
    "gap in t": (lambda lines: lines.pop(2), "t = 2, expected 1"),
    "repeated t": (lambda lines: lines.insert(2, lines[1]), "t = 0, expected 1"),
    "short positions row": (_edit_first_record(lambda r: r["positions"].pop()), "3 positions"),
    "coins not aligned": (_edit_first_record(lambda r: r["coins"].pop()), "not aligned"),
    "targets not aligned": (_edit_first_record(lambda r: r["targets"].append([0, 0])), "not aligned"),
    "ordinal out of range": (
        _edit_first_record(lambda r: r["active"].__setitem__(-1, 4)),
        "out of range",
    ),
    "t string": (_set("t", lambda r: "0"), BAD + "t must be an integer, not '0'"),
    "t fraction": (_set("t", lambda r: 0.9), BAD + "t must be an integer, not 0.9"),
    "t bool": (_set("t", lambda r: False), BAD + "t must be an integer, not False"),
    "active string": (_set("active", lambda r: [str(i) for i in r["active"]]), ACTIVE),
    "active bool": (_set("active", lambda r: [True] * len(r["active"])), ACTIVE),
    "active object": (_set("active", lambda r: {"0": 0}), ACTIVE),
    "coin string": (_set("coins", lambda r: [["0"] for _ in r["active"]]), COINS),
    "coin bool": (_set("coins", lambda r: [[True] for _ in r["active"]]), COINS),
    "coin row number": (_set("coins", lambda r: [0 for _ in r["active"]]), COINS),
    "coin row string": (_set("coins", lambda r: ["" for _ in r["active"]]), COINS),
    "target string": (_pairs("targets", lambda x, y: [str(x), y]), PAIRS),
    "target row object": (_set("targets", lambda r: {"12": 0}), PAIRS),
    "position string": (_pairs("positions", lambda x, y: [x, str(y)]), PAIRS),
    "position null": (_pairs("positions", lambda x, y: [None, y]), PAIRS),
    "position bool": (_pairs("positions", lambda x, y: [True, y]), PAIRS),
    "pair object": (_pairs("positions", lambda x, y: {"1": 0, "2": 0}), PAIRS),
    "pair string": (_pairs("positions", lambda x, y: "12"), PAIRS),
    "pair number": (_pairs("positions", lambda x, y: 5), BAD + "'int' object is not iterable"),
    "pair short": (_pairs("positions", lambda x, y: [x]), BAD + "not enough values to unpack"),
}


def _written(tmp_path, edit):
    """A short trace file after ``edit(lines)`` changed its lines."""
    path = tmp_path / "t.trace"
    write_trace(run(make_scenario([(0, 0), (0, 0), (2, 1), (-1, 1)], max_steps=5)), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_load_trace_rejects_inconsistent_record(case, tmp_path):
    edit, reason = BAD_RECORDS[case]
    with pytest.raises(TraceFormatError, match=re.escape(reason)):
        load_trace(_written(tmp_path, edit))


def _header(edit):
    def apply(lines):
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header)

    return apply


JSON_ERROR = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
NO_DIGEST = "bad header: not an object with a digest"
UNRECOGNIZED = "unrecognized trace format or version"
TRUNCATED = "truncated trace: missing status trailer"
DIGEST = "trace digest does not match its embedded scenario"


def _trailer(status: str):
    return lambda lines: lines.__setitem__(-1, f'{{"status": {status}}}')


# The trace of _written has stop rule none and max_steps 5.
_NOT_A_STATUS = "bad trailer: status {}, expected 'budget_exhausted'"


def _differs(key):
    return f"bad header: {key!r} does not match the embedded scenario"


BAD_ENDS = {
    "empty": (lambda lines: lines.clear(), "empty trace file"),
    "header json": (lambda lines: lines.__setitem__(0, "{"), f"bad header: {JSON_ERROR}"),
    "header array": (lambda lines: lines.__setitem__(0, "[]"), NO_DIGEST),
    "header digest": (_header(lambda h: h.pop("digest")), NO_DIGEST),
    "format": (_header(lambda h: h.__setitem__("format", "other")), UNRECOGNIZED),
    "version": (_header(lambda h: h.__setitem__("version", 2)), UNRECOGNIZED),
    "scenario": (_header(lambda h: h["scenario"].pop("robots")), "bad embedded scenario: 'robots'"),
    "scenario value": (
        _header(lambda h: h["scenario"]["robots"][0].__setitem__("sigma", -1)),
        "bad embedded scenario: sigma must be a positive finite length",
    ),
    "trailer json": (lambda lines: lines.__setitem__(-1, "{"), f"bad trailer: {JSON_ERROR}"),
    "trailer missing": (lambda lines: lines.pop(), TRUNCATED),
    "trailer number": (lambda lines: lines.__setitem__(-1, "5"), TRUNCATED),
    # The rows below each loaded once: the header's seed and n went
    # unread, and the embedded scenario was coerced by int() and bool().
    "digest": (_header(lambda h: h.__setitem__("digest", "0" * 64)), DIGEST),
    "header seed": (_header(lambda h: h.__setitem__("seed", 12345)), _differs("seed")),
    "header n": (_header(lambda h: h.__setitem__("n", 99)), _differs("n")),
    "version true": (_header(lambda h: h.__setitem__("version", True)), _differs("version")),
    "extra key": (_header(lambda h: h.__setitem__("extra", 0)), _differs("extra")),
    "embedded seed true": (_header(lambda h: h["scenario"].__setitem__("seed", True)), DIGEST),
    "embedded reflect 0": (
        _header(lambda h: h["scenario"]["robots"][0]["frame"].__setitem__("reflect", 0)),
        DIGEST,
    ),
    # The rows below each loaded, and export wrote the status as it was.
    "status number": (_trailer("5"), _NOT_A_STATUS.format("5")),
    "status null": (_trailer("null"), _NOT_A_STATUS.format("None")),
    "status array": (_trailer('["a"]'), _NOT_A_STATUS.format("['a']")),
    "status bogus": (_trailer('"bogus"'), _NOT_A_STATUS.format("'bogus'")),
    "status stopped:none": (_trailer('"stopped:none"'), _NOT_A_STATUS.format("'stopped:none'")),
    "status record count": (
        lambda lines: lines.pop(-2),
        "bad trailer: status 'budget_exhausted' after 4 records, not exactly max_steps = 5",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ENDS))
def test_load_trace_rejects_a_bad_header_or_trailer(case, tmp_path):
    edit, message = BAD_ENDS[case]
    with pytest.raises(DigestMismatchError if message == DIGEST else TraceFormatError) as err:
        load_trace(_written(tmp_path, edit))
    assert str(err.value) == message


def test_load_trace_validates_the_embedded_scenario(tmp_path):
    """A scenario that builds but that no run takes (``max_steps`` 0), its
    digest recomputed, is refused at load as ``run`` refuses it."""

    def edit(header):
        header["scenario"]["max_steps"] = 0
        header["digest"] = scenario_digest(scenario_from_dict(header["scenario"]))

    path = _written(tmp_path, _header(edit))
    with pytest.raises(ScenarioValidationError) as err:
        load_trace(path)
    with pytest.raises(ScenarioValidationError) as ran:
        run(scenario_from_dict(json.loads(path.read_text().splitlines()[0])["scenario"]))
    assert (str(err.value), err.value.field) == (str(ran.value), ran.value.field)


def test_load_trace_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.trace"
    path.write_bytes(b'{"format":"\xff"}\n')
    with pytest.raises(TraceFormatError) as err:
        load_trace(path)
    assert str(err.value) == (
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
    )


def test_replay_roundtrip_many_random_scenarios(tmp_path, rng):
    for i in range(10):
        n = int(rng.integers(2, 5))
        positions = [tuple(p) for p in rng.uniform(-2, 2, (n, 2))]
        if i % 2 == 0:
            positions[1] = positions[0]
        scenario = make_scenario(
            positions,
            scheduler=("bernoulli", 0.5) if i % 3 else ("bounded_delay", 3),
            seed=int(rng.integers(0, 2**63)),
            max_steps=40,
        )
        path = tmp_path / f"{i}.trace"
        write_trace(run(scenario), path)
        assert replay(load_trace(path)).passed


def test_scenario_validation_messages():
    with pytest.raises(ScenarioValidationError, match="sigma"):
        make_scenario([(0, 0)], sigma=0.0)
    with pytest.raises(ScenarioValidationError, match="n >= 3"):
        make_scenario(
            [(0, 0), (1, 1)],
            protocol="stabilized_gather",
            multiplicity=True,
            localization=True,
        ).validate()
    with pytest.raises(ScenarioValidationError, match="multiplicity"):
        make_scenario([(0, 0)] * 3, protocol="stabilized_gather", localization=True).validate()
    with pytest.raises(ScenarioValidationError, match="no_multiplicity"):
        make_scenario([(0, 0), (1, 1)], stop_rule="no_multiplicity").validate()
    with pytest.raises(ScenarioValidationError, match="pair_gather"):
        make_scenario([(0, 0)] * 3, protocol="pair_gather").validate()
    with pytest.raises(ScenarioValidationError, match="max_steps"):
        make_scenario([(0, 0)], max_steps=0).validate()


@pytest.mark.parametrize("field, value", [("seed", True), ("seed", False), ("max_steps", True)])
def test_bool_seed_and_max_steps_are_refused_on_their_field(field, value):
    # A trace stores a bool as true/false and loads it back as 1/0, so a
    # run that took one would fail its own replay's digest check.
    scenario = replace(make_scenario([(0, 0), (1, 1)]), **{field: value})
    with pytest.raises(ScenarioValidationError) as err:
        run(scenario)
    assert err.value.field == field


ROBOT_ERRORS = (
    ScenarioValidationError("boom", "protocol.rule"),
    ContractViolationError("boom"),
    ScenarioParseError(4, "boom"),  # its constructor takes (line, message)
)


@pytest.mark.parametrize("error", ROBOT_ERRORS, ids=lambda e: type(e).__name__)
def test_run_names_instant_robot_and_position_of_an_error(monkeypatch, error):
    n, instant, robot = 3, 4, 1
    decisions = iter(range(10**6))
    unit_x = DETERMINISTIC_RULES["unit_x"]

    def rule(view):
        # Full synchrony: every robot decides each instant, in ordinal order.
        if next(decisions) == instant * n + robot:
            raise error
        return unit_x(view)

    monkeypatch.setitem(DETERMINISTIC_RULES, "unit_x", rule)
    scenario = make_scenario(
        [(0.5, 0.0), (0.0, 0.25), (2.0, 2.0)], protocol="deterministic_rule", rule="unit_x"
    )
    with pytest.raises(ScatterSimError) as err:
        run(scenario)
    assert type(err.value) is type(error)
    assert vars(err.value) == vars(error)
    assert err.value.__cause__ is error
    assert str(err.value) == f"{error} (instant 4, robot 1 at (4.0, 0.25))"


def test_step_names_robot_and_position_of_an_error():
    class StuckAt(Protocol):
        def decide(self, view, caps, sigma, rng):
            if view.self_pos == Point(3.0, -1.5):
                raise ContractViolationError("no target")
            return view.self_pos

    robots = (Robot(0, 1.0), Robot(1, 1.0))
    config = as_configuration([(0.0, 0.0), (3.0, -1.5)])
    with pytest.raises(ContractViolationError) as err:
        step(config, {0, 1}, robots, StuckAt(), Capabilities(), np.random.default_rng(0))
    assert str(err.value) == "no target (robot 1 at (3.0, -1.5))"
    assert str(err.value.__cause__) == "no target"


@pytest.mark.parametrize(
    "kind", ["stabilized_pattern", "stabilized_gather", "reference_pattern", "reference_gather"]
)
def test_shared_frame_kinds_name_each_missing_capability(kind):
    pattern = (Point(0, 0), Point(1, 0), Point(2, 0)) if kind.endswith("pattern") else None
    for multiplicity, missing in ((False, "multiplicity_detection"), (True, "localization_knowledge")):
        scenario = make_scenario(
            [(0, 0), (1, 1), (2, 2)], protocol=kind, pattern=pattern, multiplicity=multiplicity
        )
        with pytest.raises(ScenarioValidationError) as err:
            scenario.validate()
        assert str(err.value) == f"capabilities: protocol {kind} requires {missing}"


def test_digest_covers_every_field():
    base = make_scenario([(0, 0), (1, 1)], seed=1, max_steps=10)
    assert scenario_digest(base) == scenario_digest(base)
    variants = [
        replace(base, seed=2),
        replace(base, max_steps=11),
        replace(base, stop_rule="gathered"),
        replace(base, scheduler=SchedulerSpec("round_robin")),
        replace(base, initial=as_configuration([(0, 0), (1, 2)])),
        replace(base, robots=(base.robots[0], Robot(1, 0.5))),
        replace(
            base,
            caps=Capabilities(multiplicity_detection=True),
        ),
    ]
    digests = {scenario_digest(v) for v in variants}
    assert scenario_digest(base) not in digests
    assert len(digests) == len(variants)


def test_closure_holds_along_scatter_runs(rng):
    # Once all robots occupy distinct points they stay distinct.
    for seed in range(20):
        scenario = make_scenario(
            [(0, 0), (0, 0), (1, 1), (1, 1)],
            scheduler=("bernoulli", 0.7),
            seed=seed,
            max_steps=80,
        )
        trace = run(scenario)
        seen_distinct = False
        for config in trace.configs():
            if seen_distinct:
                assert all_distinct(config)
            elif all_distinct(config):
                seen_distinct = True


def _reference_view(config, observer, caps):
    """``build_view`` as a loop through ``to_local`` for every frame."""
    frame = IDENTITY_FRAME if caps.localization_knowledge else observer.frame
    tally = {}
    for p in config:
        tally[p] = tally.get(p, 0) + 1
    pairs = sorted((to_local(frame, p), c) for p, c in tally.items())
    return (
        tuple(p for p, _ in pairs),
        tuple(c for _, c in pairs) if caps.multiplicity_detection else None,
        to_local(frame, config[observer.index]),
    )


def _bits(p):
    """A point's type and the exact bits of its coordinates."""
    return type(p), tuple(float(v).hex() for v in p)


class ScatterSpy(Protocol):
    """Scatter, recording each view it is handed and each target it
    returns; on request it returns a plain tuple, which the engine must
    still record as a Point."""

    def __init__(self, as_tuple):
        self.rule = ProtocolSpec("scatter").build()
        self.as_tuple = as_tuple
        self.views = []
        self.outputs = []

    def decide(self, view, caps, sigma, rng):
        self.views.append(view)
        out = self.rule.decide(view, caps, sigma, rng)
        out = tuple(out) if self.as_tuple else out
        self.outputs.append(out)
        return out


# Quarter-grid coordinates keep every cell well conditioned; -0.0 equals
# 0.0 but must keep its sign wherever a position is copied.
_coord = st.integers(-8, 8).map(lambda k: k / 4) | st.just(-0.0)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4, unique=True),
    picks=st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), min_size=2, max_size=6),
    plain_tuples=st.booleans(),
    localization=st.booleans(),
    multiplicity=st.booleans(),
    random_frames=st.booleans(),
    tuple_targets=st.booleans(),
    data=st.data(),
)
def test_identity_frames_copy_positions_bit_for_bit(
    pool, picks, plain_tuples, localization, multiplicity, random_frames, tuple_targets, data
):
    def flip_zero(v, flip):
        return -v if flip and v == 0.0 else v

    # Stacked robots: several picks of one pool point, some with a zero's
    # sign flipped, so equal positions can differ in their bits.
    config = tuple(
        (flip_zero(pool[k % len(pool)][0], fx), flip_zero(pool[k % len(pool)][1], fy))
        for k, fx, fy in picks
    )
    if not plain_tuples:
        config = tuple(Point(x, y) for x, y in config)
    n = len(config)
    caps = Capabilities(multiplicity_detection=multiplicity, localization_knowledge=localization)
    # Random frames only under localization knowledge, where the shared
    # identity frame replaces them.
    frame_rng = np.random.default_rng(n)
    robots = tuple(
        Robot(i, 1.0, random_frame(frame_rng) if random_frames and localization else IDENTITY_FRAME)
        for i in range(n)
    )

    def assert_reference_view(view, robot):
        points, counts, self_pos = _reference_view(config, robot, caps)
        assert [_bits(p) for p in view.points] == [_bits(p) for p in points]
        assert view.counts == counts
        assert _bits(view.self_pos) == _bits(self_pos)

    for robot in robots:
        assert_reference_view(build_view(config, robot, caps), robot)

    active = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    coins = data.draw(st.lists(st.integers(0, 1), min_size=len(active), max_size=len(active)))
    spy = ScatterSpy(tuple_targets)
    new, _, _, recorded_coins, targets = engine_module._advance(
        config, frozenset(active), robots, spy, caps, ScriptedSource(coins)
    )
    assert recorded_coins == tuple((c,) for c in coins)
    for i, view in zip(active, spy.views):  # shared views included
        assert_reference_view(view, robots[i])
    assert [_bits(t) for t in targets] == [_bits(to_global(IDENTITY_FRAME, o)) for o in spy.outputs]
    for i, coin, target in zip(active, coins, targets):
        if coin == 1:  # a stay keeps the exact position, sign of zero included
            assert _bits(new[i]) == _bits(Point(*config[i]))
        else:  # a move within sigma lands on its target
            assert _bits(new[i]) == _bits(target)
    for i in set(range(n)) - set(active):
        assert new[i] is config[i]
    # step takes the scripted source as it is and gives the same positions.
    stepped, _ = step(config, frozenset(active), robots, ScatterSpy(tuple_targets), caps, ScriptedSource(coins))
    assert [_bits(p) for p in stepped] == [_bits(p) for p in new]


# Two stacked pairs and a lone robot.
_FRAME_PROBE = [(0, 0), (0, 0), (2, 1), (2, 1), (-1, 3)]


def test_random_frame_scatter_runs_finish():
    """Each robot in its own random frame, Bernoulli 0.5 for 100 instants
    at 60 seeds. When a stay moved a robot by the round-off of
    ``to_global(to_local(p))``, co-located robots that both stayed ended
    up at near-coincident points, and the next cell built around them
    failed its start check in 15 of these 60 runs."""
    for seed in range(1000, 1060):
        frame_rng = np.random.default_rng(seed)
        frames = [random_frame(frame_rng) for _ in _FRAME_PROBE]
        scenario = make_scenario(
            _FRAME_PROBE, scheduler=("bernoulli", 0.5), seed=seed, max_steps=100, frames=frames
        )
        assert len(run(scenario).records) == 100


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4, unique=True),
    picks=st.lists(st.integers(0, 3), min_size=2, max_size=6),
    frame_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_private_frames_stay_and_land_bit_for_bit(pool, picks, frame_seed, data):
    """Under random frames, a scatter robot whose coin says stay keeps its
    exact position, and a pair_gather robot that jumps lands exactly on
    its partner."""
    frame_rng = np.random.default_rng(frame_seed)
    caps = Capabilities()

    def advance(config, protocol, sigma):
        robots = tuple(Robot(i, sigma, random_frame(frame_rng)) for i in range(len(config)))
        active = sorted(data.draw(st.sets(st.integers(0, len(config) - 1), min_size=1)))
        coins = data.draw(st.lists(st.integers(0, 1), min_size=len(active), max_size=len(active)))
        new, _, _, _, _ = engine_module._advance(
            config, frozenset(active), robots, protocol, caps, ScriptedSource(coins, frame_seed)
        )
        return new, dict(zip(active, coins))

    config = tuple(Point(*pool[k % len(pool)]) for k in picks)
    new, coins = advance(config, ProtocolSpec("scatter").build(), 1.0)
    for i, coin in coins.items():
        if coin == 1:
            assert _bits(new[i]) == _bits(config[i])
        else:
            assert new[i] != config[i]

    pair = (config[0], Point(*pool[-1]))
    new, coins = advance(pair, ProtocolSpec("pair_gather").build(), 10.0)
    for i, coin in coins.items():
        assert _bits(new[i]) == _bits(pair[i] if coin == 1 else pair[1 - i])


# Co-located identity-frame robots with one sigma decide once per instant
# when the decision draws nothing (the Protocol contract makes that exact).


class DecideSpy(Protocol):
    """The protocol ``spec`` builds, counting its calls per (observer's
    position object, sigma). An identity-frame view's ``self_pos`` is the
    configuration's own Point."""

    def __init__(self, spec):
        self.protocol = spec.build()
        self.calls = Counter()

    def decide(self, view, caps, sigma, rng):
        self.calls[id(view.self_pos), sigma] += 1
        return self.protocol.decide(view, caps, sigma, rng)


FULL_CAPS = Capabilities(multiplicity_detection=True, localization_knowledge=True)


def _spied_instant(spec, config, robots, caps=FULL_CAPS, seed=0):
    """Every robot active for one instant; the spy and ``_advance``'s result."""
    spy = DecideSpy(spec)
    src = RecordingSource(np.random.default_rng(seed))
    result = engine_module._advance(config, frozenset(range(len(config))), robots, spy, caps, src)
    return spy, result


def _reference_advance(config, active, robots, protocol, caps, src):
    """One instant robot by robot, with no decision reused: each active
    robot gets its own view and its rule's own answer. Returns the
    positions, coins and targets."""
    positions, coins, targets = list(config), [], []
    for i in active:
        robot = robots[i]
        frame = IDENTITY_FRAME if caps.localization_knowledge else robot.frame
        view = build_view(config, robot, caps)
        src.begin_robot()
        local = protocol.decide(view, caps, robot.sigma, src)
        coins.append(src.coins())
        if frame.is_identity:
            target = Point(local[0], local[1])
        elif local == view.self_pos:
            target = config[i]
        else:
            target = view.global_point(local)
            if target is None:
                target = to_global(frame, local)
        targets.append(target)
        cur = config[i]
        d = distance(cur, target)
        if target == cur or d <= robot.sigma:
            positions[i] = target
        else:
            f = robot.sigma / d
            positions[i] = Point(cur[0] + f * (target[0] - cur[0]), cur[1] + f * (target[1] - cur[1]))
    return tuple(positions), tuple(coins), tuple(targets)


_A, _B, _C = Point(0.5, 1.0), Point(-1.5, 2.0), Point(3.0, -0.5)
# One crowded position (four robots on _A's coordinates, three of them on
# _A itself, one on an equal copy), _B and _C alone.
_STACKED = (_A, _A, _B, _A, _C, Point(0.5, 1.0))
_COIN_FREE = [ProtocolSpec("deterministic_rule", rule=name) for name in DETERMINISTIC_RULES] + [
    ProtocolSpec("reference_gather")
]


@pytest.mark.parametrize("spec", _COIN_FREE, ids=lambda spec: spec.rule or spec.kind)
def test_coin_free_rules_decide_once_per_position_object_and_sigma(spec):
    # Robot 3 shares _A with robots 0 and 1 but not their sigma.
    robots = tuple(Robot(i, 2.0 if i == 3 else 1.0) for i in range(len(_STACKED)))
    spy, (new, _, _, coins, targets) = _spied_instant(spec, _STACKED, robots)
    keys = {(id(p), r.sigma) for p, r in zip(_STACKED, robots)}
    assert len(keys) == 5
    assert spy.calls == Counter(dict.fromkeys(keys, 1))
    assert coins == ((),) * len(_STACKED)
    src = RecordingSource(np.random.default_rng(0))
    ref = _reference_advance(_STACKED, range(len(_STACKED)), robots, spec.build(), FULL_CAPS, src)
    assert ([_bits(p) for p in new], [_bits(p) for p in targets]) == (
        [_bits(p) for p in ref[0]],
        [_bits(p) for p in ref[2]],
    )


def test_a_gathered_stabilized_gather_decides_once_per_position_object():
    config = (_A,) * 4 + (Point(*_A),)
    robots = tuple(Robot(i, 1.0) for i in range(len(config)))
    spy, (new, _, _, coins, _) = _spied_instant(ProtocolSpec("stabilized_gather"), config, robots)
    assert spy.calls == Counter({(id(_A), 1.0): 1, (id(config[-1]), 1.0): 1})
    assert new == config and coins == ((),) * len(config)


@pytest.mark.parametrize("kind, n", [("scatter", 4), ("pair_gather", 2)])
def test_rules_that_draw_decide_for_every_active_robot(kind, n):
    config = (_A,) * n
    robots = tuple(Robot(i, 1.0) for i in range(n))
    spy, (_, _, _, coins, _) = _spied_instant(ProtocolSpec(kind), config, robots, Capabilities())
    assert spy.calls == Counter({(id(_A), 1.0): n})
    assert all(len(c) == 1 for c in coins)


def test_co_located_robots_with_another_sigma_decide_apart():
    config = (_A,) * 4
    robots = tuple(Robot(i, (1.0, 0.25)[i % 2]) for i in range(4))
    spy, (new, _, _, _, targets) = _spied_instant(
        ProtocolSpec("deterministic_rule", rule="unit_x"), config, robots
    )
    assert spy.calls == Counter({(id(_A), 1.0): 1, (id(_A), 0.25): 1})
    assert targets == (Point(1.5, 1.0),) * 4
    assert new == (Point(1.5, 1.0), Point(0.75, 1.0)) * 2


def test_equal_positions_of_either_zero_sign_decide_apart_and_keep_it():
    plus, minus = Point(0.0, 1.0), Point(-0.0, 1.0)
    config = (plus, minus, plus, minus)
    robots = tuple(Robot(i, 1.0) for i in range(4))
    spy, (new, _, _, _, targets) = _spied_instant(
        ProtocolSpec("deterministic_rule", rule="unit_y"), config, robots, Capabilities()
    )
    assert spy.calls == Counter({(id(plus), 1.0): 1, (id(minus), 1.0): 1})
    signs = [math.copysign(1.0, p.x) for p in new]
    assert signs == [math.copysign(1.0, t.x) for t in targets] == [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize("localization", [False, True])
def test_private_frames_decide_apart_unless_localization_replaces_them(localization):
    # Robot 0 observes through the identity frame and decides first.
    frame_rng = np.random.default_rng(5)
    robots = (Robot(0, 1.0),) + tuple(Robot(i, 1.0, random_frame(frame_rng)) for i in range(1, 4))
    caps = Capabilities(localization_knowledge=localization)
    spec = ProtocolSpec("deterministic_rule", rule="unit_x")
    spy, (new, _, _, _, _) = _spied_instant(spec, (_A,) * 4, robots, caps)
    assert sum(spy.calls.values()) == (1 if localization else 4)
    src = RecordingSource(np.random.default_rng(0))
    ref, _, _ = _reference_advance((_A,) * 4, range(4), robots, spec.build(), caps, src)
    assert [_bits(p) for p in new] == [_bits(p) for p in ref]


_REUSE_SPECS = [ProtocolSpec(kind) for kind in ("scatter", "pair_gather", "stabilized_gather")] + _COIN_FREE
_FOUR_SCHEDULERS = [
    ("full_synchronous", None),
    ("round_robin", None),
    ("bernoulli", 0.5),
    ("bounded_delay", 3),
]


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=3, unique=True),
    picks=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["same", "same", "copy", "flip"]),
            st.sampled_from([1.0, 1.0, 0.5]),
        ),
        min_size=3,
        max_size=6,
    ),
    spec=st.sampled_from(_REUSE_SPECS),
    scheduler=st.sampled_from(_FOUR_SCHEDULERS),
    private=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reused_decisions_match_a_per_robot_loop_bit_for_bit(pool, picks, spec, scheduler, private, seed):
    """Stacked starts: a robot stands on a pool Point itself, on an equal
    copy, or on a copy with its zeros' signs flipped. Over four instants,
    ``_advance`` and the per-robot reference give the same positions,
    coins and targets bit for bit and leave the generator in one state."""
    objects = [Point(*p) for p in pool]

    def place(k, how):
        p = objects[k % len(objects)]
        if how == "same":
            return p
        if how == "copy":
            return Point(p.x, p.y)
        return Point(-p.x if p.x == 0 else p.x, -p.y if p.y == 0 else p.y)

    if spec.kind == "pair_gather":
        picks = picks[:2]
    config = tuple(place(k, how) for k, how, _ in picks)
    n = len(config)
    if spec.kind in ("reference_gather", "stabilized_gather"):  # they need a shared frame
        caps, private = FULL_CAPS, False
    else:
        caps = Capabilities(multiplicity_detection=True)
    # Under private frames, every other robot keeps the identity frame.
    frame_rng = np.random.default_rng(seed)
    robots = tuple(
        Robot(i, sigma, random_frame(frame_rng) if private and i % 2 else IDENTITY_FRAME)
        for i, (_, _, sigma) in enumerate(picks)
    )
    protocol = spec.build()
    g, g_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    src, src_ref = RecordingSource(g), RecordingSource(g_ref)
    sched, sched_ref = SchedulerSpec(*scheduler).build(), SchedulerSpec(*scheduler).build()
    new = ref = config
    for _ in range(4):
        activation = sched.next_activation(n, g)
        assert sched_ref.next_activation(n, g_ref) == activation
        try:
            ref, ref_coins, ref_targets = _reference_advance(
                ref, sorted(activation), robots, protocol, caps, src_ref
            )
        except ScatterSimError as exc:  # e.g. two crowded positions for reference_gather
            with pytest.raises(type(exc)):
                engine_module._advance(new, activation, robots, protocol, caps, src)
            return
        new, _, _, coins, targets = engine_module._advance(new, activation, robots, protocol, caps, src)
        assert coins == ref_coins
        assert [_bits(p) for p in targets] == [_bits(p) for p in ref_targets]
        assert [_bits(p) for p in new] == [_bits(p) for p in ref]
        assert g.bit_generator.state == g_ref.bit_generator.state


def _roundtrip_shaped():
    """24 robots from a corrupted start (a triple and three stacked pairs),
    sigma 10, ``bounded_delay`` 4, ``stabilized_gather``, 200 instants."""
    rng = np.random.default_rng(2024)
    pts = [tuple(p) for p in rng.uniform(-4.0, 4.0, size=(19, 2))]
    positions = [pts[0]] * 3 + [p for p in pts[1:4] for _ in range(2)] + pts[4:]
    return make_scenario(
        positions,
        protocol="stabilized_gather",
        scheduler=("bounded_delay", 4),
        sigma=10.0,
        seed=18,
        max_steps=200,
        multiplicity=True,
        localization=True,
    )


def _count_calls(monkeypatch, module, name, key=lambda *args: None) -> Counter:
    """Calls of ``module.name`` from now on, counted under ``key(*args)``."""
    calls = Counter()
    fn = getattr(module, name)

    def counted(*args):
        calls[key(*args)] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_roundtrip_shaped_run_decides_a_pinned_number_of_times(monkeypatch):
    """The robots gather within about 40 instants and then stay on two
    equal Point objects, so the configuration stays one object for the
    rest of the run. Robots on one object decide once per instant, and a
    decision stands from one instant to the next while no robot changes
    the configuration: after gathering, the rule runs once per object in
    all. A count near the activations again means the reuse is gone; 578,
    the count when a decision stands only within its instant, means the
    reuse no longer spans instants."""
    calls = _count_calls(monkeypatch, protocols_module, "stabilized_gather_step")
    trace = run(_roundtrip_shaped())
    final = trace.records[-1].config
    assert all(p == final[0] for p in final)
    activations = sum(len(rec.active) for rec in trace.records)
    assert (calls[None], activations) == (262, 2575)


def test_a_gathered_stabilized_gather_decides_once_per_stationary_stretch(monkeypatch):
    """A stretch is a run of instants that start from one configuration
    object. Once the swarm has gathered, that object stands for the rest of
    the run, and the rule is called once per position object in it."""
    seen = []
    advance = engine_module._advance

    def observed(config, *args):
        seen.append(config)
        return advance(config, *args)

    monkeypatch.setattr(engine_module, "_advance", observed)
    calls = _count_calls(
        monkeypatch, protocols_module, "stabilized_gather_step", lambda *args: id(seen[-1])
    )
    trace = run(_roundtrip_shaped())
    final = trace.records[-1].config
    assert all(p == final[0] for p in final)
    stretch = [config for config in seen if config is final]
    assert len(stretch) > 100 and all(rec.config is final for rec in trace.records[-len(stretch) :])
    assert calls[id(final)] == len({id(p) for p in final})


def test_a_scatter_instant_that_changes_nothing_decides_again_next_instant(monkeypatch):
    """Every active coin of some instant says stay, so the configuration
    stays one object; scatter decisions draw, so none stands, and every
    activation of the next instant draws its own coin."""
    calls = _count_calls(monkeypatch, protocols_module, "scatter_from")
    trace = run(make_scenario([(0, 0), (0, 0), (0, 0)], seed=3, max_steps=30))
    records = trace.records
    still = [k for k in range(1, len(records) - 1) if records[k].config is records[k - 1].config]
    assert still
    assert all(len(c) == 1 for k in still for c in records[k + 1].coins)
    assert calls[None] == sum(len(rec.active) for rec in trace.records)


def test_a_private_frame_robot_decides_at_every_activation(monkeypatch):
    """A rule that always stays leaves the configuration one object for the
    whole run, and all four robots stand on one position object. Robots 0
    and 1 observe through the identity frame, so they decide once in all;
    the private-frame robots 2 and 3 decide at every activation."""
    frames = [IDENTITY_FRAME, IDENTITY_FRAME] + [random_frame(np.random.default_rng(k)) for k in (5, 6)]
    calls = []

    def counted_stay(view):
        calls.append(view)
        return view.self_pos

    monkeypatch.setitem(protocols_module.DETERMINISTIC_RULES, "unit_x", counted_stay)
    scenario = make_scenario(
        [(0, 0)] * 4,
        protocol="deterministic_rule",
        rule="unit_x",
        scheduler=("bernoulli", 0.5),
        max_steps=20,
        frames=frames,
    )
    scenario = replace(scenario, initial=(scenario.initial[0],) * 4)
    trace = run(scenario)
    assert all(rec.config is scenario.initial for rec in trace.records)
    private = sum(i >= 2 for rec in trace.records for i in rec.active)
    assert len(calls) == 1 + private


def test_step_given_a_list_returns_a_tuple():
    """A configuration no robot changed is handed back as it is, but a list
    becomes a tuple, as the configuration type is."""
    config = [Point(0.0, 0.0), Point(1.0, 0.0)]
    robots = (Robot(0, 1.0), Robot(1, 1.0))
    new, outcome = step(config, {0}, robots, FixedTarget(config[0]), Capabilities(), np.random.default_rng(0))
    assert type(new) is tuple and new == tuple(config) and new[0] is config[0]
    assert outcome == engine_module.StepOutcome(1, 0)


# Plain scatter decides for identity-frame robots through its ``from_points``
# body, from positions; with that Kind field set to None it decides through
# ``decide`` on a View, as every other kind does.


def _scatter_on_views(mp):
    """Take plain scatter's ``from_points`` body away for ``mp``'s lifetime."""
    kind = protocols_module.KINDS["scatter"]
    mp.setitem(protocols_module.KINDS, "scatter", replace(kind, from_points=None))


def _run_bits(scenario):
    """Every record field of a run, positions and targets as exact bits, and
    its status; or the class and message of the error it raised."""
    try:
        trace = run(scenario)
    except ScatterSimError as exc:
        return type(exc), str(exc)
    records = [
        (rec.t, rec.active, rec.coins, [_bits(p) for p in rec.targets], [_bits(p) for p in rec.config])
        for rec in trace.records
    ]
    return records, trace.status


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40) | st.just(SMALL_CELL + 1),
    start=st.sampled_from(["spread", "stacked", "collapsed"]),
    signed_zero=st.booleans(),
    sigmas=st.lists(st.sampled_from([1.0, 0.5, 3.0]), min_size=1, max_size=3),
    scheduler=st.sampled_from(_FOUR_SCHEDULERS),
    frames=st.sampled_from(["identity", "localized", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scatter_from_positions_matches_the_view_path_bit_for_bit(
    n, start, signed_zero, sigmas, scheduler, frames, seed
):
    """Spread, stacked-pair and collapsed starts, one past ``SMALL_CELL``
    among them, optionally with a co-located ``(0.0, y)`` / ``(-0.0, y)``
    pair. Frames are all identity, all random under localization knowledge
    (so every robot observes through the identity frame) or every other one
    random, each robot with one of a few sigmas. A run gives the same
    positions, targets (signs of zero included), coins and status whether
    plain scatter decides from positions or on views, and so does one
    ``step`` of every robot on a list of plain tuples."""
    rng = np.random.default_rng(seed)
    sites = [tuple(p) for p in rng.uniform(-10.0, 10.0, (n, 2))]
    if start == "stacked":
        sites = [sites[k // 2] for k in range(n)]
    elif start == "collapsed":
        sites = [sites[0]] * n
    if signed_zero:
        y = sites[0][1]
        sites[:2] = [(0.0, y), (-0.0, y)]
    frame_rng = np.random.default_rng(seed + 1)
    robots = tuple(
        Robot(i, sigmas[i % len(sigmas)], random_frame(frame_rng))
        if frames == "localized" or frames == "mixed" and i % 2
        else Robot(i, sigmas[i % len(sigmas)])
        for i in range(n)
    )
    scenario = Scenario(
        robots=robots,
        initial=as_configuration(sites),
        caps=Capabilities(localization_knowledge=frames == "localized"),
        scheduler=SchedulerSpec(*scheduler),
        protocol=ProtocolSpec("scatter"),
        seed=seed,
        max_steps=8,
        stop_rule="none",
    )

    def stepped():
        g = np.random.default_rng(seed)
        protocol = ProtocolSpec("scatter").build()
        new, outcome = step(list(map(tuple, sites)), range(n), robots, protocol, scenario.caps, g)
        return [_bits(p) for p in new], outcome, g.bit_generator.state

    got = _run_bits(scenario), stepped()
    with pytest.MonkeyPatch.context() as mp:
        _scatter_on_views(mp)
        want = _run_bits(scenario), stepped()
    assert got == want


def test_plain_scatter_builds_no_view_up_to_small_cell(monkeypatch):
    """Every robot active: over ``SMALL_CELL`` distinct points an instant
    builds no view and calls no ``decide``; over one point more it builds
    the one view that the reach grid needs."""
    views = _count_calls(monkeypatch, engine_module, "build_view")
    decisions = _count_calls(monkeypatch, protocols_module.KindProtocol, "decide")
    for m, built in ((SMALL_CELL, 0), (SMALL_CELL + 1, 1)):
        config = as_configuration([(float(k), 0.0) for k in range(m)])
        robots = tuple(Robot(k, 1.0) for k in range(m))
        new, _ = step(config, range(m), robots, ProtocolSpec("scatter").build(), Capabilities(), np.random.default_rng(0))
        assert new != config
        assert (views[None], decisions[None]) == (built, 0)


def test_a_failing_cell_is_located_on_the_positions_path():
    """A cell that fails its start check (ROADMAP item 7), reached by the
    first coin of seed 1, a 0: ``run`` and ``step`` name the instant (in
    ``run``), the robot and its position, the original chained."""
    positions = [(1e12, 0.0), (1e12 + 1.0, 0.0)]
    assert np.random.default_rng(1).integers(0, 2) == 0
    cause = "current position must lie strictly inside the cell"
    with pytest.raises(ContractViolationError) as err:
        run(make_scenario(positions, seed=1))
    assert str(err.value) == f"{cause} (instant 0, robot 0 at (1000000000000.0, 0.0))"
    assert type(err.value.__cause__) is ContractViolationError and str(err.value.__cause__) == cause
    robots = (Robot(0, 1.0), Robot(1, 1.0))
    with pytest.raises(ContractViolationError) as err:
        step(positions, {0, 1}, robots, ProtocolSpec("scatter").build(), Capabilities(), np.random.default_rng(1))
    assert str(err.value) == f"{cause} (robot 0 at (1000000000000.0, 0.0))"
    assert type(err.value.__cause__) is ContractViolationError and str(err.value.__cause__) == cause
