import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import (
    IDENTITY_FRAME,
    Capabilities,
    Point,
    ProtocolSpec,
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
    step,
    to_global,
    to_local,
    write_trace,
)
import scattersim.engine as engine_module
from scattersim.engine import StepRecord, Trace
from scattersim.errors import DigestMismatchError, ScenarioValidationError, TraceFormatError
from scattersim.protocols import Protocol

from conftest import ScriptedSource, make_scenario


class FixedTarget(Protocol):
    kind = "fixed"

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
    assert loaded.digest == trace.digest
    assert loaded.initial == trace.initial
    assert loaded.records == trace.records
    assert loaded.status == trace.status
    verdict = replay(loaded)
    assert verdict.passed
    assert verdict.message == "identical"


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
    tampered = Trace(
        scenario=trace.scenario,
        digest=trace.digest,
        initial=trace.initial,
        records=tuple(bad_records),
        status=trace.status,
    )
    verdict = replay(tampered)
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
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_load_trace_rejects_inconsistent_record(case, tmp_path):
    path = tmp_path / "t.trace"
    write_trace(run(make_scenario([(0, 0), (0, 0), (2, 1), (-1, 1)], max_steps=5)), path)
    lines = path.read_text().splitlines()
    edit, reason = BAD_RECORDS[case]
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=reason):
        load_trace(path)


def test_replay_refuses_digest_mismatch():
    scenario = make_scenario([(0, 0), (1, 1)], seed=3, max_steps=10)
    trace = run(scenario)
    other = replace(scenario, seed=4)
    forged = Trace(
        scenario=other,
        digest=trace.digest,
        initial=trace.initial,
        records=trace.records,
        status=trace.status,
    )
    with pytest.raises(DigestMismatchError):
        replay(forged)


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
