"""Trace I/O against value-by-value reference renderers.

``write_trace`` and ``export --format csv-positions`` render a Point
object once and reuse its text wherever the object recurs, and
``load_trace`` builds one Point per distinct pair of number texts. The reference
loops below render every coordinate of every record on its own, as
17-significant-digit ``format`` calls; the property compares both outputs
with them byte for byte over random traces, and checks that write then
load keeps the bits of every coordinate, the sign of a zero included.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import Point, ReplayVerdict, load_trace, replay, run, write_trace
from scattersim.errors import TraceFormatError
from scattersim.cli import main
from scattersim.engine import (
    StepRecord,
    Trace,
    TRACE_FORMAT,
    TRACE_VERSION,
    scenario_digest,
    scenario_to_dict,
)

from conftest import make_scenario


# A hand-made trace is not a run of any protocol. A run under a stop rule
# may end stopped after any number of records up to max_steps, so a
# hand-made trace of up to 10 records ends that way and loads.
HAND_MADE = dict(max_steps=10, stop_rule="gathered")
HAND_MADE_STATUS = "stopped:gathered"


def _ref_f17(x):
    return format(float(x), ".17g")


def _ref_pairs(points):
    return "[" + ",".join(f"[{_ref_f17(p[0])},{_ref_f17(p[1])}]" for p in points) + "]"


def reference_trace_text(trace):
    """The trace file, every coordinate rendered on its own."""
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "digest": scenario_digest(trace.scenario),
        "seed": trace.scenario.seed,
        "n": trace.n,
        "scenario": scenario_to_dict(trace.scenario),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for rec in trace.records:
        coins = "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in rec.coins) + "]"
        lines.append(
            f'{{"t":{rec.t},'
            f'"active":[{",".join(map(str, rec.active))}],'
            f'"coins":{coins},'
            f'"targets":{_ref_pairs(rec.targets)},'
            f'"positions":{_ref_pairs(rec.config)}}}'
        )
    lines.append(json.dumps({"status": trace.status}))
    return "\n".join(lines) + "\n"


def reference_positions_csv(trace):
    """``export --format csv-positions``, every coordinate rendered on its own."""
    lines = ["# scattersim csv-positions v1", "t,robot,x,y"]
    for rec in trace.records:
        for i, p in enumerate(rec.config):
            lines.append(f"{rec.t + 1},{i},{_ref_f17(p.x)},{_ref_f17(p.y)}")
    return "\n".join(lines) + "\n"


def bits(points):
    return [(p.x.hex(), p.y.hex()) for p in points]


def export_positions(trace_path, csv_path):
    assert main(["export", str(trace_path), "--format", "csv-positions", "--out", str(csv_path)]) == 0
    return csv_path.read_text(encoding="utf-8")


def check_roundtrip(trace, directory):
    """Write, load and export ``trace``; compare each with the references."""
    path = directory / "t.trace"
    write_trace(trace, path)
    assert path.read_text(encoding="utf-8") == reference_trace_text(trace)
    loaded = load_trace(path)
    assert len(loaded.records) == len(trace.records)
    for got, want in zip(loaded.records, trace.records):
        assert (got.t, got.active, got.coins) == (want.t, want.active, want.coins)
        assert bits(got.config) == bits(want.config)
        assert bits(got.targets) == bits(want.targets)
    assert export_positions(path, directory / "t.csv") == reference_positions_csv(trace)
    return loaded


# Zeros of both signs and a few small values recur often enough that
# equal-valued points of different sign meet in one record or the next;
# the full float range covers every scale, subnormals included.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def traces(draw):
    """A trace of random records (not a run of any protocol). Between
    records a robot keeps its Point object, takes a fresh one with the
    same bits or with its x sign-flipped, shares an earlier robot's
    object, or moves to a fresh point; a target is the robot's new or old
    object, a fresh copy of it, or a fresh point."""
    n = draw(st.integers(1, 4))

    def fresh():
        return Point(draw(COORDS), draw(COORDS))

    scenario = make_scenario([fresh() for _ in range(n)], **HAND_MADE)
    config = scenario.initial
    records = []
    for t in range(draw(st.integers(0, 6))):
        new = []
        for i in range(n):
            how = draw(st.integers(0, 4))
            old = config[i]
            if how == 0:
                p = old
            elif how == 1:
                p = Point(old.x, old.y)
            elif how == 2:
                p = Point(-old.x, old.y)
            elif how == 3 and new:
                p = new[draw(st.integers(0, len(new) - 1))]
            else:
                p = fresh()
            new.append(p)
        active = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        coins = tuple(tuple(draw(st.lists(st.integers(0, 1), max_size=2))) for _ in active)
        targets = []
        for i in active:
            how = draw(st.integers(0, 3))
            if how == 0:
                targets.append(new[i])
            elif how == 1:
                targets.append(config[i])
            elif how == 2:
                targets.append(Point(new[i].x, new[i].y))
            else:
                targets.append(fresh())
        config = tuple(new)
        records.append(StepRecord(t, active, coins, tuple(targets), config))
    return Trace(scenario, tuple(records), HAND_MADE_STATUS)


@settings(max_examples=200, deadline=None)
@given(traces())
def test_trace_io_matches_the_reference_renderers(trace):
    with tempfile.TemporaryDirectory() as d:
        loaded = check_roundtrip(trace, Path(d))
    # A position pair that repeats with no zero coordinate keeps the
    # Point of the record before.
    for before, rec in zip(loaded.records, loaded.records[1:]):
        for a, b in zip(before.config, rec.config):
            if a.x and a.y and (a.x, a.y) == (b.x, b.y):
                assert a is b
    # Each double has one text, so points with the same bits, anywhere in
    # the trace, are one object, and points with other bits are not.
    points = [p for rec in loaded.records for p in rec.config + rec.targets]
    assert len({id(p) for p in points}) == len(set(bits(points)))


def signed_zero_run():
    return run(
        make_scenario(
            [(-0.0, 0.0), (-0.0, 0.0), (3.0, -0.0)],
            scheduler=("round_robin", None),
            seed=1,
            max_steps=3,
        )
    )


def test_signed_zeros_survive_write_load_and_export(tmp_path):
    loaded = check_roundtrip(signed_zero_run(), tmp_path)
    first = (tmp_path / "t.trace").read_text(encoding="utf-8").splitlines()[1]
    assert "[-0,0]" in first and "[3,-0]" in first
    assert loaded.records[0].config[1].x.hex() == "-0x0.0p+0"
    assert loaded.records[0].config[2].y.hex() == "-0x0.0p+0"
    rows = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert "1,1,-0,0" in rows and "1,2,3,-0" in rows
    assert replay(loaded).passed


def test_load_takes_the_sign_of_a_zero_that_alone_changes(tmp_path):
    """A pair that repeats the record before's pair except for the sign of
    a zero loads with its own sign, both ways round."""
    scenario = make_scenario([(1.5, 0.0), (-0.0, 2.5)], **HAND_MADE)
    configs = [
        (Point(1.5, 0.0), Point(-0.0, 2.5)),
        (Point(1.5, -0.0), Point(0.0, 2.5)),
        (Point(1.5, 0.0), Point(-0.0, 2.5)),
    ]
    records = tuple(
        StepRecord(t, (0, 1), ((), ()), config, config) for t, config in enumerate(configs)
    )
    trace = Trace(scenario, records, HAND_MADE_STATUS)
    loaded = check_roundtrip(trace, tmp_path)
    assert [bits(rec.config) for rec in loaded.records] == [bits(c) for c in configs]


def test_load_gives_each_pair_text_one_point(tmp_path):
    """A pair's text loads as one Point wherever it stands: in positions
    and targets, in records that are not adjacent, and for points that were
    distinct objects when written. A pair whose text differs only in the
    sign of a zero loads as another Point."""
    a, b, z, o = (1.5, 2.5), (3.0, 0.0), (-0.0, 0.0), (0.0, 0.0)
    scenario = make_scenario([a, b], **HAND_MADE)
    configs = [(a, b), (b, z), (a, b), (z, a)]
    targets = [(b,), (a,), (z,), (o,)]
    records = tuple(
        StepRecord(t, (1,), ((),), tuple(Point(*p) for p in targets[t]), tuple(Point(*p) for p in c))
        for t, c in enumerate(configs)
    )
    loaded = check_roundtrip(Trace(scenario, records, HAND_MADE_STATUS), tmp_path)
    one = {}
    for rec in loaded.records:
        for p in rec.config + rec.targets:
            assert one.setdefault(p.x.hex() + p.y.hex(), p) is p
    assert len(one) == 4
    first, second, third, last = loaded.records
    assert first.config[1] is first.targets[0] is third.config[1]
    assert second.config[1] is third.targets[0] is last.config[0]
    assert last.targets[0] is not last.config[0] and last.targets[0] == last.config[0]


def test_load_keeps_every_bit_of_repeated_slot_values(tmp_path):
    """Consecutive records that hold ``0``, ``-0``, ``0.0``, ``-0.0``, ``1``,
    ``1.0`` and large integers in the same slots, written by hand, load
    bit for bit. Neither an equal value with another text nor a number
    freed by the time the next record is read may hand a slot its Point."""
    values = ["0", "-0", "0.0", "-0.0", "1", "1.0", "123456789012", "987654321098"]
    texts = values + values[::-1] + values[6:] * 3
    path = tmp_path / "t.trace"
    write_trace(run(make_scenario([(1, 2), (3, 4)], max_steps=len(texts))), path)
    header, *_, trailer = path.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for t, v in enumerate(texts):
        row = f"[[{v},{v}],[{v},1.5]]"
        lines.append(f'{{"t":{t},"active":[0],"coins":[[]],"targets":[[{v},{v}]],"positions":{row}}}')
    path.write_text("\n".join([*lines, trailer]) + "\n", encoding="utf-8")
    for rec, v in zip(load_trace(path).records, texts):
        x = float(v)
        assert bits(rec.targets) == bits([Point(x, x)])
        assert bits(rec.config) == bits([Point(x, x), Point(x, 1.5)])


def test_a_shared_configuration_writes_as_a_fresh_copy_of_it_would(tmp_path):
    """``run`` hands on one configuration object while no robot changes
    it, and ``write_trace`` then reuses the record before's positions
    text. Rebuilding every record's configuration as a fresh tuple of the
    same points gives the same bytes."""
    trace = run(make_scenario([(0, 0), (0, 0), (1, 1), (-0.0, 2)], seed=3, max_steps=30))
    records = trace.records
    assert any(a.config is b.config for a, b in zip(records, records[1:]))
    fresh = replace(trace, records=tuple(replace(rec, config=tuple(list(rec.config))) for rec in records))
    assert not any(a.config is b.config for a, b in zip(fresh.records, fresh.records[1:]))
    shared, copied = tmp_path / "shared.trace", tmp_path / "copied.trace"
    write_trace(trace, shared)
    write_trace(fresh, copied)
    assert shared.read_bytes() == copied.read_bytes() == reference_trace_text(trace).encode()


def test_load_refuses_a_positions_row_that_is_not_an_array(tmp_path):
    """A JSON object whose keys are two-character numbers iterates as a
    row of points, so two such rows in a row once loaded as the first
    did. A row must be a JSON array."""
    path = tmp_path / "t.trace"
    write_trace(run(make_scenario([(1, 2), (3, 4)], max_steps=3)), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in (1, 2):
        rec = json.loads(lines[k])
        rec["positions"] = {"12": 0, "34": 0}
        lines[k] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError) as err:
        load_trace(path)
    assert str(err.value) == (
        "record 0: bad record line: targets and positions must be arrays of [x, y] number pairs"
    )


def test_replay_diverges_where_the_sign_of_a_zero_changed(tmp_path):
    """The signed-zero run above, its record 0 edited from [3,-0] to
    [3,0]: equal under ==, but not the recorded bits."""
    path = tmp_path / "t.trace"
    write_trace(signed_zero_run(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].count("[3,-0]") == 1
    lines[1] = lines[1].replace("[3,-0]", "[3,0]")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    verdict = replay(load_trace(path))
    assert (verdict.passed, verdict.first_divergence, verdict.message) == (
        False, 1, "configuration diverges at instant 1"
    )


def _flip_zero(points, i):
    """``points`` with the sign of point ``i``'s first zero coordinate flipped."""
    p = points[i]
    flipped = Point(-p.x, p.y) if p.x == 0 else Point(p.x, -p.y)
    return points[:i] + (flipped,) + points[i + 1 :]


def test_replay_diverges_on_any_changed_sign_of_a_zero():
    """Robots that walk onto the lex-min point (-0, 0) stay there; every
    position or target with a zero coordinate, its sign flipped, diverges
    at its own instant. (The initial configuration is the scenario's, so
    replay has none to compare.)"""
    scenario = make_scenario(
        [(-0.0, 0.0), (0.5, 0.0), (0.0, 0.5)], protocol="deterministic_rule", rule="lex_min",
        scheduler=("round_robin", None), max_steps=6,
    )
    trace = run(scenario)
    assert replay(trace).passed
    cases = 0
    for k, rec in enumerate(trace.records):
        for field, name in (("config", "configuration"), ("targets", "target record")):
            for i, p in enumerate(getattr(rec, field)):
                if 0.0 in p:
                    edited = replace(rec, **{field: _flip_zero(getattr(rec, field), i)})
                    records = trace.records[:k] + (edited,) + trace.records[k + 1 :]
                    verdict = replay(replace(trace, records=records))
                    message = f"{name} diverges at instant {k + 1}"
                    assert verdict == ReplayVerdict(False, k + 1, message)
                    cases += 1
    assert cases >= 6 * 3


@pytest.mark.parametrize(
    "config, token",
    [
        ((Point(-0.0, 1.5), Point(2.5, 1.0)), '"positions":[[-0,'),  # first coordinate of its row
        ((Point(1.5, 2.5), Point(1.0, -0.0)), ",-0]]}"),  # last coordinate of its row
        ((Point(1e-05, -0.5), Point(-1e-05, -0.25)), None),  # "-0" only before digits
    ],
    ids=["first", "last", "none"],
)
def test_a_minus_zero_loads_as_minus_zero_wherever_it_stands(config, token, tmp_path):
    """The integer token -0 loads as -0.0 wherever it stands in a row,
    spaced out by hand too; a -0 that digits follow is another number."""
    trace = Trace(
        make_scenario(list(config), **HAND_MADE),
        (StepRecord(0, (0, 1), ((), ()), config, config),),
        HAND_MADE_STATUS,
    )
    check_roundtrip(trace, tmp_path)
    path = tmp_path / "t.trace"
    line = path.read_text(encoding="utf-8").splitlines()[1]
    if token is None:
        assert "-0" in line and ("-0," not in line and "-0]" not in line)
        return
    assert token in line
    path.write_text(path.read_text(encoding="utf-8").replace("-0,", "-0 ,").replace("-0]", "-0 ]"))
    assert bits(load_trace(path).records[0].config) == bits(config)
