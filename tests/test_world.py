import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import (
    Capabilities,
    IDENTITY_FRAME,
    LocalFrame,
    Point,
    Robot,
    all_distinct,
    as_configuration,
    build_view,
    distance,
    multiplicity_points,
    random_frame,
    to_global,
    to_local,
)
from scattersim import geometry, world
from scattersim.errors import ContractViolationError, ScenarioValidationError

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def frames_strategy():
    return st.builds(
        LocalFrame,
        origin=st.builds(Point, finite_floats, finite_floats),
        rotation=st.floats(0, 2 * math.pi),
        reflect=st.booleans(),
        unit=st.floats(0.01, 100),
    )


def test_identity_frame_passthrough():
    p = Point(3.25, -7.5)
    assert to_local(IDENTITY_FRAME, p) == p
    assert to_global(IDENTITY_FRAME, p) == p


def test_affine_example():
    frame = LocalFrame(origin=Point(1, 0), unit=2.0)
    assert to_local(frame, Point(3, 0)) == Point(1, 0)
    assert to_global(frame, Point(1, 0)) == Point(3, 0)


@settings(max_examples=300, deadline=None)
@given(frame=frames_strategy(), x=finite_floats, y=finite_floats)
def test_roundtrip_within_tolerance(frame, x, y):
    p = Point(x, y)
    back = to_global(frame, to_local(frame, p))
    scale = max(1.0, abs(x), abs(y), abs(frame.origin.x), abs(frame.origin.y))
    assert distance(p, back) <= 1e-12 * scale


def test_roundtrip_many_random_frames(rng):
    for _ in range(10_000):
        frame = random_frame(rng)
        p = Point(float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)))
        back = to_global(frame, to_local(frame, p))
        assert distance(p, back) <= 1e-12 * max(1.0, abs(p.x), abs(p.y))


def test_frame_validation():
    with pytest.raises(ScenarioValidationError):
        LocalFrame(unit=0.0)
    with pytest.raises(ScenarioValidationError):
        LocalFrame(unit=-1.0)
    with pytest.raises(ScenarioValidationError):
        LocalFrame(origin=Point(math.nan, 0.0))
    with pytest.raises(ScenarioValidationError, match="rotation"):
        LocalFrame(rotation=math.inf)


def test_view_identity_frame_equals_global_points():
    config = as_configuration([(2, 1), (0, 0), (5, 5)])
    view = build_view(config, Robot(1, 1.0), Capabilities())
    assert view.points == (Point(0, 0), Point(2, 1), Point(5, 5))  # sorted
    assert view.counts is None
    assert view.self_pos == Point(0, 0)
    assert view.global_point(Point(2, 1)) is None  # only a private frame keeps a map
    for stranger in (Robot(3, 1.0), Robot(-1, 1.0)):
        with pytest.raises(ContractViolationError, match="does not belong"):
            build_view(config, stranger, Capabilities())


def test_view_applies_frame():
    frame = LocalFrame(origin=Point(1, 0), unit=2.0)
    config = as_configuration([(3, 0), (1, 0)])
    view = build_view(config, Robot(0, 1.0, frame), Capabilities())
    assert view.self_pos == Point(1, 0)
    assert view.points == (Point(0, 0), Point(1, 0))


def test_localization_overrides_private_frame():
    frame = LocalFrame(origin=Point(9, 9), rotation=1.0, unit=3.0)
    config = as_configuration([(3, 0), (1, 0)])
    view = build_view(config, Robot(0, 1.0, frame), Capabilities(localization_knowledge=True))
    assert view.self_pos == Point(3, 0)
    assert view.points == (Point(1, 0), Point(3, 0))


def test_colocated_collapse_and_counts():
    config = as_configuration([(0, 0), (0, 0), (1, 1)])
    off = build_view(config, Robot(0, 1.0), Capabilities(multiplicity_detection=False))
    assert off.points == (Point(0, 0), Point(1, 1))
    assert off.counts is None
    on = build_view(config, Robot(0, 1.0), Capabilities(multiplicity_detection=True))
    assert on.points == (Point(0, 0), Point(1, 1))
    assert on.counts == (2, 1)
    assert sum(on.counts) == len(config)


def test_colocated_robots_share_identical_views():
    config = as_configuration([(2, 3), (2, 3), (0, 0)])
    caps = Capabilities(multiplicity_detection=False)
    v0 = build_view(config, Robot(0, 1.0), caps)
    v1 = build_view(config, Robot(1, 1.0), caps)
    assert v0 == v1


def test_views_do_not_reveal_ordinals(rng):
    pts = [(0, 0), (0, 0), (1, 2), (3, 4), (3, 4)]
    caps = Capabilities(multiplicity_detection=True)
    config = as_configuration(pts)
    perm = rng.permutation(len(pts))
    permuted = as_configuration([pts[i] for i in perm])
    for i, j in enumerate(perm):
        a = build_view(config, Robot(int(j), 1.0), caps)
        b = build_view(permuted, Robot(int(i), 1.0), caps)
        assert a == b


def test_view_transform_preserves_distance_ratios(rng):
    config = as_configuration(rng.uniform(-5, 5, (6, 2)))
    frame = random_frame(rng)
    view = build_view(config, Robot(0, 1.0, frame), Capabilities())
    gpts = sorted(set(config))
    ratios_global = []
    ratios_local = []
    for a in range(len(gpts)):
        for b in range(a + 1, len(gpts)):
            ratios_global.append(distance(gpts[a], gpts[b]))
    lpts = sorted(view.points)
    for a in range(len(lpts)):
        for b in range(a + 1, len(lpts)):
            ratios_local.append(distance(lpts[a], lpts[b]))
    rg = np.array(sorted(ratios_global))
    rl = np.array(sorted(ratios_local)) * frame.unit
    assert np.allclose(rg, rl, rtol=1e-9)


def test_multiplicity_points_examples():
    assert multiplicity_points(as_configuration([(0, 0), (1, 0)])) == ()
    assert multiplicity_points(as_configuration([(0, 0)] * 5)) == ((Point(0, 0), 5),)
    mixed = as_configuration([(0, 0), (0, 0), (1, 1), (2, 2), (2, 2)])
    assert multiplicity_points(mixed) == ((Point(0, 0), 2), (Point(2, 2), 2))


def test_all_distinct_examples():
    assert all_distinct(as_configuration([(0, 0), (1, 0)]))
    assert not all_distinct(as_configuration([(0, 0), (0, 0)]))
    assert all_distinct(as_configuration([(4, 2)]))


def test_configuration_refuses_non_finite_positions():
    for bad in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ScenarioValidationError, match="non-finite position"):
            as_configuration([(0.0, 0.0), bad])


def test_robot_requires_positive_sigma():
    with pytest.raises(ScenarioValidationError):
        Robot(0, 0.0)
    with pytest.raises(ScenarioValidationError):
        Robot(0, -1.0)


def _spread_view(n, span, self_pos_index=0):
    """A view of ``n`` distinct points on a jittered grid ``span`` wide."""
    side = math.ceil(math.sqrt(n))
    pts = sorted(
        Point(span * (i % side) / side + 0.01 * (i % 7), span * (i // side) / side + 0.013 * (i % 5))
        for i in range(n)
    )
    return build_view(as_configuration(pts), Robot(self_pos_index, 1.0), Capabilities())


def test_small_views_hand_their_points_to_the_kernel():
    view = _spread_view(world.SMALL_CELL, 100.0)
    assert view.within_reach(1.0) is view.points


def test_reach_index_built_once_per_sigma_and_shared(monkeypatch):
    builds = []

    def counting_reach_index(points, occupied, sigma):
        builds.append(sigma)
        return geometry.reach_index(points, occupied, sigma)

    monkeypatch.setattr(world, "reach_index", counting_reach_index)
    view = _spread_view(100, 100.0)
    # The first query for a sigma takes all points and builds nothing.
    assert view.within_reach(1.0) is view.occupied
    assert builds == []
    near = {}
    for k, p in enumerate(view.points[::7]):
        mine = view.seen_from(p)
        got = mine.within_reach(1.0)
        assert p in got and len(got) < len(view.points)
        near[p] = got
        assert (mine.within_reach(0.5) is view.occupied) == (k == 0)
    assert builds == [1.0, 0.5]
    for p, got in near.items():  # the points within reach, by brute force
        r = geometry.reach(1.0, 100.1)
        assert sorted(got) == sorted(q for q in view.points if distance(p, q) <= r)
    # A new view (a new instant) builds its own index.
    fresh = _spread_view(100, 100.0)
    fresh.within_reach(1.0)
    fresh.seen_from(fresh.points[3]).within_reach(1.0)
    assert builds == [1.0, 0.5, 1.0]


def test_compact_views_keep_all_their_points():
    # 100 points 12 wide: a reach of about 4 spans a quarter of it or more.
    view = _spread_view(100, 12.0)
    for p in view.points[:3]:
        assert view.seen_from(p).within_reach(1.0) is view.occupied
    assert view._shared.reach == {1.0: None}
    assert view.seen_from(view.points[0]).within_reach(0.1) is view.occupied
    assert view.seen_from(view.points[0]).within_reach(0.1) is not view.occupied
