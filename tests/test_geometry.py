import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from scattersim import (
    Point,
    geometry,
    distance,
    own_cell,
    sample_in_cell,
    world,
)
from scattersim.errors import ContractViolationError, GeometryError
from scattersim.world import View

from conftest import bisector_clearance, nearest_site


def test_distance_examples():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(1, 1), Point(1, 1)) == 0.0
    assert distance(Point(0, 0), Point(1, 1)) == math.sqrt(2)


def test_distance_symmetric_and_zero_iff_equal(rng):
    for _ in range(200):
        p = Point(*rng.uniform(-10, 10, 2))
        q = Point(*rng.uniform(-10, 10, 2))
        assert distance(p, q) == distance(q, p)
        assert (distance(p, q) == 0.0) == (p == q)


def cells_of(sites):
    """Each site's open cell among ``sites``, in their order."""
    return [own_cell(s, sites) for s in sites]


def locate(cells, q):
    """Index of the cell strictly containing ``q``, or None on a bisector."""
    return next((i for i, cell in enumerate(cells) if cell.contains(q)), None)


def test_single_site_is_whole_plane():
    cell = own_cell(Point(0, 0), [Point(0, 0)])
    assert cell.normals.shape == (0, 2)
    for q in [(0.1, 0), (1e6, -1e6), (-3, 7)]:
        assert cell.contains(q)


def test_two_sites_perpendicular_bisector():
    cells = cells_of([Point(0, 0), Point(2, 0)])
    left = cells[0]
    assert left.contains((0.9, 0))
    assert not left.contains((1.0, 0))  # boundary excluded
    assert not cells[1].contains((1.0, 0))
    assert locate(cells, (1.0, 0)) is None


def test_three_sites_matches_distance_oracle():
    sites = [Point(0, 0), Point(4, 0), Point(0, 4)]
    q = (1.0, 1.0)
    # independent oracle: distances sqrt(2), sqrt(10), sqrt(10)
    d = [distance(Point(*q), s) for s in sites]
    assert d == [math.sqrt(2), math.sqrt(10), math.sqrt(10)]
    assert nearest_site(q, sites) == 0
    assert locate(cells_of(sites), q) == 0


def test_halfplane_membership_examples():
    cell = own_cell(Point(0, 0), [Point(0, 0), Point(2, 0)])  # x < 1
    assert cell.contains(Point(0.5, 7))
    assert not cell.contains(Point(1.0, 0))


def test_membership_matches_oracle_randomized(rng):
    checked = 0
    while checked < 10_000:
        k = int(rng.integers(3, 11))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-10, 10, (k, 2))]
        cells = cells_of(sites)
        for qx, qy in rng.uniform(-12, 12, (400, 2)):
            if bisector_clearance((qx, qy), sites) < 1e-9:
                continue
            checked += 1
            assert locate(cells, (qx, qy)) == nearest_site((qx, qy), sites)
    assert checked >= 10_000


def test_cells_are_disjoint_on_samples(rng):
    for _ in range(20):
        k = int(rng.integers(2, 9))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-5, 5, (k, 2))]
        cells = cells_of(sites)
        for i, cell in enumerate(cells):
            for _ in range(25):
                p = sample_in_cell(cell, cell.site, 2.0, rng)
                hits = [j for j, c in enumerate(cells) if c.contains(p)]
                assert hits == [i]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    angle=st.floats(0, 2 * math.pi),
    scale=st.floats(0.1, 10),
    tx=st.floats(-50, 50),
    ty=st.floats(-50, 50),
)
def test_membership_similarity_invariant(data, angle, scale, tx, ty):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = int(rng.integers(2, 8))
    sites = [Point(float(x), float(y)) for x, y in rng.uniform(-5, 5, (k, 2))]
    q = tuple(rng.uniform(-6, 6, 2))
    if bisector_clearance(q, sites) < 1e-5:
        return
    c, s = math.cos(angle), math.sin(angle)

    def sim(p):
        return Point(scale * (c * p[0] - s * p[1]) + tx, scale * (s * p[0] + c * p[1]) + ty)

    before = locate(cells_of(sites), q)
    moved_sites = [sim(p) for p in sites]
    if len(set(moved_sites)) != k:
        return
    after = locate(cells_of(moved_sites), sim(Point(*q)))
    assert before == after


# Few distinct values, so points collide and zeros of both signs meet.
_coords = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-1e3, 1e3)


def _flip_zero_signs(p: Point) -> Point:
    return Point(*(-c if c == 0.0 else c for c in p))


def _bisectors(position, occupied):
    """Reference: one bisector half-plane per other point, in input order."""
    others = [p for p in occupied if p != position]
    if not others:
        return np.empty((0, 2)), np.empty((0,))
    arr = np.array(others, dtype=float)
    sx, sy = position
    return arr - (sx, sy), 0.5 * (arr[:, 0] ** 2 + arr[:, 1] ** 2 - (sx * sx + sy * sy))


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.tuples(_coords, _coords), min_size=1, max_size=8),
    data=st.data(),
)
def test_own_cell_array_and_points_give_identical_rows(raw, data):
    occupied = tuple(dict.fromkeys(Point(x, y) for x, y in raw))  # duplicate-free under ==
    position = occupied[data.draw(st.integers(0, len(occupied) - 1))]
    if data.draw(st.booleans()):
        position = _flip_zero_signs(position)  # equal under ==, different bits
    array = np.array(occupied, dtype=float)
    want_normals, want_offsets = _bisectors(position, occupied)
    for given_occupied in (occupied, array):
        cell = own_cell(position, given_occupied)
        assert cell.normals.shape == (len(occupied) - 1, 2)
        assert cell.normals.tobytes() == want_normals.tobytes()
        assert cell.offsets.tobytes() == want_offsets.tobytes()
    outside = Point(data.draw(_coords), data.draw(_coords))
    if outside not in occupied:
        for given_occupied in (occupied, array):
            with pytest.raises(ContractViolationError):
                own_cell(outside, given_occupied)


def test_own_cell_one_point_and_missing_position():
    for occupied in ((Point(0.0, 1.0),), np.array([[0.0, 1.0]])):
        cell = own_cell(Point(-0.0, 1.0), occupied)
        assert cell.normals.shape == (0, 2) and cell.offsets.shape == (0,)
        with pytest.raises(ContractViolationError):
            own_cell(Point(1.0, 0.0), occupied)
    for occupied in ((), np.empty((0, 2))):
        with pytest.raises(ContractViolationError):
            own_cell(Point(0.0, 0.0), occupied)


def _kernel_on_path(route, position, occupied, current, sigma, seed):
    """Everything the cell kernel produces on one route of the scatter
    draw: the rows, the sample from ``current`` (or the error) and the
    generator state after it, and two memberships. The ``"array"`` route is
    :func:`own_cell`, given ``occupied`` as it is, then
    :func:`sample_in_cell`; the ``"sequence"`` route takes the Python-float
    rows that :func:`geometry.scatter_target` builds from a sequence and
    casts them from ``current``, as that draw does from the site."""
    rng = np.random.default_rng(seed)
    if route == "array":
        cell = own_cell(position, occupied)
        normals, offsets, inside = cell.normals, cell.offsets, cell.contains

        def draw():
            return sample_in_cell(cell, current, sigma, rng)

    else:
        rows = geometry._site_rows(position, occupied)
        normals = np.array([row[:2] for row in rows], dtype=float).reshape(-1, 2)
        offsets = np.array([row[2] for row in rows], dtype=float)
        cx, cy = current
        at_current = [(nx, ny, off, off - (nx * cx + ny * cy)) for nx, ny, off, _ in rows]

        def inside(q):
            return geometry._inside_rows(rows, q[0], q[1])

        def draw():
            geometry._require_sigma(sigma)
            return geometry._cast(current, sigma, rng, at_current)

    try:
        out = draw()
    except (ContractViolationError, GeometryError) as exc:
        out = (type(exc), str(exc))
    return (
        normals.shape,
        normals.tobytes(),
        offsets.tobytes(),
        out,
        rng.bit_generator.state,
        inside(current),
        inside(position),
    )


# Small integers (co-circular grids), zeros of both signs, and any float.
_grid_coords = st.integers(-3, 3).map(float) | st.just(-0.0) | st.floats(-4, 4)


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.tuples(_grid_coords, _grid_coords), min_size=1, max_size=2 * world.SMALL_CELL + 8),
    scale_exp=st.integers(-8, 8),
    sigma_exp=st.integers(-12, 2),
    pick=st.integers(0, 100),
    flip=st.booleans(),
    from_rival=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(raw=[(0.0, 0.0)], scale_exp=0, sigma_exp=0, pick=0, flip=True, from_rival=False, seed=1)
# hi < lo: the cell is 1e-8 wide and sigma is 1.
@example(
    raw=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
    scale_exp=-8, sigma_exp=0, pick=0, flip=False, from_rival=False, seed=2,
)
# Every step rounds back onto the start, so all 64 attempts are retried.
@example(
    raw=[(3.0, 3.0), (2.0, 3.0), (3.0, 2.0)],
    scale_exp=8, sigma_exp=-12, pick=0, flip=False, from_rival=False, seed=3,
)
def test_sequence_and_array_routes_agree_bytewise(raw, scale_exp, sigma_exp, pick, flip, from_rival, seed):
    scale = 10.0**scale_exp
    occupied = tuple(dict.fromkeys(Point(x * scale, y * scale) for x, y in raw))
    position = occupied[pick % len(occupied)]
    if flip:
        position = _flip_zero_signs(position)  # equal under ==, different bits
    current = occupied[(pick + 1) % len(occupied)] if from_rival else position
    sigma = 10.0**sigma_exp
    array = np.array(occupied, dtype=float)
    reference = _kernel_on_path("array", position, array, current, sigma, seed)
    assert _kernel_on_path("array", position, occupied, current, sigma, seed) == reference
    assert _kernel_on_path("sequence", position, occupied, current, sigma, seed) == reference
    if not reference[-2]:
        assert reference[3] == (
            ContractViolationError,
            "current position must lie strictly inside the cell",
        )


# Exact as doubles up to 2**53 (their squares are not), rounded beyond.
_int_coords = st.integers(-(2**40), 2**40) | st.integers(-(2**60), 2**60)


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.tuples(_int_coords, _int_coords), min_size=1, max_size=2 * world.SMALL_CELL + 8, unique=True),
    pick=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_int_coordinates_round_to_doubles_on_both_paths(raw, pick, seed):
    """Int coordinates are rounded to doubles before any arithmetic, as
    an array rounds them, so both routes give the rows of the float input,
    from the points or from their int array."""
    occupied = tuple(Point(x, y) for x, y in raw)
    position = occupied[pick % len(occupied)]
    reference = _kernel_on_path("array", position, np.array(occupied, dtype=float), position, 1.0, seed)
    for given_occupied in (occupied, np.array(occupied)):
        assert _kernel_on_path("array", position, given_occupied, position, 1.0, seed) == reference
    assert _kernel_on_path("sequence", position, occupied, position, 1.0, seed) == reference


def test_sample_postconditions_randomized(rng):
    for _ in range(60):
        k = int(rng.integers(1, 9))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-5, 5, (k, 2))]
        if len(set(sites)) != k:
            continue
        sigma = float(rng.uniform(0.01, 20.0))
        for cell in cells_of(sites):
            for _ in range(20):
                p = sample_in_cell(cell, cell.site, sigma, rng)
                assert cell.contains(p)
                assert p != cell.site
                assert distance(cell.site, p) <= sigma


def test_sample_single_robot_unbounded(rng):
    cell = own_cell(Point(0, 0), [Point(0, 0)])
    for _ in range(500):
        p = sample_in_cell(cell, Point(0, 0), 1.0, rng)
        assert 0.0 < distance(Point(0, 0), p) <= 1.0


def test_sample_halfplane_containment_forced(rng):
    cell = own_cell(Point(0, 0), [Point(0, 0), Point(2, 0)])  # x < 1
    for _ in range(2000):
        p = sample_in_cell(cell, Point(0, 0), 100.0, rng)
        assert p.x < 1.0


def test_sample_never_repeats_exactly(rng):
    cell = own_cell(Point(0, 0), [Point(0, 0), Point(2, 0), Point(0, 2)])
    draws = {sample_in_cell(cell, Point(0, 0), 1.0, rng) for _ in range(10_000)}
    assert len(draws) == 10_000


def test_sample_from_point_not_in_cell_rejected(rng):
    cell = own_cell(Point(0, 0), [Point(0, 0), Point(2, 0)])
    with pytest.raises(ContractViolationError):
        sample_in_cell(cell, Point(5, 0), 1.0, rng)
    with pytest.raises(ContractViolationError):
        sample_in_cell(cell, Point(0, 0), 0.0, rng)


def _cell_then_sample(position, occupied, sigma, rng):
    """The scatter draw as the public kernel spells it: the reference for
    :func:`geometry.scatter_target`."""
    return sample_in_cell(own_cell(position, occupied), position, sigma, rng)


def _scatter_draw(position, occupied, sigma, seed, draw=None):
    """The scatter draw of ``scatter_step`` from ``position`` among
    ``occupied`` (or of ``draw``, taking the same arguments): the target's
    bits (or the error) and the generator state after it."""
    rng = np.random.default_rng(seed)
    try:
        out = np.array((draw or geometry.scatter_target)(position, occupied, sigma, rng)).tobytes()
    except (ContractViolationError, GeometryError) as exc:
        out = (type(exc), str(exc))
    return out, rng.bit_generator.state


def _scaled(coords):
    """Lists of coordinate pairs, all scaled by one power of ten."""
    return st.tuples(coords, st.integers(-8, 8)).map(
        lambda a: [(x * 10.0 ** a[1], y * 10.0 ** a[1]) for x, y in a[0]]
    )


@settings(max_examples=300, deadline=None)
@given(
    raw=_scaled(st.lists(st.tuples(_grid_coords, _grid_coords), min_size=1, max_size=2 * world.SMALL_CELL + 8))
    | st.lists(st.tuples(_int_coords, _int_coords), min_size=1, max_size=2 * world.SMALL_CELL + 8),
    pick=st.integers(0, 100),
    flip=st.booleans(),
    missing=st.booleans(),
    fixed_sigma=st.none() | st.sampled_from([0.0, -1.0, math.inf, math.nan]),
    sigma_exp=st.floats(-3, 2),
    seed=st.integers(0, 2**32 - 1),
)
# A one-point view (a co-located pair), the position's zero signs flipped.
@example(raw=[(0.0, 0.0)], pick=0, flip=True, missing=False, fixed_sigma=None, sigma_exp=0.0, seed=1)
# No points at all.
@example(raw=[(0.0, 0.0)], pick=0, flip=False, missing=True, fixed_sigma=None, sigma_exp=0.0, seed=1)
# The first point drawn rounds onto the bisector, so the draw retries.
@example(
    raw=[(1325278666846106.5, 1325278666846106.8), (1325278666846106.8, 1325278666846106.5)],
    pick=0, flip=False, missing=False, fixed_sigma=0.3294659050362481, sigma_exp=0.0, seed=143684,
)
def test_scatter_target_is_the_cell_then_sample_draw(raw, pick, flip, missing, fixed_sigma, sigma_exp, seed):
    """The one-pass draw gives the draw of ``sample_in_cell(own_cell(...))``
    bit for bit on either route, from points or their array: the same
    target, the same generator state, the same error, raised in the same
    order (membership, then sigma, then the start check). Unless a sigma
    is fixed (a bad one, or an example's), sigma is a power of ten times
    the largest coordinate, so that the exit distance, and with it every
    row's slack, often sets the step."""
    occupied = tuple(dict.fromkeys(Point(x, y) for x, y in raw))
    if fixed_sigma is None:
        sigma = 10.0**sigma_exp * max(1.0, *(abs(c) for p in occupied for c in p))
    else:
        sigma = fixed_sigma
    i = pick % len(occupied)
    position = occupied[i]
    if flip:
        position = _flip_zero_signs(position)  # equal under ==, different bits
    if missing:
        occupied = occupied[:i] + occupied[i + 1 :]
    sequence = _scatter_draw(position, occupied, sigma, seed)
    assert _scatter_draw(position, np.array(occupied), sigma, seed) == sequence
    for given_occupied in (occupied, np.array(occupied)):
        want = _scatter_draw(position, given_occupied, sigma, seed, _cell_then_sample)
        assert want == sequence
        if missing:
            assert want[0] == (ContractViolationError, "position is not one of the occupied points")


def _reach_limited(points, position, sigma):
    """The points a reach-limited cell is built from, or None when the view
    keeps all its points."""
    index = geometry.reach_index(points, np.array(points, dtype=float), sigma)
    return None if index is None else index.near(position)


def _spread_points(raw, scale, ulp_pairs):
    """Distinct points ``raw * scale``, with a point 1 ulp away (in x, in y
    or in both) added next to the first ``ulp_pairs``."""
    pts = [Point(x * scale, y * scale) for x, y in raw]
    for k, (x, y) in enumerate(pts[:ulp_pairs]):
        nx = math.nextafter(x, math.inf) if k % 3 != 1 else x
        ny = math.nextafter(y, -math.inf) if k % 3 != 0 else y
        pts.append(Point(nx, ny))
    return sorted(dict.fromkeys(pts))


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1))
        | st.tuples(st.integers(-40, 40).map(float), st.integers(-40, 40).map(float)),
        min_size=world.SMALL_CELL + 1,
        max_size=150,
    ),
    scale_exp=st.integers(-150, 12),
    ulp_pairs=st.integers(0, 6),
    sigma_exps=st.lists(st.floats(-9, 1), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_reach_limited_draw_is_bit_identical(raw, scale_exp, ulp_pairs, sigma_exps, picks, seed):
    """A scatter cell built from the points within reach gives the draw of
    the cell of all points, bit for bit: the same target, the same
    generator state, the same error. Several travel bounds query one
    shared view, each through its own index."""
    scale = 10.0**scale_exp
    points = _spread_points(raw, scale, ulp_pairs)
    if len(points) <= world.SMALL_CELL:
        return
    view = View(tuple(points), None, points[0])
    sigmas = [scale * 10.0**e for e in sigma_exps]
    for pick in picks:
        position = points[pick % len(points)]
        mine = view.seen_from(position)
        for sigma in sigmas:
            everything = _scatter_draw(position, view.occupied, sigma, seed)
            near = _reach_limited(points, position, sigma)
            event("reach-limited" if near is not None else "all points")
            if near is not None:
                assert position in near and len(set(near)) == len(near)
                assert _scatter_draw(position, near, sigma, seed) == everything
            mine.within_reach(sigma)  # the first query of a sigma builds no index
            assert _scatter_draw(position, mine.within_reach(sigma), sigma, seed) == everything
    assert set(view._shared.reach) == set(sigmas)


def test_huge_coordinate_keeps_the_view_whole():
    """Beyond ``2**500`` in magnitude the reach bound does not hold, so a
    view with such a coordinate keeps all its points, however wide it is,
    and its draws are the draws among all points."""
    points = sorted({Point(float(i % 8), float(i // 8)) for i in range(48)} | {Point(2.0**501, 0.0)})
    assert geometry.reach_index(points, np.array(points), 1.0) is None
    view = View(tuple(points), None, points[0])
    for position in points[:3]:
        mine = view.seen_from(position)
        everything = _scatter_draw(position, view.occupied, 1.0, 5)
        assert everything == _scatter_draw(position, tuple(points), 1.0, 5)
        for _ in range(2):  # the first query and the index it learns of
            assert _scatter_draw(position, mine.within_reach(1.0), 1.0, 5) == everything
    assert view._shared.reach == {1.0: None}


@pytest.mark.parametrize(
    "cell, far",
    [
        # ROADMAP item 7: these cells fail their start check.
        ([(1e12, 0.0), (1e12 + 1.0, 0.0)], lambda k: (1e12 + 1e7 * (k % 6), 1e9 + 1e7 * (k // 6))),
        ([(0.0, 0.0), (1e-200, 0.0)], lambda k: (100.0 + 10.0 * (k % 6), 100.0 + 10.0 * (k // 6))),
        ([(1e8, 1e8), (1e8 + 1e-7, 1e8)], lambda k: (1e8 + 1e3 * (k % 6), 1e8 + 1e3 + 1e3 * (k // 6))),
        ([(5e-324, 0.0), (1e-323, 0.0)], lambda k: (100.0 + 10.0 * (k % 6), 100.0 + 10.0 * (k // 6))),
    ],
)
def test_failing_cells_still_fail_among_far_points(cell, far):
    """Padded with far points past ``world.SMALL_CELL`` sites, a cell whose
    start check fails fails the same way on the array route and on the
    reach-limited route, which keeps the near rival and drops the far
    points, and on the one-pass draw."""
    position = Point(*cell[0])
    points = sorted({Point(*p) for p in cell} | {Point(*far(k)) for k in range(36)})
    near = _reach_limited(points, position, 1.0)
    assert near is not None and sorted(near) == sorted(Point(*p) for p in cell)
    for occupied in (np.array(points), near):
        for draw in (_cell_then_sample, geometry.scatter_target):
            with pytest.raises(ContractViolationError, match="strictly inside"):
                draw(position, occupied, 1.0, np.random.default_rng(0))
