import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import (
    Point,
    compute_voronoi,
    distance,
    own_cell,
    sample_in_cell,
)
from scattersim.errors import ContractViolationError, DistinctSitesError

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


def test_single_site_is_whole_plane():
    diagram = compute_voronoi([Point(0, 0)])
    cell = diagram.cells[0]
    assert cell.normals.shape == (0, 2)
    assert not cell.bounded
    for q in [(0.1, 0), (1e6, -1e6), (-3, 7)]:
        assert cell.contains(q)


def test_two_sites_perpendicular_bisector():
    diagram = compute_voronoi([Point(0, 0), Point(2, 0)])
    left = diagram.cells[0]
    assert left.contains((0.9, 0))
    assert not left.contains((1.0, 0))  # boundary excluded
    assert not diagram.cells[1].contains((1.0, 0))
    assert diagram.locate((1.0, 0)) is None
    assert not left.bounded


def test_three_sites_matches_distance_oracle():
    sites = [Point(0, 0), Point(4, 0), Point(0, 4)]
    diagram = compute_voronoi(sites)
    q = (1.0, 1.0)
    # independent oracle: distances sqrt(2), sqrt(10), sqrt(10)
    d = [distance(Point(*q), s) for s in sites]
    assert d == [math.sqrt(2), math.sqrt(10), math.sqrt(10)]
    assert nearest_site(q, sites) == 0
    assert diagram.locate(q) == 0


def test_duplicate_sites_rejected():
    with pytest.raises(DistinctSitesError):
        compute_voronoi([Point(0, 0), Point(0, 0), Point(1, 1)])


def test_empty_input_rejected():
    with pytest.raises(DistinctSitesError):
        compute_voronoi([])


def test_halfplane_membership_examples():
    cell = own_cell(Point(0, 0), [Point(0, 0), Point(2, 0)])  # x < 1
    assert cell.contains(Point(0.5, 7))
    assert not cell.contains(Point(1.0, 0))


def test_membership_matches_oracle_randomized(rng):
    checked = 0
    while checked < 10_000:
        k = int(rng.integers(3, 11))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-10, 10, (k, 2))]
        diagram = compute_voronoi(sites)
        for qx, qy in rng.uniform(-12, 12, (400, 2)):
            if bisector_clearance((qx, qy), sites) < 1e-9:
                continue
            checked += 1
            assert diagram.locate((qx, qy)) == nearest_site((qx, qy), sites)
    assert checked >= 10_000


def test_cells_are_disjoint_on_samples(rng):
    for _ in range(20):
        k = int(rng.integers(2, 9))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-5, 5, (k, 2))]
        diagram = compute_voronoi(sites)
        for i, cell in enumerate(diagram.cells):
            for _ in range(25):
                p = sample_in_cell(cell, cell.site, 2.0, rng)
                hits = [j for j, c in enumerate(diagram.cells) if c.contains(p)]
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

    before = compute_voronoi(sites).locate(q)
    moved_sites = [sim(p) for p in sites]
    if len(set(moved_sites)) != k:
        return
    after = compute_voronoi(moved_sites).locate(sim(Point(*q)))
    assert before == after


def test_sample_postconditions_randomized(rng):
    for _ in range(60):
        k = int(rng.integers(1, 9))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-5, 5, (k, 2))]
        if len(set(sites)) != k:
            continue
        diagram = compute_voronoi(sites)
        sigma = float(rng.uniform(0.01, 20.0))
        for cell in diagram.cells:
            for _ in range(20):
                p = sample_in_cell(cell, cell.site, sigma, rng)
                assert cell.contains(p)
                assert p != cell.site
                assert distance(cell.site, p) <= sigma


def test_sample_single_robot_unbounded(rng):
    cell = compute_voronoi([Point(0, 0)]).cells[0]
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


def test_reduced_constraints_match_delaunay_neighbors(rng):
    scipy_spatial = pytest.importorskip("scipy.spatial")
    for _ in range(15):
        k = int(rng.integers(4, 12))
        pts = rng.uniform(-10, 10, (k, 2))
        sites = [Point(float(x), float(y)) for x, y in pts]
        diagram = compute_voronoi(sites)
        vor = scipy_spatial.Voronoi(pts)
        neighbors = {i: set() for i in range(k)}
        for a, b in vor.ridge_points:
            neighbors[int(a)].add(int(b))
            neighbors[int(b)].add(int(a))
        for i, cell in enumerate(diagram.cells):
            rivals = set()
            for nx, ny in cell.normals:
                rival = Point(cell.site.x + nx, cell.site.y + ny)
                rivals.add(min(range(k), key=lambda j: distance(rival, sites[j])))
            assert rivals == neighbors[i], f"cell {i} edge set disagrees with scipy"


def test_bounded_flag():
    ring = [Point(0, 0)] + [
        Point(2 * math.cos(a), 2 * math.sin(a)) for a in np.linspace(0, 2 * math.pi, 7)[:-1]
    ]
    diagram = compute_voronoi(ring)
    assert diagram.cells[0].bounded  # surrounded center
    assert not diagram.cells[1].bounded  # hull site
    strip = compute_voronoi([Point(0, 0), Point(-2, 0), Point(2, 0)])
    assert not strip.cells[0].bounded  # strip between two parallel bisectors
