import numpy as np
import pytest

from scattersim import (
    Capabilities,
    Point,
    ProtocolSpec,
    Robot,
    SchedulerSpec,
    View,
    as_configuration,
    build_view,
    distance,
    own_cell,
    pair_gather_step,
    random_frame,
    reference_gather_step,
    reference_pattern_step,
    run,
    scatter_step,
    stabilized_gather_step,
    stabilized_pattern_step,
    step,
    to_global,
    world,
)
from scattersim import geometry, protocols
from scattersim.errors import (
    CapabilityError,
    ContractViolationError,
    ScenarioValidationError,
)
from scattersim.protocols import (
    DETERMINISTIC_RULES,
    Protocol,
    deterministic_rule_step,
)

from conftest import ScriptedSource, make_scenario


def view_of(points, counts=None, self_pos=None):
    pts = tuple(sorted(Point(float(x), float(y)) for x, y in points))
    return View(
        points=pts,
        counts=None if counts is None else tuple(counts),
        self_pos=Point(*pts[0]) if self_pos is None else Point(*self_pos),
    )


class SentinelRule(Protocol):
    """Marks which branch a wrapper took."""

    def decide(self, view, caps, sigma, rng):
        return Point(99.0, 99.0)


CAPS_MD = Capabilities(multiplicity_detection=True)
CAPS_FULL = Capabilities(multiplicity_detection=True, localization_knowledge=True)


def test_scatter_stays_on_coin_one():
    view = view_of([(0, 0), (3, 0)], self_pos=(0, 0))
    assert scatter_step(view, 1.0, ScriptedSource([1])) == Point(0, 0)


def test_scatter_moves_on_coin_zero_single_robot():
    view = view_of([(0, 0)])
    for seed in range(200):
        p = scatter_step(view, 1.0, ScriptedSource([0], seed=seed))
        assert p != Point(0, 0)
        assert distance(Point(0, 0), p) <= 1.0


def test_scatter_target_stays_in_own_cell():
    pts = [(0, 0), (2, 0), (0, 2), (3, 3)]
    view = view_of(pts, self_pos=(0, 0))
    cell = own_cell(Point(0, 0), view.points)
    for seed in range(500):
        p = scatter_step(view, 5.0, ScriptedSource([0], seed=seed))
        assert cell.contains(p)


def test_colocated_movers_never_land_together():
    # Two robots on one point see the same single-point view; both move.
    view = view_of([(0, 0)])
    landings = set()
    pairs = 0
    for seed in range(100_000):
        src = ScriptedSource([0, 0], seed=seed)
        a = scatter_step(view, 1.0, src)
        b = scatter_step(view, 1.0, src)
        pairs += 1
        assert a != b
        landings.add((a, b))
    assert pairs == 100_000


def test_only_an_array_takes_the_cell_route(monkeypatch):
    """The form of the points picks the route of the scatter draw: from a
    tuple of any length it builds no cell and gives the draw from their
    array, bit for bit. In one scatter instant of 200 spread robots, only
    the first ``within_reach`` query gets the view's array; the later
    ones get lists, some longer than ``world.SMALL_CELL``, and build no
    cell either."""
    rng = np.random.default_rng(17)

    def draw(position, occupied):
        gen = np.random.default_rng(3)
        target = geometry.scatter_target(position, occupied, 1.0, gen)
        return np.array(target).tobytes(), gen.bit_generator.state

    cases = []
    for m in (33, 64, 200):
        points = tuple(Point(float(x), float(y)) for x, y in rng.uniform(-3.0, 3.0, (m, 2)))
        cases.append((points, draw(points[m // 2], np.array(points))))

    def no_cell(position, occupied):
        raise AssertionError("a sequence built a cell")

    with monkeypatch.context() as mp:
        mp.setattr(geometry, "own_cell", no_cell)
        for points, want in cases:
            assert draw(points[len(points) // 2], points) == want

    cells = []
    own_cell = geometry.own_cell

    def counting_own_cell(position, occupied):
        cells.append(len(occupied))
        return own_cell(position, occupied)

    forms = []
    scatter_target = protocols.scatter_target

    def spy(position, occupied, sigma, rng):
        forms.append((type(occupied), len(occupied)))
        return scatter_target(position, occupied, sigma, rng)

    monkeypatch.setattr(geometry, "own_cell", counting_own_cell)
    monkeypatch.setattr(protocols, "scatter_target", spy)
    config = as_configuration(rng.uniform(-10.0, 10.0, (200, 2)))
    robots = tuple(Robot(j, 1.0) for j in range(200))
    active = SchedulerSpec("bernoulli", 0.5).build().next_activation(200, rng)
    step(config, active, robots, ProtocolSpec("scatter").build(), Capabilities(), rng)
    assert forms[0] == (np.ndarray, 200)
    assert {kind for kind, _ in forms[1:]} == {list}
    assert max(size for _, size in forms[1:]) > world.SMALL_CELL
    assert cells == [200]


def test_scatter_requires_self_in_view():
    # More points than a view hands the draw as a tuple, so a move takes
    # the array route.
    grid = tuple(sorted(Point(float(i % 7), float(i // 7)) for i in range(world.SMALL_CELL + 4)))
    missing = [
        View(points=(Point(1, 1),), counts=None, self_pos=Point(0, 0)),
        View(points=(), counts=None, self_pos=Point(0, 0)),
        View(points=grid, counts=None, self_pos=Point(0.5, 0.5)),
        View(points=grid[::-1], counts=None, self_pos=Point(0.5, 0.5)),
    ]
    # Present, whether the view is sorted as build_view makes it or not,
    # and under either sign of zero.
    present = [
        View(points=grid, counts=None, self_pos=grid[9]),
        View(points=grid[::-1], counts=None, self_pos=grid[9]),
        View(points=grid, counts=None, self_pos=Point(-0.0, 1.0)),
        View(points=(Point(2, 2), Point(0, 0), Point(1, 1)), counts=None, self_pos=Point(0, 0)),
    ]
    for coin in (0, 1):  # a move and a stay
        for bad in missing:
            src = ScriptedSource([coin])
            with pytest.raises(ContractViolationError, match="^observer position missing from view$"):
                scatter_step(bad, 1.0, src)
            assert src.total_draws == 0  # checked before the coin is drawn
        for view in present:
            target = scatter_step(view, 1.0, ScriptedSource([coin]))
            assert (target == view.self_pos) == (coin == 1)


def test_scatter_similarity_invariance(rng):
    # Deciding in a private frame and mapping back lands in the same
    # global cell as deciding in the global frame.
    config = as_configuration([(0, 0), (2, 0), (1, 3), (-2, -1)])
    caps = Capabilities()
    for trial in range(200):
        frame = random_frame(rng)
        observer_private = Robot(0, 1.0, frame)
        observer_global = Robot(0, 1.0)
        gview = build_view(config, observer_global, caps)
        lview = build_view(config, observer_private, caps)
        gcell = own_cell(gview.self_pos, gview.points)
        p_global = scatter_step(gview, 1.0, ScriptedSource([0], seed=trial))
        p_local = scatter_step(lview, 1.0, ScriptedSource([0], seed=trial + 1))
        assert gcell.contains(p_global)
        assert gcell.contains(to_global(frame, p_local))


def test_pattern_wrapper_branches_on_any_multiplicity():
    sentinel = SentinelRule()
    crowded = view_of([(0, 0), (1, 1)], counts=(3, 1), self_pos=(0, 0))
    out = stabilized_pattern_step(crowded, CAPS_MD, 1.0, ScriptedSource([1]), sentinel)
    assert out == Point(0, 0)  # scatter branch, coin 1 stays
    clean = view_of([(0, 0), (1, 1)], counts=(1, 1), self_pos=(0, 0))
    out = stabilized_pattern_step(clean, CAPS_MD, 1.0, ScriptedSource([]), sentinel)
    assert out == Point(99, 99)
    single = view_of([(0, 0)], counts=(1,))
    out = stabilized_pattern_step(single, CAPS_MD, 1.0, ScriptedSource([]), sentinel)
    assert out == Point(99, 99)


def test_gather_wrapper_needs_two_crowded_positions():
    sentinel = SentinelRule()
    two = view_of([(0, 0), (1, 1), (2, 2)], counts=(2, 2, 1), self_pos=(0, 0))
    out = stabilized_gather_step(two, CAPS_MD, 1.0, ScriptedSource([1]), sentinel)
    assert out == Point(0, 0)  # scatter branch
    one = view_of([(0, 0), (1, 1)], counts=(2, 1), self_pos=(0, 0))
    out = stabilized_gather_step(one, CAPS_MD, 1.0, ScriptedSource([]), sentinel)
    assert out == Point(99, 99)
    distinct = view_of([(0, 0), (1, 1), (2, 2)], counts=(1, 1, 1), self_pos=(0, 0))
    out = stabilized_gather_step(distinct, CAPS_MD, 1.0, ScriptedSource([]), sentinel)
    assert out == Point(99, 99)


@pytest.mark.parametrize(
    "counts,pattern_branch,gather_branch",
    [
        ((1,), "rule", "rule"),
        ((1, 1, 1), "rule", "rule"),
        ((2,), "scatter", "rule"),
        ((2, 1), "scatter", "rule"),
        ((3, 1, 1), "scatter", "rule"),
        ((2, 2), "scatter", "scatter"),
        ((2, 2, 1), "scatter", "scatter"),
        ((3, 2, 2), "scatter", "scatter"),
    ],
)
def test_branch_choice_is_function_of_count_multiset(counts, pattern_branch, gather_branch):
    pts = [(float(i), 0.0) for i in range(len(counts))]
    view = view_of(pts, counts=counts, self_pos=pts[0])
    sentinel = SentinelRule()
    out = stabilized_pattern_step(view, CAPS_MD, 1.0, ScriptedSource([1]), sentinel)
    assert (out == Point(99, 99)) == (pattern_branch == "rule")
    out = stabilized_gather_step(view, CAPS_MD, 1.0, ScriptedSource([1]), sentinel)
    assert (out == Point(99, 99)) == (gather_branch == "rule")


def test_wrappers_require_multiplicity_detection():
    view = view_of([(0, 0)], counts=None)
    with pytest.raises(CapabilityError):
        stabilized_pattern_step(view, Capabilities(), 1.0, ScriptedSource([]), SentinelRule())
    with pytest.raises(CapabilityError):
        stabilized_gather_step(view, Capabilities(), 1.0, ScriptedSource([]), SentinelRule())


def test_pair_gather_coin_semantics():
    view = view_of([(0, 0), (4, 0)], self_pos=(0, 0))
    assert pair_gather_step(view, 1.0, ScriptedSource([0])) == Point(4, 0)
    assert pair_gather_step(view, 1.0, ScriptedSource([1])) == Point(0, 0)
    crowd = view_of([(0, 0), (4, 0), (0, 4)], self_pos=(0, 0))
    with pytest.raises(ContractViolationError, match="two robots"):
        pair_gather_step(crowd, 1.0, ScriptedSource([0]))


def test_pair_gather_exhaustive_coin_pairs():
    # Enumerate the four coin pairs through the engine with sigma covering
    # the gap: exactly (0,1) and (1,0) end gathered, so the per-step meet
    # probability is 1/2.
    from scattersim.engine import step

    robots = (Robot(0, 2.0), Robot(1, 2.0))
    config = as_configuration([(0, 0), (1, 0)])
    caps = Capabilities()
    protocol = ProtocolSpec("pair_gather").build()
    met = set()
    for c0 in (0, 1):
        for c1 in (0, 1):
            new, _ = step(config, {0, 1}, robots, protocol, caps, ScriptedSource([c0, c1]))
            if new[0] == new[1]:
                met.add((c0, c1))
            else:
                assert set(new) == set(config)  # stay or swap, still apart
    assert met == {(0, 1), (1, 0)}


def test_reference_gather_phase_one_moves_second_smallest():
    pts = [(0, 0), (1, 0), (2, 0)]
    mover = view_of(pts, counts=(1, 1, 1), self_pos=(1, 0))
    stay_a = view_of(pts, counts=(1, 1, 1), self_pos=(0, 0))
    stay_b = view_of(pts, counts=(1, 1, 1), self_pos=(2, 0))
    assert reference_gather_step(mover, CAPS_FULL, 1.0) == Point(0, 0)
    assert reference_gather_step(stay_a, CAPS_FULL, 1.0) == Point(0, 0)  # already there
    assert reference_gather_step(stay_b, CAPS_FULL, 1.0) == Point(2, 0)


def test_reference_gather_phase_two_pulls_farthest():
    view = view_of([(0, 0), (5, 0)], counts=(2, 1), self_pos=(5, 0))
    assert reference_gather_step(view, CAPS_FULL, 1.0) == Point(0, 0)
    near = view_of([(0, 0), (5, 0)], counts=(2, 1), self_pos=(0, 0))
    assert reference_gather_step(near, CAPS_FULL, 1.0) == Point(0, 0)  # stays at m


def test_reference_gather_gathered_is_fixed_point():
    for counts in ((4,), (1,)):  # a stack, and a lone robot
        view = view_of([(2, 2)], counts=counts)
        assert reference_gather_step(view, CAPS_FULL, 1.0) == Point(2, 2)


def test_reference_gather_requires_capabilities():
    view = view_of([(0, 0), (1, 0)], counts=(1, 1))
    with pytest.raises(CapabilityError):
        reference_gather_step(view, CAPS_MD, 1.0)
    with pytest.raises(CapabilityError):
        reference_gather_step(view_of([(0, 0)]), CAPS_FULL, 1.0)
    two_crowded = view_of([(0, 0), (1, 0)], counts=(2, 2))
    with pytest.raises(ContractViolationError):
        reference_gather_step(two_crowded, CAPS_FULL, 1.0)


def test_reference_pattern_rank_pairing():
    pattern = (Point(0, 0), Point(0, 1))
    mover = view_of([(0, 0), (1, 0)], counts=(1, 1), self_pos=(1, 0))
    stayer = view_of([(0, 0), (1, 0)], counts=(1, 1), self_pos=(0, 0))
    assert reference_pattern_step(mover, CAPS_FULL, 1.0, pattern) == Point(0, 1)
    assert reference_pattern_step(stayer, CAPS_FULL, 1.0, pattern) == Point(0, 0)


def test_reference_pattern_fixed_point():
    pattern = (Point(0, 0), Point(1, 0), Point(2, 0))
    for who in pattern:
        view = view_of(list(pattern), counts=(1, 1, 1), self_pos=who)
        assert reference_pattern_step(view, CAPS_FULL, 1.0, pattern) == who


def test_reference_pattern_contract_errors():
    pattern = (Point(0, 0), Point(1, 0))
    crowded = view_of([(0, 0), (1, 1)], counts=(2, 1), self_pos=(0, 0))
    with pytest.raises(ContractViolationError):
        reference_pattern_step(crowded, CAPS_FULL, 1.0, pattern)
    wrong_size = view_of([(0, 0), (1, 1), (2, 2)], counts=(1, 1, 1))
    with pytest.raises(ContractViolationError):
        reference_pattern_step(wrong_size, CAPS_FULL, 1.0, pattern)
    with pytest.raises(CapabilityError):
        reference_pattern_step(view_of([(0, 0), (1, 1)], counts=(1, 1)), CAPS_MD, 1.0, pattern)


def test_pattern_formation_terminates_from_random_distinct_starts(rng):
    # Collinear target pattern, random distinct starts, full composition.
    n = 4
    pattern = tuple(Point(float(i), 0.0) for i in range(n))
    for seed in range(100):
        positions = [tuple(p) for p in rng.uniform(-3, 3, (n, 2))]
        scenario = make_scenario(
            positions,
            protocol="stabilized_pattern",
            pattern=pattern,
            multiplicity=True,
            localization=True,
            seed=seed,
            max_steps=10_000,
            stop_rule="pattern_reached",
        )
        trace = run(scenario)
        assert trace.status == "stopped:pattern_reached", f"seed {seed}"
        assert sorted(trace.records[-1].config) == sorted(pattern)


def test_deterministic_rules_are_coinless_and_agree_when_colocated():
    view = view_of([(0, 0)], self_pos=(0, 0))
    assert len(DETERMINISTIC_RULES) >= 5
    for name in DETERMINISTIC_RULES:
        a = deterministic_rule_step(view, name)
        b = deterministic_rule_step(view, name)
        assert a == b  # pure function of the view


def test_deterministic_rule_unknown_name():
    with pytest.raises(ScenarioValidationError):
        deterministic_rule_step(view_of([(0, 0)]), "surprise")
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("deterministic_rule", rule="surprise").build()


def test_protocol_spec_validation():
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("mystery").validate()
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("stabilized_pattern").validate()  # needs a pattern
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("stabilized_pattern", pattern=(Point(0, 0), Point(0, 0))).validate()
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("scatter", pattern=(Point(0, 0),)).validate()
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("scatter", rule="unit_x").validate()
    ProtocolSpec("stabilized_pattern", pattern=(Point(0, 0), Point(1, 0))).validate(n=2)
    with pytest.raises(ScenarioValidationError):
        ProtocolSpec("stabilized_pattern", pattern=(Point(0, 0), Point(1, 0))).validate(n=3)
