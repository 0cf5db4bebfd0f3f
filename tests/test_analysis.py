import math
from dataclasses import replace

import numpy as np
import pytest

from scattersim import (
    Capabilities,
    Point,
    Robot,
    SchedulerSpec,
    check_closure,
    estimate_pair_separation,
    gather_stats,
    impossibility_demo,
    run,
    step,
    verify_decay_bound,
    wilson_interval,
)
from scattersim import analysis, campaigns, protocols
from scattersim.analysis import (
    PAIR_PERSISTENCE_BOUND,
    GatherSummary,
    ImpossibilityVerdict,
    _pair_campaign,
)
from scattersim.engine import TRIAL_BLOCK, RecordingSource, StepRecord, Trace
from scattersim.errors import NotDeterministicError, ScenarioValidationError
from scattersim.protocols import DETERMINISTIC_RULES, Protocol, ProtocolSpec

from conftest import make_scenario

FULL = SchedulerSpec("full_synchronous")
ALL_KINDS = (
    SchedulerSpec("full_synchronous"),
    SchedulerSpec("bernoulli", 0.5),
    SchedulerSpec("round_robin"),
    SchedulerSpec("bounded_delay", 4),
)


def synthetic_trace(configs, scenario):
    records = tuple(
        StepRecord(t, (0,), ((1,),), (config[0],), config)
        for t, config in enumerate(configs[1:])
    )
    return Trace(replace(scenario, initial=configs[0]), records, "budget_exhausted")


def test_closure_passes_on_distinct_trace():
    scenario = make_scenario([(0, 0), (1, 1)], max_steps=5)
    configs = [((Point(0, 0)), Point(1, 1))] * 4
    configs = [tuple(c) for c in configs]
    verdict = check_closure(synthetic_trace(configs, scenario))
    assert verdict.passed
    assert verdict.first_distinct == 0


def test_closure_flags_reintroduced_duplicate():
    scenario = make_scenario([(0, 0), (0, 0)], max_steps=5)
    configs = [
        (Point(0, 0), Point(0, 0)),
        (Point(0, 0), Point(1, 0)),  # first all-distinct at instant 1
        (Point(0, 0), Point(1, 0)),
        (Point(2, 2), Point(2, 2)),  # violation at instant 3
    ]
    verdict = check_closure(synthetic_trace(configs, scenario))
    assert not verdict.passed
    assert verdict.first_distinct == 1
    assert verdict.first_violation == 3


def test_closure_on_simulated_campaign(rng):
    for seed in range(100):
        scenario = make_scenario(
            [(0, 0), (0, 0), (1, 1)],
            scheduler=("bernoulli", 0.5),
            seed=seed,
            max_steps=100,
        )
        assert check_closure(run(scenario)).passed


def test_separation_rate_full_synchronous():
    est = estimate_pair_separation(FULL, trials=10_000, seed=0)
    assert abs(est.rate - 0.75) <= 0.02
    assert est.wilson_low <= 0.75 <= est.wilson_high


def test_separation_rate_singleton_scheduler():
    est = estimate_pair_separation(SchedulerSpec("round_robin"), trials=10_000, seed=1)
    assert abs(est.rate - 0.5) <= 0.02


def test_persistence_bound_across_schedulers():
    for spec in ALL_KINDS:
        est = estimate_pair_separation(spec, trials=4000, seed=2)
        assert est.persistence <= PAIR_PERSISTENCE_BOUND + 0.02, spec.kind


def _fresh_sources(seed, trials):
    """The reference seeding: a new generator and source per trial."""
    for trial in range(trials):
        g = np.random.default_rng([seed, trial])
        yield g, RecordingSource(g)


def _campaign_pair(monkeypatch, scheduler, trials, seed):
    batched = _pair_campaign(scheduler, trials, seed)
    with monkeypatch.context() as m:
        m.setattr(analysis, "trial_sources", _fresh_sources)
        fresh = _pair_campaign(scheduler, trials, seed)
    return batched, fresh


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
@pytest.mark.parametrize("past_block", [0, 2])
@pytest.mark.parametrize("scheduler", campaigns.SCHEDULERS, ids=lambda s: s.kind)
def test_pair_campaign_equals_fresh_generator_per_trial(monkeypatch, scheduler, past_block, seed):
    # A campaign that ends on a seeding block's last trial, and one that
    # runs two trials into the next block.
    trials = TRIAL_BLOCK + past_block
    batched, fresh = _campaign_pair(monkeypatch, scheduler, trials, seed)
    assert len(batched) == trials
    assert batched == fresh


def test_pair_campaign_equal_across_a_seeding_block(monkeypatch):
    batched, fresh = _campaign_pair(monkeypatch, SchedulerSpec("round_robin"), 1030, 11)
    assert batched == fresh


def test_pair_gather_seeds_each_scenario_as_before(monkeypatch):
    trials, seed = 1030, 606
    seen = []

    def record_seeds(scenarios):
        seen.extend(s.seed for s in scenarios)
        n = len(seen)
        return GatherSummary(trials=n, gathered=n, steps=(2,) * n, instants=2 * n)

    monkeypatch.setattr(campaigns, "_require_trials", lambda *args: None)
    monkeypatch.setattr(analysis, "gather_stats", record_seeds)
    campaigns.pair_gather(trials, seed)
    assert seen == [int(np.random.default_rng([seed, t]).integers(0, 2**63)) for t in range(trials)]


def test_both_move_rate_bounded_by_quarter():
    # A stacked pair under full activation: both robots move when both
    # coins say move, so in a quarter of the instants.
    robots = (Robot(0, 1.0), Robot(1, 1.0))
    start = (Point(0.0, 0.0), Point(0.0, 0.0))
    protocol = ProtocolSpec("scatter").build()
    both_moved = 0
    for seed in range(10_000):
        _, outcome = step(start, {0, 1}, robots, protocol, Capabilities(), np.random.default_rng(seed))
        both_moved += outcome.moved_count == 2
    assert abs(both_moved / 10_000 - 0.25) <= 0.02


def test_decay_bound_full_synchronous():
    report = verify_decay_bound(FULL, trials=20_000, seed=6)
    assert report.passed
    assert report.survival[0] == 1.0
    assert report.bounds[0] == 1.0
    # Under full activation survival decays like (1/4)^a, well inside 0.75^a.
    assert abs(report.survival[1] - 0.25) <= 0.02
    assert report.survival[10] <= report.limits[10]
    assert math.isclose(report.bounds[10], 0.75**10)


def test_decay_bound_other_schedulers():
    for spec in (SchedulerSpec("round_robin"), SchedulerSpec("bounded_delay", 4)):
        report = verify_decay_bound(spec, trials=5000, seed=7)
        assert report.passed, spec.kind


def test_impossibility_default_rule():
    verdict = impossibility_demo(ProtocolSpec("deterministic_rule", rule="unit_x").build(), steps=100, n=3)
    assert verdict.passed
    assert verdict.instants == 100
    assert verdict.first_divergence is None


def test_impossibility_all_rules():
    for name in DETERMINISTIC_RULES:
        rule = ProtocolSpec("deterministic_rule", rule=name).build()
        verdict = impossibility_demo(rule, steps=100, n=5, seed=9)
        assert verdict.passed, name


class Drifting(Protocol):
    """Coin-free but impure: each call returns a new target."""

    def __init__(self):
        self.calls = 0

    def decide(self, view, caps, sigma, rng):
        self.calls += 1
        return Point(0.1 * self.calls, 0.0)


def test_impossibility_reports_an_impure_rule_separating():
    """A rule that draws nothing yet answers each call anew splits the
    swarm at the first instant; the harness reports it, not a pass."""
    verdict = impossibility_demo(Drifting(), steps=100, n=3)
    assert verdict == ImpossibilityVerdict(False, 1, 1)


def test_pair_campaign_refuses_a_pair_that_never_separates(monkeypatch):
    """Under a scatter rule that always stays the pair never separates, so
    the campaign raises at its instant budget instead of counting."""
    monkeypatch.setattr(protocols, "scatter_from", lambda position, points, sigma, rng: position)
    monkeypatch.setattr(analysis, "PAIR_INSTANT_BUDGET", 20)
    with pytest.raises(RuntimeError, match="^pair did not separate within the instant budget$"):
        _pair_campaign(SchedulerSpec("full_synchronous"), 3, 0)


def test_impossibility_rejects_coin_draws():
    with pytest.raises(NotDeterministicError):
        impossibility_demo(ProtocolSpec("scatter").build(), steps=10, n=3)


def test_campaign_sizes_are_checked():
    rule = ProtocolSpec("deterministic_rule", rule=next(iter(DETERMINISTIC_RULES))).build()
    with pytest.raises(ValueError, match="steps"):
        impossibility_demo(rule, steps=0, n=3)
    with pytest.raises(ScenarioValidationError, match="n >= 2"):
        impossibility_demo(rule, steps=10, n=1)
    for campaign in (estimate_pair_separation, verify_decay_bound):
        with pytest.raises(ValueError, match="trials"):
            campaign(SchedulerSpec("full_synchronous"), 0)


def test_gather_stats_pair_already_gathered():
    scenario = make_scenario(
        [(1, 1), (1, 1)], protocol="pair_gather", stop_rule="gathered", max_steps=100
    )
    summary = gather_stats([scenario])
    assert summary.fraction == 1.0
    assert summary.steps == (0,)


def test_gather_stats_pair_mean_matches_geometric_oracle():
    scenarios = [
        make_scenario(
            [(0, 0), (1, 0)],
            protocol="pair_gather",
            stop_rule="gathered",
            seed=seed,
            max_steps=2000,
        )
        for seed in range(2000)
    ]
    summary = gather_stats(scenarios)
    assert summary.fraction == 1.0
    assert abs(summary.mean_steps - 2.0) <= 0.15


def test_wilson_interval_basics():
    low, high = wilson_interval(75, 100)
    assert low < 0.75 < high
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low, high = wilson_interval(0, 50)
    assert low == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= low < high < 0.2
