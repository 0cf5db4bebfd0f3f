import math

import numpy as np
import pytest

from scattersim import (
    Point,
    SchedulerSpec,
    check_closure,
    estimate_pair_separation,
    gather_stats,
    impossibility_demo,
    run,
    verify_decay_bound,
    wilson_interval,
)
from scattersim.analysis import PAIR_PERSISTENCE_BOUND, _pair_campaign
from scattersim.engine import StepRecord, Trace
from scattersim.errors import NotDeterministicError
from scattersim.protocols import DETERMINISTIC_RULES, ProtocolSpec

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
    return Trace(
        scenario=scenario,
        digest="synthetic",
        initial=configs[0],
        records=records,
        status="budget_exhausted",
    )


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
    # All instants have both robots active under full activation.
    assert est.tally.both_inactive == 0
    assert est.tally.one_active_stay == 0


def test_separation_rate_singleton_scheduler():
    est = estimate_pair_separation(SchedulerSpec("round_robin"), trials=10_000, seed=1)
    assert abs(est.rate - 0.5) <= 0.02


def test_persistence_bound_across_schedulers():
    for spec in ALL_KINDS:
        est = estimate_pair_separation(spec, trials=4000, seed=2)
        assert est.persistence <= PAIR_PERSISTENCE_BOUND + 0.02, spec.kind


def test_tally_partitions_instants_and_counters_agree():
    campaign = _pair_campaign(SchedulerSpec("bernoulli", 0.5), trials=2000, seed=3)
    tally = campaign.tally
    buckets = [
        tally.both_inactive,
        tally.one_active_stay,
        tally.one_active_move,
        tally.both_active_none_move,
        tally.both_active_one_move,
        tally.both_active_move_apart,
        tally.both_active_move_together,
    ]
    assert sum(buckets) == tally.instants
    assert tally.active_instants + tally.both_inactive == tally.instants
    # Continuous sampling never lands two movers on the same point.
    assert tally.both_active_move_together == 0
    # Per-trial instants split exactly into active and inactive ones.
    stats = campaign.stats
    assert stats.trials == 2000
    for k, a, na in zip(
        stats.steps_to_all_distinct,
        stats.active_pair_instants,
        stats.inactive_pair_instants,
    ):
        assert a + na == k
    assert sum(stats.steps_to_all_distinct) == tally.instants


def test_bystanders_allow_fully_inactive_pair_instants():
    campaign = _pair_campaign(SchedulerSpec("bernoulli", 0.4), trials=500, seed=4, bystanders=2)
    assert campaign.tally.both_inactive > 0
    assert sum(campaign.stats.inactive_pair_instants) == campaign.tally.both_inactive


def test_both_move_rate_bounded_by_quarter():
    est = estimate_pair_separation(FULL, trials=10_000, seed=5)
    assert abs(est.tally.both_move_rate - 0.25) <= 0.02


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


def test_impossibility_rejects_coin_draws():
    with pytest.raises(NotDeterministicError):
        impossibility_demo(ProtocolSpec("scatter").build(), steps=10, n=3)


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
