from types import SimpleNamespace

import numpy as np
import pytest

from scattersim import SchedulerSpec, audit_fairness
from scattersim.errors import ScenarioValidationError


def fake_trace(activations, n):
    return SimpleNamespace(
        records=[SimpleNamespace(active=tuple(a)) for a in activations], n=n
    )


def test_full_synchronous_activates_everyone():
    sched = SchedulerSpec("full_synchronous").build()
    rng = np.random.default_rng(0)
    assert sched.next_activation(3, rng) == frozenset({0, 1, 2})


def test_bernoulli_never_empty_over_many_draws():
    sched = SchedulerSpec("bernoulli", 0.5).build()
    rng = np.random.default_rng(7)
    for _ in range(1_000_000):
        assert sched.next_activation(3, rng)


def test_round_robin_cycles_singletons():
    sched = SchedulerSpec("round_robin").build()
    rng = np.random.default_rng(0)
    seen = [sched.next_activation(4, rng) for _ in range(8)]
    assert seen == [frozenset({i % 4}) for i in range(8)]


def test_all_kinds_nonempty_subsets(rng):
    for spec in (
        SchedulerSpec("full_synchronous"),
        SchedulerSpec("bernoulli", 0.2),
        SchedulerSpec("round_robin"),
        SchedulerSpec("bounded_delay", 3),
    ):
        sched = spec.build()
        for _ in range(2000):
            got = sched.next_activation(5, rng)
            assert got
            assert got <= set(range(5))


def test_bounded_delay_traces_pass_audit_at_window():
    window = 4
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sched = SchedulerSpec("bounded_delay", window).build()
        activations = [sched.next_activation(6, rng) for _ in range(1000)]
        verdict = audit_fairness(fake_trace(activations, 6), window)
        assert verdict.passed, f"seed {seed}: worst gap {verdict.worst_gap}"


def test_audit_full_synchronous_window_one():
    activations = [frozenset({0, 1, 2})] * 50
    verdict = audit_fairness(fake_trace(activations, 3), 1)
    assert verdict.passed
    assert verdict.worst_gap == 0


def test_audit_flags_starved_robot():
    activations = [frozenset({0, 1})] * 30  # robot 2 never activated
    verdict = audit_fairness(fake_trace(activations, 3), 10)
    assert verdict.status == "fail"
    assert verdict.culprit == 2
    assert verdict.worst_gap == 30


def test_audit_window_longer_than_trace_is_inconclusive():
    activations = [frozenset({0})] * 5
    verdict = audit_fairness(fake_trace(activations, 2), 10)
    assert verdict.status == "inconclusive"
    assert verdict.worst_gap == 5  # robot 1 idle for the whole trace


def test_spec_validation():
    with pytest.raises(ScenarioValidationError):
        SchedulerSpec("bernoulli", 0.0).validate()
    with pytest.raises(ScenarioValidationError):
        SchedulerSpec("bernoulli").validate()
    with pytest.raises(ScenarioValidationError):
        SchedulerSpec("bounded_delay", 0).validate()
    with pytest.raises(ScenarioValidationError):
        SchedulerSpec("mystery").validate()
    with pytest.raises(ScenarioValidationError):
        SchedulerSpec("full_synchronous", 0.5).validate()
    SchedulerSpec("bernoulli", 1.0).validate()


@pytest.mark.parametrize(
    "kind, param",
    [
        ("bounded_delay", float("inf")),
        ("bounded_delay", float("nan")),
        ("bounded_delay", "4"),
        ("bounded_delay", "x"),
        ("bounded_delay", True),
        ("bounded_delay", 2.5),
        ("bernoulli", "0.5"),
        ("bernoulli", "x"),
        ("bernoulli", True),
        ("bernoulli", float("nan")),
        ("bernoulli", float("inf")),
    ],
)
def test_bad_param_is_a_validation_error_on_its_field(kind, param):
    with pytest.raises(ScenarioValidationError) as info:
        SchedulerSpec(kind, param).validate()
    assert info.value.field == "scheduler.param"


@pytest.mark.parametrize(
    "kind, param, built",
    [
        ("bounded_delay", 4, 4),
        ("bounded_delay", 4.0, 4),
        ("bounded_delay", np.int64(3), 3),
        ("bernoulli", 1, 1.0),
        ("bernoulli", np.float64(0.25), 0.25),
    ],
)
def test_numeric_params_of_any_type_build(kind, param, built):
    sched = SchedulerSpec(kind, param).build()
    assert (sched.window if kind == "bounded_delay" else sched.p) == built
