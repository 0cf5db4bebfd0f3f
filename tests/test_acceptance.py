"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
with the measured values (visible under ``pytest -s`` or in captured
output on failure). Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from scattersim import (
    Capabilities,
    Point,
    ProtocolSpec,
    Robot,
    Scenario,
    SchedulerSpec,
    as_configuration,
    check_closure,
    compute_voronoi,
    distance,
    estimate_pair_separation,
    gather_stats,
    impossibility_demo,
    load_trace,
    replay,
    run,
    verify_decay_bound,
    write_trace,
)
from scattersim.protocols import DETERMINISTIC_RULES
from scattersim.scheduler import audit_fairness

from conftest import bisector_clearance, make_scenario, nearest_site

ALL_SCHEDULERS = (
    SchedulerSpec("full_synchronous"),
    SchedulerSpec("bernoulli", 0.5),
    SchedulerSpec("round_robin"),
    SchedulerSpec("bounded_delay", 4),
)


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def corrupted_positions(rng, n, style):
    pts = rng.uniform(-2.0, 2.0, (n, 2))
    positions = [tuple(p) for p in pts]
    if style == 0:
        positions = [positions[0]] * n  # everything collapsed onto one point
    elif style == 1 and n >= 2:
        positions[1] = positions[0]  # one or two co-located pairs
        if n >= 4:
            positions[3] = positions[2]
    return positions


def test_criterion_1_voronoi_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    while checked < 10_000:
        k = int(rng.integers(2, 11))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-10, 10, (k, 2))]
        diagram = compute_voronoi(sites)
        for q in rng.uniform(-12, 12, (300, 2)):
            if bisector_clearance(q, sites) < 1e-9:
                continue
            checked += 1
            if diagram.locate(q) != nearest_site(q, sites):
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        "C1 voronoi-oracle",
        mismatches == 0 and elapsed < 5.0,
        f"{checked} queries over 2..10-site diagrams, {mismatches} mismatches, "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_closure_exact():
    rng = np.random.default_rng(202)
    runs = 0
    violations = 0
    for i in range(1000):
        positions = corrupted_positions(rng, 5, i % 3)
        scenario = Scenario(
            robots=tuple(Robot(j, 1.0) for j in range(5)),
            initial=as_configuration(positions),
            caps=Capabilities(),
            scheduler=ALL_SCHEDULERS[i % 4],
            protocol=ProtocolSpec("scatter"),
            seed=int(rng.integers(0, 2**63)),
            max_steps=200,
            stop_rule="none",
        )
        trace = run(scenario)
        assert len(trace.records) == 200
        runs += 1
        if not check_closure(trace).passed:
            violations += 1
    report(
        "C2 closure",
        violations == 0,
        f"{runs} scatter runs x 200 instants across 4 scheduler kinds, "
        f"{violations} post-distinct multiplicities",
    )


def test_criterion_3_pair_separation_rate():
    started = time.perf_counter()
    est = estimate_pair_separation(SchedulerSpec("full_synchronous"), trials=100_000, seed=303)
    elapsed = time.perf_counter() - started
    ok = abs(est.rate - 0.75) <= 0.01 and elapsed < 30.0
    report(
        "C3 separation",
        ok,
        f"rate={est.rate:.4f} (target 0.75 +- 0.01), persistence={est.persistence:.4f} "
        f"(oracle 1/4), {est.active_instants} active instants, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_decay_bound():
    rep = verify_decay_bound(SchedulerSpec("full_synchronous"), trials=100_000, seed=404, max_a=15)
    worst = max(s - lim for s, lim in zip(rep.survival, rep.limits))
    report(
        "C4 decay",
        rep.passed,
        f"survival <= 0.75^a + 3se for a in [0,15] at {rep.trials} trials, "
        f"max excess {worst:.2e}",
    )


def test_criterion_5_impossibility():
    rules = list(DETERMINISTIC_RULES)
    assert len(rules) >= 5
    failed = []
    for name in rules[:5]:
        rule = ProtocolSpec("deterministic_rule", rule=name).build()
        verdict = impossibility_demo(rule, steps=100, n=4, seed=505)
        if not verdict.passed:
            failed.append(name)
    report(
        "C5 impossibility",
        not failed,
        f"5 coin-free rules, 100 instants each, exact co-location "
        f"{'held' if not failed else 'broken by ' + ','.join(failed)}",
    )


def test_criterion_6_pair_gathering():
    meets = 0
    instants = 0
    steps = []
    for seed in range(10_000):
        scenario = make_scenario(
            [(0.0, 0.0), (1.0, 0.0)],
            protocol="pair_gather",
            sigma=1.0,  # sigma >= initial distance
            seed=seed,
            max_steps=5000,
            stop_rule="gathered",
        )
        trace = run(scenario)
        if trace.status == "stopped:gathered":
            meets += 1
            steps.append(len(trace.records))
        instants += len(trace.records)
    rate = meets / instants
    mean = float(np.mean(steps))
    ok = abs(rate - 0.5) <= 0.01 and abs(mean - 2.0) <= 0.1 and meets == 10_000
    report(
        "C6 pair gathering",
        ok,
        f"meet rate={rate:.4f} (target 0.50 +- 0.01), mean steps={mean:.3f} "
        f"(target 2.0 +- 0.1), gathered {meets}/10000",
    )


def test_criterion_7_stabilized_gathering():
    rng = np.random.default_rng(707)
    per_n = {}
    for n in range(3, 9):
        scenarios = []
        for i in range(1000):
            scenarios.append(
                Scenario(
                    robots=tuple(Robot(j, 1.0) for j in range(n)),
                    initial=as_configuration(corrupted_positions(rng, n, i % 3)),
                    caps=Capabilities(multiplicity_detection=True, localization_knowledge=True),
                    scheduler=SchedulerSpec("bounded_delay", 4),
                    protocol=ProtocolSpec("stabilized_gather"),
                    seed=int(rng.integers(0, 2**63)),
                    max_steps=10_000,
                    stop_rule="gathered",
                )
            )
        per_n[n] = gather_stats(scenarios)
    ok = all(s.fraction == 1.0 for s in per_n.values())
    detail = "; ".join(
        f"n={n}: {s.gathered}/{s.trials} mean={s.mean_steps:.1f} max={s.max_steps}"
        for n, s in per_n.items()
    )
    report("C7 stabilized gathering", ok, detail)


def test_criterion_8_stabilized_pattern():
    rng = np.random.default_rng(808)
    results = {}
    for n in range(3, 7):
        pattern = tuple(Point(float(i), 0.0) for i in range(n))
        reached = 0
        trials = 125
        for i in range(trials):
            scenario = Scenario(
                robots=tuple(Robot(j, 1.0) for j in range(n)),
                initial=as_configuration(corrupted_positions(rng, n, i % 3)),
                caps=Capabilities(multiplicity_detection=True, localization_knowledge=True),
                scheduler=SchedulerSpec("full_synchronous"),
                protocol=ProtocolSpec("stabilized_pattern", pattern=pattern),
                seed=int(rng.integers(0, 2**63)),
                max_steps=10_000,
                stop_rule="pattern_reached",
            )
            trace = run(scenario)
            if trace.status == "stopped:pattern_reached":
                assert sorted(trace.records[-1].config) == sorted(pattern)
                reached += 1
        results[n] = (reached, trials)
    ok = all(r == t for r, t in results.values())
    detail = "; ".join(f"n={n}: {r}/{t} exact" for n, (r, t) in results.items())
    report("C8 stabilized pattern", ok, detail)


def test_criterion_9_determinism(tmp_path):
    rng = np.random.default_rng(909)
    divergences = 0
    for i in range(50):
        n = int(rng.integers(1, 7))
        choices = ["scatter", "deterministic_rule"]
        if n == 2:
            choices.append("pair_gather")
        if n >= 3:
            choices.append("stabilized_gather")
        choices.append("stabilized_pattern")
        kind = choices[int(rng.integers(0, len(choices)))]
        needs_caps = kind in ("stabilized_gather", "stabilized_pattern")
        pattern = (
            tuple(Point(float(j), float(j % 2)) for j in range(n))
            if kind == "stabilized_pattern"
            else None
        )
        scenario = Scenario(
            robots=tuple(Robot(j, float(rng.uniform(0.3, 2.0))) for j in range(n)),
            initial=as_configuration(corrupted_positions(rng, n, int(rng.integers(0, 3)))),
            caps=Capabilities(
                multiplicity_detection=needs_caps, localization_knowledge=needs_caps
            ),
            scheduler=ALL_SCHEDULERS[i % 4],
            protocol=ProtocolSpec(
                kind,
                pattern=pattern,
                rule="centroid" if kind == "deterministic_rule" else None,
            ),
            seed=int(rng.integers(0, 2**63)),
            max_steps=int(rng.integers(1, 60)),
            stop_rule="none",
        )
        path = tmp_path / f"{i}.trace"
        write_trace(run(scenario), path)
        verdict = replay(load_trace(path))
        if not verdict.passed:
            divergences += 1
    report(
        "C9 determinism",
        divergences == 0,
        f"50 random scenarios written, reloaded, replayed; {divergences} divergences",
    )


def test_criterion_10_fairness_audit():
    rng = np.random.default_rng(1010)
    window = 5
    failures = 0
    for _ in range(100):
        scenario = make_scenario(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
            protocol="deterministic_rule",
            rule="unit_x",
            scheduler=("bounded_delay", window),
            seed=int(rng.integers(0, 2**63)),
            max_steps=1000,
            stop_rule="none",
        )
        if not audit_fairness(run(scenario), window).passed:
            failures += 1
    # Synthetic unfair trace: strip robot 2 from every activation set.
    from scattersim.engine import StepRecord, Trace

    base = run(
        make_scenario(
            [(0, 0), (1, 0), (2, 0)], scheduler=("full_synchronous", None), max_steps=60
        )
    )
    unfair = Trace(
        scenario=base.scenario,
        digest=base.digest,
        initial=base.initial,
        records=tuple(
            StepRecord(r.t, (0, 1), r.coins[:2], r.targets[:2], r.config)
            for r in base.records
        ),
        status=base.status,
    )
    verdict = audit_fairness(unfair, window=10)
    rejected = verdict.status == "fail" and verdict.culprit == 2
    report(
        "C10 fairness",
        failures == 0 and rejected,
        f"bounded_delay({window}) passed window {window} for 100 seeds with "
        f"{failures} failures; synthetic starvation rejected={rejected}",
    )
