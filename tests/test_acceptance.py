"""Acceptance suite.

One test per acceptance criterion. C1-C7 and C10 run the campaigns of
``scattersim.campaigns`` that ``scattersim verify`` runs, at their own
seeds and counts; a test adds only its own time limit. Each prints its
checks with the measured values (visible under ``pytest -s`` or in
captured output on failure). Tolerances are fixed in the campaigns, not
tuned at runtime.
"""

import time

import numpy as np

from scattersim import (
    Capabilities,
    Point,
    ProtocolSpec,
    Robot,
    Scenario,
    SchedulerSpec,
    as_configuration,
    campaigns,
    load_trace,
    replay,
    run,
    write_trace,
)
from scattersim.campaigns import SCHEDULERS, Check, corrupted_positions


def report(tag, checks):
    for check in checks:
        print(f"[{tag}] {check.line()}")
    failed = [check.line() for check in checks if not check.passed]
    assert not failed, f"{tag}: {failed}"


def timed(limit, campaign, *args):
    """The campaign's checks plus one that it ran within ``limit`` seconds."""
    started = time.perf_counter()
    checks = campaign(*args)
    elapsed = time.perf_counter() - started
    return [*checks, Check("time", elapsed < limit, f"{elapsed:.2f}s (< {limit:g}s)")]


def test_criterion_1_voronoi_oracle_equivalence():
    report("C1", timed(5.0, campaigns.voronoi_oracle, 10_000, 101))


class _ScriptedDraws:
    """Stands in for C1's generator: two sites, then one query per round."""

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)

    def integers(self, low, high):
        return 2

    def uniform(self, low, high, size):
        got = np.array(self._uniforms.pop(0), dtype=float)
        assert got.shape == size
        return got


def test_criterion_1_skips_a_query_on_a_bisector(monkeypatch):
    """(0, 3) lies on the bisector of (-1, 0) and (1, 0), so it is skipped
    and not counted; (5, 0) is then the one query checked."""
    sites = [[-1.0, 0.0], [1.0, 0.0]]
    draws = _ScriptedDraws([sites, [[0.0, 3.0]], sites, [[5.0, 0.0]]])
    monkeypatch.setattr(campaigns.np.random, "default_rng", lambda seed: draws)
    (check,) = campaigns.voronoi_oracle(1, 0)
    assert check.passed and check.detail.startswith("1 queries, 0 mismatches")
    assert not draws._uniforms


def test_criterion_2_closure_exact():
    report("C2", campaigns.closure(1000, 202))


def test_criterion_3_pair_separation_rate():
    full = SchedulerSpec("full_synchronous")
    report("C3", timed(30.0, campaigns.separation_rate, full, 0.75, 100_000, 303))


def test_criterion_3_verify_separation_at_its_smallest_count():
    # The passing path of ``verify separation``: both headline rates and
    # the 3/4 persistence bound under all four schedulers, at the smallest
    # count its rate gates accept and the suite's default seed.
    checks = campaigns.separation(27_069, 2024)
    assert len(checks) == 6
    report("C3", checks)


def test_criterion_4_decay_bound():
    report("C4", campaigns.decay(100_000, 404))


def test_criterion_5_impossibility():
    checks = campaigns.impossibility(505)
    assert len(checks) >= 5
    report("C5", checks)


def test_criterion_6_pair_gathering():
    report("C6", campaigns.pair_gather(30_000, 606))


def test_criterion_7_stabilized_gathering():
    report("C7", campaigns.stabilized_gather(1000, 707, sizes=range(3, 9)))


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
    report("C8", [Check("stabilized pattern", ok, detail)])


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
            scheduler=SCHEDULERS[i % 4],
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
    detail = f"50 random scenarios written, reloaded, replayed; {divergences} divergences"
    report("C9", [Check("determinism", divergences == 0, detail)])


def test_criterion_10_fairness_audit():
    report("C10", campaigns.fairness(100, 1010))
