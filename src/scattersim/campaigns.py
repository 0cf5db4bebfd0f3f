"""Acceptance campaigns: every seeded check of the paper's claims, defined once.

A campaign is a function of its count (queries, runs, trials or traces)
and a seed that returns a list of ``Check`` records. ``scattersim verify``
prints them and ``tests/test_acceptance.py`` asserts them, so both run the
same scenarios from the same seeds:

- ``voronoi_oracle``: cell location against the nearest-site argmin; a
  query lies in the first site's ``own_cell`` that contains it
- ``closure``: once all-distinct, a scatter run never re-collides
- ``separation_rate``, ``separation``: a stacked pair separates at rate
  3/4 per active instant under full synchrony and 1/2 under round robin,
  and under every scheduler stays together with probability at most 3/4
- ``decay``: co-location survival stays under the (3/4)^a envelope
- ``impossibility``: coin-free rules never break a co-located swarm
- ``pair_gather``, ``stabilized_gather``, ``gather``: two robots meet at
  rate 1/2, so in 2 instants on average; self-stabilizing gathering from
  corrupted starts always succeeds
- ``fairness``: bounded-delay traces pass the audit, a starved robot fails it

A rate is gated at ``target +- RATE_TOL``, never wider. A campaign with
such a gate refuses, before it runs anything, a count below
``min_trials(target, RATE_TOL)``: too few trials for a correct program
to pass with 99.9% probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .engine import Scenario, run, trial_sources
from .errors import ScatterSimError
from .geometry import Point, distance, own_cell
from .protocols import DETERMINISTIC_RULES, ProtocolSpec
from .scheduler import SchedulerSpec, audit_fairness
from .world import Capabilities, Robot, as_configuration

SCHEDULERS = (
    SchedulerSpec("full_synchronous"),
    SchedulerSpec("bernoulli", 0.5),
    SchedulerSpec("round_robin"),
    SchedulerSpec("bounded_delay", 4),
)
RATE_TOL = 0.01


@dataclass(frozen=True)
class Check:
    """One gated measurement: what was checked, the verdict, the values."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def corrupted_positions(rng, n: int, style: int) -> list:
    """``n`` start positions drawn in [-2, 2]^2. Style 0 puts every robot
    on the first point, style 1 stacks robot 1 on 0 (and 3 on 2 when
    n >= 4), style 2 keeps the draws as they are."""
    positions = [tuple(p) for p in rng.uniform(-2.0, 2.0, (n, 2))]
    if style == 0:
        positions = [positions[0]] * n
    elif style == 1 and n >= 2:
        positions[1] = positions[0]
        if n >= 4:
            positions[3] = positions[2]
    return positions


def _scenario(positions, scheduler, protocol, seed, max_steps, stop_rule, caps=Capabilities()):
    return Scenario(
        robots=tuple(Robot(j, 1.0) for j in range(len(positions))),
        initial=as_configuration(positions),
        caps=caps,
        scheduler=scheduler,
        protocol=protocol,
        seed=seed,
        max_steps=max_steps,
        stop_rule=stop_rule,
    )


def min_trials(target: float, tol: float) -> int:
    """Fewest trials at which the 99.9% normal half-width of a rate near
    ``target`` is at most ``tol``. Every trial adds at least one instant to
    the rate's denominator, so counting trials errs on the safe side."""
    from statistics import NormalDist  # imported here: it costs ~5 ms at start-up

    z = NormalDist().inv_cdf(0.9995)  # two-sided 99.9%
    return math.ceil(z**2 * target * (1.0 - target) / tol**2)


def _require_trials(name: str, trials: int, *targets: float) -> None:
    need = max(min_trials(target, RATE_TOL) for target in targets)
    if trials < need:
        raise ScatterSimError(
            f"{name} needs at least {need} trials for its +-{RATE_TOL} rate gate "
            f"at 99.9%, got {trials}"
        )


def _rate_check(name: str, rate: float, target: float, note: str = "") -> Check:
    detail = f"rate={rate:.4f} target={target:.2f} tol={RATE_TOL}{note}"
    return Check(name, abs(rate - target) <= RATE_TOL, detail)


def voronoi_oracle(queries: int, seed: int) -> list[Check]:
    """Locate query points among random 2..10 sites, each in the first
    site's ``own_cell`` that contains it; queries closer than 1e-9 to a
    bisector are skipped and not counted."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    checked = 0
    while checked < queries:
        k = int(rng.integers(2, 11))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-10, 10, size=(k, 2))]
        cells = [own_cell(s, sites) for s in sites]
        for qx, qy in rng.uniform(-12, 12, size=(min(200, queries - checked), 2)):
            q = Point(float(qx), float(qy))
            d = [distance(q, s) for s in sites]
            nearest = min(range(k), key=d.__getitem__)
            clearance = min(
                abs(d[i] ** 2 - d[j] ** 2) / (2.0 * distance(sites[i], sites[j]))
                for i in range(k)
                for j in range(i + 1, k)
            )
            if clearance < 1e-9:
                continue
            checked += 1
            mismatches += next((i for i, c in enumerate(cells) if c.contains(q)), None) != nearest
    detail = f"{checked} queries, {mismatches} mismatches against nearest-site argmin"
    return [Check("voronoi-oracle", mismatches == 0, detail)]


def _closure_scenarios(runs: int, seed: int):
    """Five-robot scatter runs of 200 instants from corrupted starts, the
    schedulers taken in turn."""
    rng = np.random.default_rng(seed)
    for i in range(runs):
        positions = corrupted_positions(rng, 5, i % 3)
        scheduler = SCHEDULERS[i % len(SCHEDULERS)]
        seed_i = int(rng.integers(0, 2**63))
        yield _scenario(positions, scheduler, ProtocolSpec("scatter"), seed_i, 200, "none")


def closure(runs: int, seed: int) -> list[Check]:
    violations = sum(not analysis.check_closure(run(s)) for s in _closure_scenarios(runs, seed))
    detail = f"{runs} scatter runs x 200 instants, {violations} post-distinct multiplicities"
    return [Check("closure", violations == 0, detail)]


def separation_rate(
    scheduler: SchedulerSpec, target: float, trials: int, seed: int, wilson: bool = True
) -> list[Check]:
    """Separations per active instant of a stacked pair against ``target``."""
    _require_trials(f"separation {scheduler.kind}", trials, target)
    est = analysis.estimate_pair_separation(scheduler, trials, seed)
    note = f" wilson=[{est.wilson_low:.4f},{est.wilson_high:.4f}]" if wilson else ""
    return [_rate_check(f"separation {scheduler.kind}", est.rate, target, note)]


def separation(trials: int, seed: int) -> list[Check]:
    """The two headline rates at ``trials`` pairs each, then the 3/4
    persistence bound under every scheduler at max(trials/10, 1000) pairs."""
    _require_trials("separation", trials, 0.75, 0.5)
    checks = separation_rate(SCHEDULERS[0], 0.75, trials, seed)
    checks += separation_rate(SCHEDULERS[2], 0.5, trials, seed + 1, wilson=False)
    for spec in SCHEDULERS:
        est = analysis.estimate_pair_separation(spec, max(trials // 10, 1000), seed + 2)
        ok = est.persistence <= analysis.PAIR_PERSISTENCE_BOUND + RATE_TOL
        detail = f"persistence={est.persistence:.4f} bound=0.75 tol={RATE_TOL}"
        checks.append(Check(f"persistence bound {spec.kind}", ok, detail))
    return checks


def decay(trials: int, seed: int) -> list[Check]:
    report = analysis.verify_decay_bound(SCHEDULERS[0], trials, seed)
    worst = max((s - b for s, b in zip(report.survival, report.limits)), default=0.0)
    detail = f"{trials} trials, survival <= 0.75^a + 3se for a in [0,15], max excess {worst:.2e}"
    return [Check("decay bound", report.passed, detail)]


def impossibility(seed: int) -> list[Check]:
    checks = []
    for rule in DETERMINISTIC_RULES:
        protocol = ProtocolSpec("deterministic_rule", rule=rule).build()
        verdict = analysis.impossibility_demo(protocol, steps=100, n=4, seed=seed)
        detail = f"co-located for {verdict.instants}/100 instants"
        checks.append(Check(f"impossibility {rule}", verdict.passed, detail))
    return checks


def pair_gather(trials: int, seed: int) -> list[Check]:
    """Two robots one unit apart under full synchrony: each instant they
    meet with probability 1/2, so in 2 instants on average. Every trial
    must meet within its 10,000 instants."""
    _require_trials("pair gather", trials, 0.5)
    protocol = ProtocolSpec("pair_gather")
    seeds = (int(g.integers(0, 2**63)) for g, _ in trial_sources(seed, trials))
    summary = analysis.gather_stats(
        _scenario([(0.0, 0.0), (1.0, 0.0)], SCHEDULERS[0], protocol, s, 10_000, "gathered")
        for s in seeds
    )
    met, mean = summary.gathered, summary.mean_steps
    steps = f"mean={mean:.3f} target=2.0 tol=0.1"
    return [
        _rate_check("pair gather meet rate", met / summary.instants, 0.5),
        Check("pair gather mean steps", abs(mean - 2.0) <= 0.1, steps),
        Check("pair gather met", met == trials, f"gathered {met}/{trials}"),
    ]


def stabilized_gather(runs: int, seed: int, sizes=(3, 4, 5)) -> list[Check]:
    """``runs`` corrupted starts per swarm size under bounded delay; every
    one must gather."""
    rng = np.random.default_rng(seed)
    protocol = ProtocolSpec("stabilized_gather")
    caps = Capabilities(multiplicity_detection=True, localization_knowledge=True)
    checks = []
    for n in sizes:
        s = analysis.gather_stats(
            _scenario(
                corrupted_positions(rng, n, i % 3),
                SCHEDULERS[3],
                protocol,
                int(rng.integers(0, 2**63)),
                10_000,
                "gathered",
                caps,
            )
            for i in range(runs)
        )
        detail = f"{s.gathered}/{s.trials} gathered, mean={s.mean_steps:.1f} max={s.max_steps}"
        detail += " instants"
        checks.append(Check(f"stabilized gather n={n}", s.fraction == 1.0, detail))
    return checks


def gather(trials: int, seed: int) -> list[Check]:
    """Pair gathering at ``trials`` runs, then 30 self-stabilizing runs
    per swarm size 3, 4 and 5."""
    return pair_gather(trials, seed) + stabilized_gather(30, seed)


def fairness(traces: int, seed: int) -> list[Check]:
    """Audit bounded-delay traces of 1000 instants with their window, then
    a 200-instant scatter trace with robot 2 stripped from every
    activation set, which must fail the audit."""
    window = 5
    rng = np.random.default_rng(seed)
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    scheduler = SchedulerSpec("bounded_delay", window)
    protocol = ProtocolSpec("deterministic_rule", rule="unit_x")
    failures = 0
    for _ in range(traces):
        scenario = _scenario(square, scheduler, protocol, int(rng.integers(0, 2**63)), 1000, "none")
        failures += not audit_fairness(run(scenario), window).passed
    trace = run(next(_closure_scenarios(1, seed)))
    starved = replace(
        trace,
        records=tuple(
            replace(r, active=tuple(i for i in r.active if i != 2) or (0,)) for r in trace.records
        ),
    )
    verdict = audit_fairness(starved, window=50)
    rejected = verdict.status == "fail" and verdict.culprit == 2
    audited = f"{traces} seeded traces x 1000 instants audited with window {window}"
    gap = f"status={verdict.status} culprit={verdict.culprit} worst_gap={verdict.worst_gap}"
    return [
        Check("fairness bounded_delay", failures == 0, audited),
        Check("fairness rejects starvation", rejected, gap),
    ]
