"""Property checkers and estimators.

These confront the dispersion rules with simulation: exact closure checks
on traces, separation-rate and survival-decay estimates for a tracked
co-located pair, the coin-free co-location demonstration, and gathering
campaign summaries. Probability-one claims are reported as "no observed
failure within budget", never as proofs.

A pair campaign keeps one number per trial, the instants it ran until the
pair separated; the separation rate and the survival curve both follow
from those counts (see :func:`_pair_campaign`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import RecordingSource, Trace, _advance, run, trial_sources
from .errors import NotDeterministicError, ScenarioValidationError
from .geometry import Point
from .protocols import Protocol, ProtocolSpec
from .scheduler import SchedulerSpec
from .world import Capabilities, Robot, all_distinct

# Per-active-instant probability that a co-located pair stays together is
# at most 3/4: 1/2 covers the lone-active-robot-stays case and 1/4 the
# both-active cases, and these are mutually exclusive.
PAIR_PERSISTENCE_BOUND = 0.75
# A stacked pair separates with probability at least 1/4 per instant, so a
# pair still together after this many instants means a broken rule.
PAIR_INSTANT_BUDGET = 10_000
# verify_decay_bound compares survival with (3/4)^a for a = 0..DECAY_MAX_A.
DECAY_MAX_A = 15


@dataclass(frozen=True)
class ClosureVerdict:
    passed: bool
    first_distinct: int | None  # instant index of first all-distinct configuration
    first_violation: int | None  # instant index of a later multiplicity, if any

    def __bool__(self) -> bool:
        return self.passed


def check_closure(trace: Trace) -> ClosureVerdict:
    """Once a configuration is all-distinct, every later one must be too."""
    first_distinct = None
    for t, config in enumerate(trace.configs()):
        if first_distinct is None:
            if all_distinct(config):
                first_distinct = t
        elif not all_distinct(config):
            return ClosureVerdict(False, first_distinct, t)
    return ClosureVerdict(True, first_distinct, None)


@dataclass
class ConvergenceStats:
    """Per-trial instants of a stacked pair, from co-location up to and
    including the instant it separated."""

    steps_to_all_distinct: list[int]


def _pair_campaign(scheduler: SchedulerSpec, trials: int, seed: int) -> list[int]:
    """Run `trials` independent two-robot scatter experiments from a shared
    position; return the instants each ran until the pair separated.

    These counts hold everything the separation and decay estimates need.
    With two robots every activation set is a non-empty subset of the pair,
    so every instant has at least one of the pair active. A trial stops at
    the one instant that separates the pair, so it adds one separation and
    k active instants, and the pair is still together after a active
    instants exactly when k > a.

    Trial ``t`` draws from the stream ``np.random.default_rng([seed, t])``
    starts, bit for bit. :func:`engine.trial_sources` sets each trial's
    state on one reused generator and source, batch-seeded, because a
    trial lasts only an instant or two and a fresh generator and
    :class:`RecordingSource` per trial cost about as much as the trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    robots = (Robot(0, 1.0), Robot(1, 1.0))
    start = (Point(0.0, 0.0), Point(0.0, 0.0))
    caps = Capabilities()
    protocol = ProtocolSpec("scatter").build()
    steps: list[int] = []
    for g, src in trial_sources(seed, trials):
        sched = scheduler.build()
        config = start
        for k in range(1, PAIR_INSTANT_BUDGET + 1):
            activation = sched.next_activation(2, g)
            config = _advance(config, activation, robots, protocol, caps, src)[0]
            if config[0] != config[1]:
                steps.append(k)
                break
        else:
            raise RuntimeError("pair did not separate within the instant budget")
    return steps


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95 percent score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    ph = successes / total
    denom = 1.0 + z * z / total
    centre = (ph + z * z / (2 * total)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / total + z * z / (4.0 * total * total)) / denom
    return centre - half, centre + half


@dataclass(frozen=True)
class SeparationEstimate:
    rate: float  # separations per instant with >= 1 of the pair active
    wilson_low: float
    wilson_high: float
    separations: int
    active_instants: int
    stats: ConvergenceStats

    @property
    def persistence(self) -> float:
        return 1.0 - self.rate


def estimate_pair_separation(
    scheduler: SchedulerSpec, trials: int, seed: int = 0
) -> SeparationEstimate:
    """Empirical probability that a co-located scatter pair separates at an
    instant, conditioned on at least one of the two being activated: one
    separation per trial over all the instants the trials ran."""
    steps = _pair_campaign(scheduler, trials, seed)
    total = sum(steps)
    low, high = wilson_interval(trials, total)
    return SeparationEstimate(
        rate=trials / total,
        wilson_low=low,
        wilson_high=high,
        separations=trials,
        active_instants=total,
        stats=ConvergenceStats(steps),
    )


@dataclass(frozen=True)
class DecayReport:
    """Observed co-location survival against the (3/4)^a envelope."""

    trials: int
    survival: tuple[float, ...]  # index a: fraction still together after a active instants
    bounds: tuple[float, ...]  # (3/4)^a
    limits: tuple[float, ...]  # bound + 3 binomial standard errors at the bound
    passed: bool


def verify_decay_bound(scheduler: SchedulerSpec, trials: int, seed: int = 0) -> DecayReport:
    """Share of trials still co-located after a active instants, for a in
    0..DECAY_MAX_A, each within three standard errors of (3/4)^a."""
    steps = _pair_campaign(scheduler, trials, seed)
    survival = tuple(sum(k > a for k in steps) / trials for a in range(DECAY_MAX_A + 1))
    bounds = tuple(PAIR_PERSISTENCE_BOUND**a for a in range(DECAY_MAX_A + 1))
    limits = tuple(
        b + 3.0 * math.sqrt(b * (1.0 - b) / trials) for b in bounds
    )
    passed = all(s <= lim for s, lim in zip(survival, limits))
    return DecayReport(trials=trials, survival=survival, bounds=bounds, limits=limits, passed=passed)


@dataclass(frozen=True)
class ImpossibilityVerdict:
    passed: bool  # True when the swarm stayed exactly co-located throughout
    instants: int
    first_divergence: int | None


def impossibility_demo(
    protocol: Protocol, steps: int, n: int = 3, seed: int = 0
) -> ImpossibilityVerdict:
    """Run ``n`` co-located robots with identical frames, all activated each
    instant, under a rule that must draw no randomness. Co-located views are
    identical, so any coin-free rule yields identical targets and the swarm
    can never break apart; this harness checks that exactly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if n < 2:
        raise ScenarioValidationError("robots: the demonstration needs n >= 2")
    robots = tuple(Robot(i, 1.0) for i in range(n))
    caps = Capabilities()
    # One Point object per robot: the engine reuses a coin-free decision
    # only among robots on one object, so every robot's rule runs at least
    # in the first instant and the check is not true by construction.
    config = tuple(Point(0.0, 0.0) for _ in range(n))
    g = np.random.default_rng(seed)
    src = RecordingSource(g)
    activation = frozenset(range(n))
    for t in range(steps):
        config, _, _, _, _ = _advance(config, activation, robots, protocol, caps, src)
        if src.total_draws > 0:
            raise NotDeterministicError(
                "rule drew randomness; the demonstration only accepts coin-free rules"
            )
        first = config[0]
        if any(p != first for p in config):
            return ImpossibilityVerdict(False, t + 1, t + 1)
    return ImpossibilityVerdict(True, steps, None)


@dataclass(frozen=True)
class GatherSummary:
    trials: int
    gathered: int
    steps: tuple[int, ...]  # instants to gathering, per gathered trial
    instants: int  # instants run over all trials, gathered or not

    @property
    def fraction(self) -> float:
        return self.gathered / self.trials if self.trials else 0.0

    @property
    def mean_steps(self) -> float:
        return float(np.mean(self.steps)) if self.steps else math.nan

    @property
    def max_steps(self) -> int:
        return max(self.steps) if self.steps else 0


def gather_stats(scenarios) -> GatherSummary:
    """Run each gathering scenario and summarize time to success."""
    trials = 0
    gathered = 0
    instants = 0
    steps: list[int] = []
    for scenario in scenarios:
        trials += 1
        trace = run(scenario)
        instants += len(trace.records)
        if trace.status == "stopped:gathered":
            gathered += 1
            steps.append(len(trace.records))
    return GatherSummary(trials=trials, gathered=gathered, steps=tuple(steps), instants=instants)
