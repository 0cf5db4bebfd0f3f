"""Property checkers and estimators.

These confront the dispersion rules with simulation: exact closure checks
on traces, separation-rate and survival-decay estimates for a tracked
co-located pair, the coin-free co-location demonstration, and gathering
campaign summaries. Probability-one claims are reported as "no observed
failure within budget", never as proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import RecordingSource, Scenario, Trace, _advance, run, trial_sources
from .errors import NotDeterministicError, ScenarioValidationError
from .geometry import Point
from .protocols import Protocol, ProtocolSpec
from .scheduler import SchedulerSpec
from .world import Capabilities, Robot, all_distinct, multiplicity_points

# Per-active-instant probability that a co-located pair stays together is
# at most 3/4: 1/2 covers the lone-active-robot-stays case and 1/4 the
# both-active cases, and these are mutually exclusive.
PAIR_PERSISTENCE_BOUND = 0.75


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
        elif multiplicity_points(config):
            return ClosureVerdict(False, first_distinct, t)
    return ClosureVerdict(True, first_distinct, None)


@dataclass
class PairEventTally:
    """Disjoint per-instant outcomes for a tracked co-located pair.

    Counted only while the pair shares a position; each instant lands in
    exactly one bucket. ``both_active_move_together`` requires bit-equal
    landing points and is expected to stay at zero under continuous
    sampling.
    """

    both_inactive: int = 0
    one_active_stay: int = 0
    one_active_move: int = 0
    both_active_none_move: int = 0
    both_active_one_move: int = 0
    both_active_move_apart: int = 0
    both_active_move_together: int = 0

    @property
    def instants(self) -> int:
        return (
            self.both_inactive
            + self.one_active_stay
            + self.one_active_move
            + self.both_active_none_move
            + self.both_active_one_move
            + self.both_active_move_apart
            + self.both_active_move_together
        )

    @property
    def active_instants(self) -> int:
        return self.instants - self.both_inactive

    @property
    def separations(self) -> int:
        return self.one_active_move + self.both_active_one_move + self.both_active_move_apart

    @property
    def both_move_rate(self) -> float:
        if self.instants == 0:
            return 0.0
        return (self.both_active_move_apart + self.both_active_move_together) / self.instants


@dataclass
class ConvergenceStats:
    """Per-trial counters for a tracked pair, from co-location to the first
    all-distinct instant: total instants k, instants with at least one of
    the pair active (a), and instants with both inactive (na); a + na = k."""

    steps_to_all_distinct: list[int] = field(default_factory=list)
    active_pair_instants: list[int] = field(default_factory=list)
    inactive_pair_instants: list[int] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.steps_to_all_distinct)


@dataclass(frozen=True)
class PairCampaign:
    tally: PairEventTally
    stats: ConvergenceStats
    # survival_counts[a] = number of trials still co-located after a active instants
    survival_counts: tuple[int, ...]
    trials: int


def _pair_campaign(
    scheduler: SchedulerSpec,
    trials: int,
    seed: int,
    bystanders: int = 0,
    max_a: int = 15,
    max_instants: int = 10_000,
) -> PairCampaign:
    """Run `trials` independent two-robot scatter experiments from a shared
    position and classify every instant until the pair separates.

    ``bystanders`` adds distant extra robots so the scheduler can leave the
    tracked pair entirely inactive (impossible for n = 2, where activation
    sets are non-empty subsets of the pair itself).

    Trial ``t`` draws from the stream ``np.random.default_rng([seed, t])``
    starts, bit for bit. :func:`engine.trial_sources` sets each trial's
    state on one reused generator and source, batch-seeded, because a
    trial lasts only an instant or two and a fresh generator and
    :class:`RecordingSource` per trial cost about as much as the trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = 2 + bystanders
    robots = tuple(Robot(i, 1.0) for i in range(n))
    start = (Point(0.0, 0.0), Point(0.0, 0.0)) + tuple(
        Point(50.0 + 10.0 * i, 50.0) for i in range(bystanders)
    )
    caps = Capabilities()
    protocol = ProtocolSpec("scatter").build()
    tally = PairEventTally()
    stats = ConvergenceStats()
    survival = [0] * (max_a + 1)
    for g, src in trial_sources(seed, trials):
        sched = scheduler.build()
        config = start
        a = 0
        na = 0
        k = 0
        while k < max_instants:
            activation = sched.next_activation(n, g)
            before0, before1 = config[0], config[1]
            config, _, active, _, _ = _advance(config, activation, robots, protocol, caps, src)
            k += 1
            pair_active = (0 in activation) + (1 in activation)
            moved0 = config[0] != before0
            moved1 = config[1] != before1
            moved = moved0 + moved1
            separated = config[0] != config[1]
            if pair_active == 0:
                tally.both_inactive += 1
                na += 1
            else:
                a += 1
                if pair_active == 1:
                    if moved == 0:
                        tally.one_active_stay += 1
                    else:
                        tally.one_active_move += 1
                else:
                    if moved == 0:
                        tally.both_active_none_move += 1
                    elif moved == 1:
                        tally.both_active_one_move += 1
                    elif separated:
                        tally.both_active_move_apart += 1
                    else:
                        tally.both_active_move_together += 1
            if separated:
                break
        else:
            raise RuntimeError("pair did not separate within the instant budget")
        stats.steps_to_all_distinct.append(k)
        stats.active_pair_instants.append(a)
        stats.inactive_pair_instants.append(na)
        for i in range(min(a - 1, max_a) + 1):
            survival[i] += 1
    return PairCampaign(tally=tally, stats=stats, survival_counts=tuple(survival), trials=trials)


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
    tally: PairEventTally
    stats: ConvergenceStats

    @property
    def persistence(self) -> float:
        return 1.0 - self.rate


def estimate_pair_separation(
    scheduler: SchedulerSpec,
    trials: int,
    seed: int = 0,
    bystanders: int = 0,
    max_instants: int = 10_000,
) -> SeparationEstimate:
    """Empirical probability that a co-located scatter pair separates at an
    instant, conditioned on at least one of the two being activated."""
    campaign = _pair_campaign(
        scheduler, trials, seed, bystanders=bystanders, max_instants=max_instants
    )
    tally = campaign.tally
    total = tally.active_instants
    hits = tally.separations
    low, high = wilson_interval(hits, total)
    return SeparationEstimate(
        rate=hits / total if total else 0.0,
        wilson_low=low,
        wilson_high=high,
        separations=hits,
        active_instants=total,
        tally=tally,
        stats=campaign.stats,
    )


@dataclass(frozen=True)
class DecayReport:
    """Observed co-location survival against the (3/4)^a envelope."""

    trials: int
    survival: tuple[float, ...]  # index a: fraction still together after a active instants
    bounds: tuple[float, ...]  # (3/4)^a
    limits: tuple[float, ...]  # bound + 3 binomial standard errors at the bound
    passed: bool


def verify_decay_bound(
    scheduler: SchedulerSpec,
    trials: int,
    seed: int = 0,
    max_a: int = 15,
    bystanders: int = 0,
) -> DecayReport:
    campaign = _pair_campaign(scheduler, trials, seed, bystanders=bystanders, max_a=max_a)
    survival = tuple(c / trials for c in campaign.survival_counts)
    bounds = tuple(PAIR_PERSISTENCE_BOUND**a for a in range(max_a + 1))
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
