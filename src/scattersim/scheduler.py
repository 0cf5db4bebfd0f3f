"""Activation scheduling.

Every scheduler emits a non-empty subset of robot ordinals per instant and
never looks at robot positions. Fairness on infinite executions cannot be
observed, so the auditor checks the bounded-gap surrogate: every robot
active at least once within every window of consecutive instants.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import ScenarioValidationError

SCHEDULER_KINDS = ("full_synchronous", "bernoulli", "round_robin", "bounded_delay")

# Inclusion probability for the randomized part of bounded_delay.
_BOUNDED_DELAY_P = 0.5


class Scheduler(ABC):
    @abstractmethod
    def next_activation(self, n: int, rng) -> frozenset[int]:
        """The robots active at the next instant: a non-empty subset of
        ``range(n)``."""


class FullSynchronous(Scheduler):
    def next_activation(self, n, rng):
        return frozenset(range(n))


class Bernoulli(Scheduler):
    """Each robot independently with probability p; an empty draw is
    redrawn whole, which keeps inclusion symmetric across robots.

    Robot i is in when the i-th double of ``rng.random(n)`` is below p.
    The doubles are compared in Python: at the small n of most campaigns
    a numpy mask costs more than the comparisons it vectorizes.
    """

    def __init__(self, p: float):
        self.p = p

    def next_activation(self, n, rng):
        p = self.p
        while True:
            chosen = [i for i, u in enumerate(rng.random(n).tolist()) if u < p]
            if chosen:
                return frozenset(chosen)


class RoundRobin(Scheduler):
    """Singletons cycling by ordinal."""

    def __init__(self):
        self._t = 0

    def next_activation(self, n, rng):
        out = frozenset({self._t % n})
        self._t += 1
        return out


class BoundedDelay(Scheduler):
    """Random subsets, with any robot idle for window-1 instants forced in,
    so every window of `window` consecutive instants activates everyone."""

    def __init__(self, window: int):
        self.window = window
        self._idle: list[int] | None = None

    def next_activation(self, n, rng):
        if self._idle is None or len(self._idle) != n:
            self._idle = [0] * n
        forced = {i for i in range(n) if self._idle[i] >= self.window - 1}
        while True:
            draws = rng.random(n).tolist()
            chosen = forced | {i for i, u in enumerate(draws) if u < _BOUNDED_DELAY_P}
            if chosen:
                break
        for i in range(n):
            self._idle[i] = 0 if i in chosen else self._idle[i] + 1
        return frozenset(chosen)


@dataclass(frozen=True)
class SchedulerSpec:
    """Serializable scheduler description; ``build`` yields fresh state."""

    kind: str
    param: float | int | None = None

    def validate(self) -> None:
        if self.kind not in SCHEDULER_KINDS:
            raise ScenarioValidationError(f"unknown scheduler kind {self.kind!r}", "scheduler.kind")
        param = self.param
        # A number, not a bool or a string; NaN fails every comparison below.
        number = isinstance(param, numbers.Real) and not isinstance(param, bool)
        if self.kind == "bernoulli":
            if not (number and 0.0 < param <= 1.0):
                raise ScenarioValidationError(
                    "bernoulli scheduler needs p in (0, 1]", "scheduler.param"
                )
        elif self.kind == "bounded_delay":
            # inf % 1 is NaN, so an infinite window is not an integer.
            if not (number and param >= 1 and param % 1 == 0):
                raise ScenarioValidationError(
                    "bounded_delay scheduler needs an integer window >= 1", "scheduler.param"
                )
        elif self.param is not None:
            raise ScenarioValidationError(
                f"scheduler {self.kind} takes no parameter", "scheduler.param"
            )

    def build(self) -> Scheduler:
        self.validate()
        if self.kind == "full_synchronous":
            return FullSynchronous()
        if self.kind == "bernoulli":
            return Bernoulli(float(self.param))
        if self.kind == "round_robin":
            return RoundRobin()
        return BoundedDelay(int(self.param))


@dataclass(frozen=True)
class FairnessVerdict:
    status: str  # pass | fail | inconclusive
    worst_gap: int
    culprit: int | None
    window: int
    instants: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def audit_fairness(trace, window: int) -> FairnessVerdict:
    """Check that every robot is active within every ``window`` consecutive
    instants of the trace; reports the worst observed inactivity run.

    A window longer than the trace cannot be decided and yields
    ``inconclusive`` along with the gap seen so far.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    records = trace.records
    n = trace.n
    total = len(records)
    last = [-1] * n
    worst = [0] * n
    for t, rec in enumerate(records):
        for i in rec.active:
            gap = t - last[i] - 1
            if gap > worst[i]:
                worst[i] = gap
            last[i] = t
    for i in range(n):
        tail = total - 1 - last[i] if last[i] >= 0 else total
        if tail > worst[i]:
            worst[i] = tail
    worst_gap = max(worst) if worst else 0
    culprit = worst.index(worst_gap) if worst else None
    if window > total:
        return FairnessVerdict("inconclusive", worst_gap, culprit, window, total)
    status = "pass" if worst_gap < window else "fail"
    return FairnessVerdict(status, worst_gap, culprit if status == "fail" else None, window, total)
