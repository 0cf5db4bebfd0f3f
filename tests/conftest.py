import math

import numpy as np
import pytest

from scattersim import (
    Capabilities,
    Point,
    ProtocolSpec,
    RecordingSource,
    Robot,
    Scenario,
    SchedulerSpec,
    as_configuration,
    distance,
)


class ScriptedSource(RecordingSource):
    """Random source with scripted coin outcomes; continuous draws come
    from a real seeded generator so geometry stays honest. Coins are
    recorded as the engine records real ones, so ``step`` takes it as is."""

    def __init__(self, coins, seed=0):
        super().__init__(np.random.default_rng(seed))
        self._script = list(coins)

    def integers(self, low, high):
        if not self._script:
            raise AssertionError("script exhausted: unexpected coin draw")
        self.total_draws += 1
        value = int(self._script.pop(0))
        self._coins.append(value)
        return value


def nearest_site(q, sites):
    """Brute-force argmin-distance oracle."""
    d = [distance(Point(*q), s) for s in sites]
    return min(range(len(sites)), key=d.__getitem__)


def bisector_clearance(q, sites):
    """Distance from q to the nearest bisector between any two sites."""
    d2 = [(q[0] - s.x) ** 2 + (q[1] - s.y) ** 2 for s in sites]
    best = math.inf
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            gap = abs(d2[i] - d2[j]) / (2.0 * distance(sites[i], sites[j]))
            best = min(best, gap)
    return best


def make_scenario(
    positions,
    protocol="scatter",
    scheduler=("full_synchronous", None),
    sigma=1.0,
    seed=1,
    max_steps=100,
    stop_rule="none",
    multiplicity=False,
    localization=False,
    pattern=None,
    rule=None,
    frames=None,
):
    n = len(positions)
    robots = tuple(
        Robot(i, sigma, frames[i]) if frames else Robot(i, sigma) for i in range(n)
    )
    return Scenario(
        robots=robots,
        initial=as_configuration(positions),
        caps=Capabilities(
            multiplicity_detection=multiplicity, localization_knowledge=localization
        ),
        scheduler=SchedulerSpec(*scheduler),
        protocol=ProtocolSpec(protocol, pattern=pattern, rule=rule),
        seed=seed,
        max_steps=max_steps,
        stop_rule=stop_rule,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
