# Pattern formation from a start with duplicates.
#
# The wrapper scatters whenever any position is crowded; once positions are
# distinct, the bundled formation rule pairs sorted positions with sorted
# pattern points and walks one robot at a time onto its slot. The run stops
# when the occupied multiset equals the pattern exactly.

import numpy as np

from scattersim import (
    Capabilities,
    Point,
    ProtocolSpec,
    Robot,
    Scenario,
    SchedulerSpec,
    as_configuration,
    run,
)

n = 4
pattern = tuple(Point(float(i), 0.0) for i in range(n))
pts = [tuple(p) for p in np.random.default_rng(11).uniform(-2, 2, (n - 1, 2)).tolist()]
positions = [pts[0]] + pts  # one stacked pair
scenario = Scenario(
    robots=tuple(Robot(i, 1.0) for i in range(n)),
    initial=as_configuration(positions),
    caps=Capabilities(multiplicity_detection=True, localization_knowledge=True),
    scheduler=SchedulerSpec("full_synchronous"),
    protocol=ProtocolSpec("stabilized_pattern", pattern=pattern),
    seed=11,
    max_steps=10_000,
    stop_rule="pattern_reached",
)

trace = run(scenario)
print(f"target pattern: {[tuple(p) for p in pattern]}")
print("start:", [(round(x, 3), round(y, 3)) for x, y in positions])
print(f"{trace.status} after {len(trace.records)} instants")
print("\nfinal configuration:")
for p in sorted(trace.records[-1].config):
    print(f"  {tuple(p)}")
