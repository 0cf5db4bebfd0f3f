# Gathering that survives corrupted starts.
#
# For two robots: each active robot jumps onto the other with probability
# 1/2, so they meet in 2 instants on average under full activation.
#
# For three or more: the composition scatters while two or more positions
# are crowded, then a deterministic rule builds one crowded point and pulls
# the farthest robot in, one mover per instant. It works from any start,
# including robots stacked on top of each other.

from scattersim import (
    Capabilities,
    ProtocolSpec,
    Robot,
    Scenario,
    SchedulerSpec,
    as_configuration,
    gather_stats,
)
from scattersim.campaigns import stabilized_gather

# Two robots, one unit apart, travel bound covering the gap.
pair = gather_stats(
    Scenario(
        robots=(Robot(0, 1.0), Robot(1, 1.0)),
        initial=as_configuration([(0, 0), (1, 0)]),
        caps=Capabilities(),
        scheduler=SchedulerSpec("full_synchronous"),
        protocol=ProtocolSpec("pair_gather"),
        seed=seed,
        max_steps=1000,
        stop_rule="gathered",
    )
    for seed in range(2000)
)
print(f"pair gathering: mean {pair.mean_steps:.2f} instants (expected 2.0)")

# Five robots under bounded delay, from corrupted starts: all on one
# point, stacked pairs, or scattered (the gathering campaign's starts).
print("five robots, corrupted starts:")
for check in stabilized_gather(200, 3, sizes=(5,)):
    print(" ", check.line())
