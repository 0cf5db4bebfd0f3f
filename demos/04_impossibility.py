# Why a coin is necessary.
#
# Put every robot on one point, give them identical frames, activate all of
# them every instant. Their views are then indistinguishable, so any
# deterministic rule computes the same target for everyone and the swarm
# moves as one blob forever. The harness checks exact co-location at every
# instant and refuses rules that secretly draw randomness.

from scattersim import impossibility_demo
from scattersim.errors import NotDeterministicError
from scattersim.protocols import DETERMINISTIC_RULES, ProtocolSpec

print("coin-free rules, 4 robots from one point, 100 instants each:")
for name in DETERMINISTIC_RULES:
    verdict = impossibility_demo(ProtocolSpec("deterministic_rule", rule=name).build(), steps=100, n=4)
    print(f"  {name:<12} co-located throughout: {verdict.passed}")

print("\nscatter draws coins, so the harness rejects it:")
try:
    impossibility_demo(ProtocolSpec("scatter").build(), steps=10, n=4)
except NotDeterministicError as exc:
    print(f"  rejected: {exc}")
