# How fast does a co-located pair break apart?
#
# Per instant with at least one of the pair active, the probability the
# pair is still together afterwards is at most 3/4: at most 1/2 for "the
# lone active robot kept its position" plus at most 1/4 for "both were
# active and both moved onto the same spot or both stayed". Measured rates
# depend on the scheduler; the 3/4 envelope holds for all of them.

from scattersim import SchedulerSpec, estimate_pair_separation, verify_decay_bound

TRIALS = 20_000

rates = {}
print(f"{'scheduler':<22}{'separation rate':>16}{'persistence':>13}{'95% interval':>22}")
for spec in (
    SchedulerSpec("full_synchronous"),
    SchedulerSpec("bernoulli", 0.5),
    SchedulerSpec("round_robin"),
    SchedulerSpec("bounded_delay", 4),
):
    est = estimate_pair_separation(spec, trials=TRIALS, seed=7)
    name = spec.kind if spec.param is None else f"{spec.kind}({spec.param})"
    rates[spec.kind] = est.rate
    print(
        f"{name:<22}{est.rate:>16.4f}{est.persistence:>13.4f}"
        f"{'[%.4f, %.4f]' % (est.wilson_low, est.wilson_high):>22}"
    )

print("\nfull activation: each mover draws its own fresh point, so only coins (1, 1),")
print(f"both staying, keep the pair together: 3/4, measured {rates['full_synchronous']:.4f};")
print("singleton activation: the lone mover separates iff its coin is 0,")
print(f"so 1/2, measured {rates['round_robin']:.4f}.")

report = verify_decay_bound(SchedulerSpec("full_synchronous"), trials=TRIALS, seed=9)
print("\nco-location survival vs. the (3/4)^a envelope (full activation):")
print(f"{'a':>3}{'observed':>12}{'envelope':>12}")
for a, (s, b) in enumerate(zip(report.survival, report.bounds)):
    print(f"{a:>3}{s:>12.5f}{b:>12.5f}")
print("envelope respected:", report.passed)
