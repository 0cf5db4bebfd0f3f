"""Command-line front end.

Subcommands: run a scenario file to a trace, verify named property suites,
replay a trace, export a trace as CSV. Every command is deterministic
given its arguments; exit status 0 means all requested checks passed,
1 a check failed, 2 a usage, parse, or validation problem.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .engine import Scenario, load_trace, replay, run, write_trace, _f17
from .errors import ScatterSimError
from .geometry import Point, compute_voronoi, distance
from .protocols import DETERMINISTIC_RULES, ProtocolSpec
from .scheduler import SchedulerSpec, audit_fairness
from .world import Capabilities, Robot, as_configuration, multiplicity_points

OUT_DIR_ENV = "SCATTERSIM_OUT"

_CSV_POSITIONS_HEADER = "# scattersim csv-positions v1"
_CSV_SUMMARY_HEADER = "# scattersim csv-summary v1"

SUITES = (
    "closure",
    "separation",
    "decay",
    "impossibility",
    "gather",
    "fairness",
    "voronoi-oracle",
)


def _default_out(name: str) -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / name


def cmd_run(args) -> int:
    from .scenario_text import load_scenario

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
    if args.max_steps is not None:
        from dataclasses import replace

        scenario = replace(scenario, max_steps=args.max_steps)
    scenario.validate()
    trace = run(scenario)
    out = Path(args.out) if args.out else _default_out(Path(args.scenario).stem + ".trace")
    write_trace(trace, out)
    final = trace.records[-1].config if trace.records else trace.initial
    print(
        f"status={trace.status} instants={len(trace.records)} "
        f"multiplicities={len(multiplicity_points(final))} trace={out}"
    )
    return 0


def cmd_replay(args) -> int:
    trace = load_trace(args.trace)
    verdict = replay(trace)
    if verdict.passed:
        print("identical")
        return 0
    print(f"divergence at instant {verdict.first_divergence}: {verdict.message}")
    return 1


def cmd_export(args) -> int:
    trace = load_trace(args.trace)
    lines: list[str] = []
    if args.format == "csv-positions":
        lines.append(_CSV_POSITIONS_HEADER)
        lines.append("t,robot,x,y")
        for rec in trace.records:
            for i, p in enumerate(rec.config):
                lines.append(f"{rec.t + 1},{i},{_f17(p.x)},{_f17(p.y)}")
    else:  # csv-summary
        lines.append(_CSV_SUMMARY_HEADER)
        lines.append("digest,seed,n,instants,status,final_multiplicities,activations,moves")
        final = trace.records[-1].config if trace.records else trace.initial
        activations = sum(len(r.active) for r in trace.records)
        moves = 0
        prev = trace.initial
        for rec in trace.records:
            moves += sum(1 for a, b in zip(prev, rec.config) if a != b)
            prev = rec.config
        lines.append(
            f"{trace.digest},{trace.scenario.seed},{trace.n},{len(trace.records)},"
            f"{trace.status},{len(multiplicity_points(final))},{activations},{moves}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _suite_voronoi_oracle(trials: int, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    mismatches = 0
    checked = 0
    while checked < trials:
        k = int(rng.integers(2, 11))
        sites = [Point(float(x), float(y)) for x, y in rng.uniform(-10, 10, size=(k, 2))]
        diagram = compute_voronoi(sites)
        queries = rng.uniform(-12, 12, size=(min(200, trials - checked), 2))
        for qx, qy in queries:
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
            if diagram.locate(q) != nearest:
                mismatches += 1
    return _report(
        "voronoi-oracle",
        mismatches == 0,
        f"{checked} queries, {mismatches} mismatches against nearest-site argmin",
    )


def _closure_scenarios(runs: int, seed: int):
    kinds = (
        SchedulerSpec("full_synchronous"),
        SchedulerSpec("bernoulli", 0.5),
        SchedulerSpec("round_robin"),
        SchedulerSpec("bounded_delay", 4),
    )
    rng = np.random.default_rng(seed)
    for i in range(runs):
        pts = rng.uniform(-3, 3, size=(3, 2))
        # Start with two co-located pairs plus one singleton: 5 robots.
        positions = [tuple(pts[0])] * 2 + [tuple(pts[1])] * 2 + [tuple(pts[2])]
        yield Scenario(
            robots=tuple(Robot(j, 1.0) for j in range(5)),
            initial=as_configuration(positions),
            caps=Capabilities(),
            scheduler=kinds[i % len(kinds)],
            protocol=ProtocolSpec("scatter"),
            seed=int(rng.integers(0, 2**63)),
            max_steps=200,
            stop_rule="none",
        )


def _suite_closure(trials: int, seed: int) -> bool:
    violations = 0
    for scenario in _closure_scenarios(trials, seed):
        verdict = analysis.check_closure(run(scenario))
        if not verdict.passed:
            violations += 1
    return _report(
        "closure",
        violations == 0,
        f"{trials} scatter runs x 200 instants, {violations} post-distinct multiplicities",
    )


def _suite_separation(trials: int, seed: int) -> bool:
    ok = True
    full = analysis.estimate_pair_separation(SchedulerSpec("full_synchronous"), trials, seed)
    ok &= _report(
        "separation full_synchronous",
        abs(full.rate - 0.75) <= 0.01,
        f"rate={full.rate:.4f} target=0.75 tol=0.01 "
        f"wilson=[{full.wilson_low:.4f},{full.wilson_high:.4f}]",
    )
    rr = analysis.estimate_pair_separation(SchedulerSpec("round_robin"), trials, seed + 1)
    ok &= _report(
        "separation round_robin",
        abs(rr.rate - 0.5) <= 0.01,
        f"rate={rr.rate:.4f} target=0.50 tol=0.01",
    )
    side = max(trials // 10, 1000)
    for spec in (
        SchedulerSpec("full_synchronous"),
        SchedulerSpec("bernoulli", 0.5),
        SchedulerSpec("round_robin"),
        SchedulerSpec("bounded_delay", 4),
    ):
        est = analysis.estimate_pair_separation(spec, side, seed + 2)
        ok &= _report(
            f"persistence bound {spec.kind}",
            est.persistence <= analysis.PAIR_PERSISTENCE_BOUND + 0.01,
            f"persistence={est.persistence:.4f} bound=0.75 tol=0.01",
        )
    return ok


def _suite_decay(trials: int, seed: int) -> bool:
    report = analysis.verify_decay_bound(SchedulerSpec("full_synchronous"), trials, seed)
    worst = max(
        (s - b for s, b in zip(report.survival, report.limits)),
        default=0.0,
    )
    return _report(
        "decay bound",
        report.passed,
        f"{trials} trials, survival <= 0.75^a + 3se for a in [0,15], "
        f"max excess {worst:.2e}",
    )


def _suite_impossibility(_trials: int, seed: int) -> bool:
    ok = True
    for rule in DETERMINISTIC_RULES:
        protocol = ProtocolSpec("deterministic_rule", rule=rule).build()
        verdict = analysis.impossibility_demo(protocol, steps=100, n=4, seed=seed)
        ok &= _report(
            f"impossibility {rule}",
            verdict.passed,
            f"co-located for {verdict.instants}/100 instants",
        )
    return ok


def _suite_gather(trials: int, seed: int) -> bool:
    ok = True
    # Two robots, randomized gathering: meet rate 1/2 per instant, mean 2.
    meets = 0
    instants = 0
    steps = []
    for trial in range(trials):
        scenario = Scenario(
            robots=(Robot(0, 1.0), Robot(1, 1.0)),
            initial=as_configuration([(0.0, 0.0), (1.0, 0.0)]),
            caps=Capabilities(),
            scheduler=SchedulerSpec("full_synchronous"),
            protocol=ProtocolSpec("pair_gather"),
            seed=int(np.random.default_rng([seed, trial]).integers(0, 2**63)),
            max_steps=10_000,
            stop_rule="gathered",
        )
        trace = run(scenario)
        if trace.status == "stopped:gathered":
            meets += 1
            steps.append(len(trace.records))
        instants += len(trace.records)
    rate = meets / instants if instants else 0.0
    mean = float(np.mean(steps)) if steps else math.nan
    ok &= _report(
        "pair gather meet rate",
        abs(rate - 0.5) <= 0.01,
        f"rate={rate:.4f} target=0.50 tol=0.01",
    )
    ok &= _report(
        "pair gather mean steps",
        abs(mean - 2.0) <= 0.1,
        f"mean={mean:.3f} target=2.0 tol=0.1",
    )
    # Self-stabilizing gathering from corrupted starts, small smoke campaign.
    rng = np.random.default_rng(seed)
    scenarios = []
    for n in (3, 4, 5):
        for _ in range(30):
            pts = rng.uniform(-2, 2, size=(n - 1, 2))
            positions = [tuple(pts[0])] * 2 + [tuple(p) for p in pts[1:]]
            scenarios.append(
                Scenario(
                    robots=tuple(Robot(j, 1.0) for j in range(n)),
                    initial=as_configuration(positions),
                    caps=Capabilities(multiplicity_detection=True, localization_knowledge=True),
                    scheduler=SchedulerSpec("bounded_delay", 4),
                    protocol=ProtocolSpec("stabilized_gather"),
                    seed=int(rng.integers(0, 2**63)),
                    max_steps=10_000,
                    stop_rule="gathered",
                )
            )
    summary = analysis.gather_stats(scenarios)
    ok &= _report(
        "stabilized gather",
        summary.fraction == 1.0,
        f"{summary.gathered}/{summary.trials} gathered, "
        f"mean={summary.mean_steps:.1f} max={summary.max_steps} instants",
    )
    return ok


def _suite_fairness(_trials: int, seed: int) -> bool:
    from .engine import StepRecord, Trace

    ok = True
    window = 5
    worst_fail = None
    rng = np.random.default_rng(seed)
    for _ in range(100):
        scenario = Scenario(
            robots=tuple(Robot(j, 1.0) for j in range(4)),
            initial=as_configuration([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
            caps=Capabilities(),
            scheduler=SchedulerSpec("bounded_delay", window),
            protocol=ProtocolSpec("deterministic_rule", rule="unit_x"),
            seed=int(rng.integers(0, 2**63)),
            max_steps=1000,
            stop_rule="none",
        )
        verdict = audit_fairness(run(scenario), window)
        if not verdict.passed:
            worst_fail = verdict
    ok &= _report(
        "fairness bounded_delay",
        worst_fail is None,
        f"100 seeded traces x 1000 instants audited with window {window}",
    )
    # A synthetic trace that never activates robot 2 must be rejected.
    base = next(iter(_closure_scenarios(1, seed)))
    trace = run(base)
    unfair_records = tuple(
        StepRecord(r.t, tuple(i for i in r.active if i != 2) or (0,), r.coins, r.targets, r.config)
        for r in trace.records
    )
    unfair = Trace(
        scenario=trace.scenario,
        digest=trace.digest,
        initial=trace.initial,
        records=unfair_records,
        status=trace.status,
    )
    verdict = audit_fairness(unfair, window=50)
    ok &= _report(
        "fairness rejects starvation",
        verdict.status == "fail" and verdict.culprit == 2,
        f"status={verdict.status} culprit={verdict.culprit} worst_gap={verdict.worst_gap}",
    )
    return ok


_SUITE_DEFAULT_TRIALS = {
    "closure": 1000,
    "separation": 100_000,
    "decay": 100_000,
    "impossibility": 1,
    "gather": 10_000,
    "fairness": 1,
    "voronoi-oracle": 10_000,
}

_SUITE_FN = {
    "closure": _suite_closure,
    "separation": _suite_separation,
    "decay": _suite_decay,
    "impossibility": _suite_impossibility,
    "gather": _suite_gather,
    "fairness": _suite_fairness,
    "voronoi-oracle": _suite_voronoi_oracle,
}


def cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None else _SUITE_DEFAULT_TRIALS[args.suite]
    ok = _SUITE_FN[args.suite](trials, args.seed)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scattersim",
        description="Simulate and verify randomized robot dispersion protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write its trace")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--out", help="trace output path (default: $SCATTERSIM_OUT or .)")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--max-steps", type=int, dest="max_steps", help="override the step budget")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--trials", type=int, help="trial count (suite-specific default)")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.set_defaults(fn=cmd_verify)

    p_replay = sub.add_parser("replay", help="re-execute a trace and compare")
    p_replay.add_argument("trace", help="path to a trace file")
    p_replay.set_defaults(fn=cmd_replay)

    p_export = sub.add_parser("export", help="export a trace as CSV")
    p_export.add_argument("trace", help="path to a trace file")
    p_export.add_argument("--format", choices=("csv-positions", "csv-summary"), required=True)
    p_export.add_argument("--out", help="output path (default: stdout)")
    p_export.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScatterSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
