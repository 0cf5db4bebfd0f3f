"""Command-line front end.

Subcommands: run a scenario file to a trace, verify named property suites,
replay a trace, export a trace as CSV. Every command is deterministic
given its arguments; exit status 0 means all requested checks passed,
1 a check failed, 2 a usage, parse, or validation problem.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import campaigns
from .engine import load_trace, replay, run, write_trace, _f17
from .errors import ScatterSimError
from .scenario_text import load_scenario, scenario_digest
from .world import multiplicity_points

OUT_DIR_ENV = "SCATTERSIM_OUT"

_CSV_POSITIONS_HEADER = "# scattersim csv-positions v1"
_CSV_SUMMARY_HEADER = "# scattersim csv-summary v1"

def _default_out(name: str) -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / name


def _check_writable(path: Path) -> None:
    """Raise the error opening ``path`` for writing would raise when it is
    a directory or its folder is missing, so that ``run`` fails before it
    simulates, and leaves no file behind."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {"seed": args.seed, "max_steps": args.max_steps}
    scenario = replace(scenario, **{k: v for k, v in overrides.items() if v is not None})
    out = Path(args.out) if args.out else _default_out(Path(args.scenario).stem + ".trace")
    _check_writable(out)
    trace = run(scenario)
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
        # Each robot's "x,y" text, rendered when it holds a new Point object
        # (keyed by identity, since 0.0 == -0.0; load_trace gives a pair one object).
        held = [None] * trace.n
        texts = [""] * trace.n
        for rec in trace.records:
            for i, p in enumerate(rec.config):
                if p is not held[i]:
                    held[i] = p
                    texts[i] = f"{_f17(p.x)},{_f17(p.y)}"
                lines.append(f"{rec.t + 1},{i},{texts[i]}")
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
            f"{scenario_digest(trace.scenario)},{trace.scenario.seed},{trace.n},{len(trace.records)},"
            f"{trace.status},{len(multiplicity_points(final))},{activations},{moves}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# Each suite's campaign and the default of the count that ``--trials`` sets;
# a suite whose default is None takes no count.
SUITES = {
    "closure": (campaigns.closure, 1000),
    "separation": (campaigns.separation, 100_000),
    "decay": (campaigns.decay, 100_000),
    "impossibility": (campaigns.impossibility, None),
    "gather": (campaigns.gather, 30_000),
    "fairness": (campaigns.fairness, 100),
    "voronoi-oracle": (campaigns.voronoi_oracle, 10_000),
}


def _integer_at_least(low: int):
    """argparse type for a decimal integer >= ``low``."""

    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def cmd_verify(args) -> int:
    campaign, default = SUITES[args.suite]
    if default is None:
        if args.trials is not None:
            raise ScatterSimError(f"verify {args.suite} takes no --trials")
        checks = campaign(args.seed)
    else:
        checks = campaign(default if args.trials is None else args.trials, args.seed)
    for check in checks:
        print(check.line())
    return 0 if all(check.passed for check in checks) else 1


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
    p_verify.add_argument(
        "--trials", type=_integer_at_least(1), help="trial count (suite-specific default)"
    )
    p_verify.add_argument("--seed", type=_integer_at_least(0), default=2024)
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
    except (ScatterSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
