"""scattersim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One process, one thread, closed loop: each unit of work starts
when the previous one has returned and been checked.

``--trace 0`` warms up with unit 0, times units for ``--seconds`` and
reports the end-to-end metrics. Set-up time is the median wall time of
several fresh processes that only set up (start Python, import numpy and
scattersim, generate the inputs), each relative to a fresh process that
only imports numpy. The other end-to-end times are normalized to the
host's measured speed (see ``hostspeed.py``). ``--trace 1`` runs a
fixed number of units, derived from ``--seconds``, on an untraced and a
traced copy of the workload, unit by unit, and reports per-layer metrics
and the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details (tail percentile and sample count, fingerprint, pooled
checks, machine and source metadata), also written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
# Seeds whose fingerprints fingerprints.json holds.
RECORDED_SEEDS = range(100)
SETUP_REPEATS = 7
# Set-up time is reported as if starting Python and importing numpy (timed
# in a fresh process right before each set-up process) took this long;
# on a shared 2-core VM that start-up time alone swung by 30% between runs.
STARTUP_NOMINAL_S = 0.2
# The tail is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10
# Seconds of timed work between two host-speed samples.
HOST_SAMPLE_EVERY_S = 0.25


def import_scattersim():
    """Import scattersim from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "scattersim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scattersim sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scattersim
    import scattersim.cli  # noqa: F401  (the trace-roundtrip workload drives it)

    if Path(scattersim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported scattersim from {scattersim.__file__}")
    return scattersim


def make_workload(name: str, seed: int):
    ss = import_scattersim()
    OUT_DIR.mkdir(exist_ok=True)
    return WORKLOADS[name](ss, seed, OUT_DIR)


class Tally:
    """Outcomes of the units of one pass."""

    def __init__(self):
        self.ok: dict[int, bool] = {}
        # Timed units only:
        self.unit_s: list[float] = []
        self.unit_instants: list[int] = []
        self.unit_mid: list[float] = []  # perf_counter at the unit's midpoint

    def record(self, i: int, ok: bool, seconds: float, instants: int, timed: bool) -> None:
        self.ok[i] = ok
        if timed:
            self.unit_s.append(seconds)
            self.unit_instants.append(instants)
            self.unit_mid.append(perf_counter() - seconds / 2)

    def fail(self, units) -> None:
        for i in units:
            self.ok[i] = False

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok.values() if not ok)

    @property
    def instants_per_s(self) -> float:
        return sum(self.unit_instants) / sum(self.unit_s)


def run_timed(wl, seconds: float, host: HostSpeed) -> Tally:
    """Unit 0 untimed, then units until ``seconds`` have passed, at least
    ``wl.min_units`` units ran and the last cycle is whole. The host speed
    is sampled between units, once per HOST_SAMPLE_EVERY_S."""
    tally = Tally()
    tally.record(0, *wl.attempt(0), timed=False)
    start = perf_counter()
    next_sample = start
    i = 1
    while (
        i < max(wl.min_units, 2)
        or (i - 1) % wl.cycle
        or perf_counter() - start < seconds
    ):
        if perf_counter() >= next_sample:
            host.sample()
            next_sample = perf_counter() + HOST_SAMPLE_EVERY_S
        tally.record(i, *wl.attempt(i), timed=True)
        i += 1
    tally.fail(wl.finish())
    return tally


def normalized_unit_s(tally: Tally, host: HostSpeed) -> list[float]:
    """Each timed unit's seconds divided by the host factor around it."""
    return [t / host.factor_at(mid) for t, mid in zip(tally.unit_s, tally.unit_mid)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it, but never below the median; a single
    sample is its own tail."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return xs[k], 100.0 * k / max(n - 1, 1)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh processes that only set up, one at a time,
    each right after a fresh process that only imports numpy."""
    setup = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    setup += ["--seed", str(seed), "--setup-only"]
    startup = [sys.executable, "-c", "import numpy"]
    walls: dict[str, list[float]] = {"setup": [], "startup": []}
    for _ in range(SETUP_REPEATS):
        for name, cmd in (("startup", startup), ("setup", setup)):
            start = perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=120,
            )
            walls[name].append(perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: {name} process failed:\n{proc.stderr}")
    return walls["setup"], walls["startup"]


def fingerprint_of(workload: str, seed: int) -> str | None:
    """Fingerprint of a fresh copy of the workload, or None if one of its
    fingerprint units fails its output check."""
    wl = make_workload(workload, seed)
    if not all(wl.attempt(i)[0] for i in range(wl.fp_units)):
        return None
    return wl.fingerprint()


def check_fingerprint(workload: str, seed: int, value: str) -> dict:
    """Compare the run's fingerprint with the recorded one. A seed outside
    the table is never waved through: a warning goes to stderr and the
    recorded seed ``seed % len(RECORDED_SEEDS)`` is run and checked
    instead, after the measurement."""
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[workload]
    checked = seed
    if str(seed) not in table:
        checked = seed % len(RECORDED_SEEDS)
        print(
            f"perfbench: no fingerprint recorded for seed {seed}; checking seed {checked}",
            file=sys.stderr,
        )
        value = fingerprint_of(workload, checked)
    expected = table.get(str(checked))
    status = "match" if expected is not None and value == expected else "mismatch"
    return {"seed": checked, "value": value, "expected": expected, "status": status}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "scattersim").glob("*.py"))
        ),
    }


def end_to_end(args, wl) -> tuple[dict, dict, int, int]:
    host = HostSpeed()
    tally = run_timed(wl, args.seconds, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_walls, startup_walls = measure_setup(args.workload, args.seed)
    setup_ratio = statistics.median(s / r for s, r in zip(setup_walls, startup_walls))
    unit_s = normalized_unit_s(tally, host)
    tail_s, tail_pct = tail(unit_s)
    metrics = {
        "setup_s": {"value": setup_ratio * STARTUP_NOMINAL_S, "unit": "s"},
        "instants_per_s": {"value": sum(tally.unit_instants) / sum(unit_s), "unit": "1/s"},
        "unit_ms_p50": {"value": statistics.median(unit_s) * 1e3, "unit": "ms"},
        "unit_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    raw_tail_s, _ = tail(tally.unit_s)
    detail = {
        "raw": {
            "setup_s": statistics.median(setup_walls),
            "instants_per_s": tally.instants_per_s,
            "unit_ms_p50": statistics.median(tally.unit_s) * 1e3,
            "unit_ms_tail": raw_tail_s * 1e3,
            "unit_ms": [t * 1e3 for t in tally.unit_s],
        },
        "setup_runs_s": setup_walls,
        "startup_runs_s": startup_walls,
        "host_factor": {"mean": host.factor, "samples": len(host.samples)},
        "unit_ms_tail": {"percentile": tail_pct, "samples": len(unit_s)},
        "timed_instants": sum(tally.unit_instants),
    }
    return metrics, detail, tally.attempted, tally.failed


def per_layer(args, wl) -> tuple[dict, dict, int, int]:
    """Units 0..n-1 (unit 0 untimed) on two copies of the workload, one
    untraced and one traced, alternating unit by unit so that both see
    the same host conditions."""
    import tracing

    units = max(wl.min_units, 2, round(args.seconds * wl.traced_units_per_s))
    traced_wl = make_workload(args.workload, args.seed)
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for i in range(units):
        plain.record(i, *wl.attempt(i), timed=i > 0)
        tracing.install(tracer)
        try:
            outcome = traced_wl.attempt(i)
        finally:
            tracer.uninstall()
        traced.record(i, *outcome, timed=i > 0)
    plain.fail(wl.finish())
    traced.fail(traced_wl.finish())
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    if traced_wl.fingerprint() != wl.fingerprint():
        print("perfbench: tracing changed the workload's outputs", file=sys.stderr)
        traced.fail(range(wl.fp_units))
    metrics = tracing.layer_metrics(tracer)
    metrics["tracing.untraced_instants_per_s"] = {"value": plain.instants_per_s, "unit": "1/s"}
    metrics["tracing.traced_instants_per_s"] = {"value": traced.instants_per_s, "unit": "1/s"}
    metrics["tracing.overhead_frac"] = {
        "value": 1.0 - traced.instants_per_s / plain.instants_per_s,
        "unit": "ratio",
    }
    attempted = plain.attempted + traced.attempted
    return metrics, {"units_per_pass": units}, attempted, plain.failed + traced.failed


def parse_args(argv):
    p = argparse.ArgumentParser(description="scattersim benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = make_workload(args.workload, args.seed)
    if args.setup_only:
        return 0
    metrics, detail, attempted, failed = (per_layer if args.trace else end_to_end)(args, wl)
    fingerprint = check_fingerprint(args.workload, args.seed, wl.fingerprint())
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failed_frac=failed / attempted,
        fingerprint=fingerprint,
        metadata=metadata(),
        metrics=metrics,
    )
    if hasattr(wl, "pooled_rates"):
        detail["pooled_rates"] = wl.pooled_rates()
    detail_line = json.dumps(detail, sort_keys=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        detail_line + "\n", encoding="utf-8"
    )
    print(detail_line)
    result = {
        "correct": failed == 0 and fingerprint["status"] == "match",
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
