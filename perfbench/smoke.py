"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is emitted with its unit and that the
output checks pass. Then checks that a tampered fingerprint and a failed
output check are reported as failures, also for a seed whose fingerprint
is not recorded; that a profile hook left on by the program lowers the
host-normalized throughput; and that the benchmark exits non-zero without
printing a result when the scattersim sources are missing. Exits non-zero
on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from hostspeed import HostSpeed

SEED = 0  # recorded in fingerprints.json
UNRECORDED_SEED = len(run.RECORDED_SEEDS)  # checked against SEED
TINY = ["--seed", str(SEED), "--seconds", "0.2"]


def result_of(workload: str, trace: int, seed: int = SEED) -> dict:
    out = io.StringIO()
    args = ["--workload", workload, "--trace", str(trace), "--seed", str(seed), "--seconds", "0.2"]
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_emitted(res: dict, specs: list[dict], label: str) -> None:
    emitted = {name: m["unit"] for name, m in res["metrics"].items()}
    expected = {s["name"]: s["unit"] for s in specs}
    if emitted != expected:
        raise AssertionError(f"{label}: emitted {emitted}, expected {expected}")
    if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
        raise AssertionError(f"{label}: non-numeric metric value")


def check_workloads(bench: dict) -> None:
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} trace={trace}"
            res = result_of(w["name"], trace)
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                raise AssertionError(f"{label}: {res['attempted']} attempted, {res['failed']} failed")
            check_emitted(res, bench[key], label)
            print(f"ok   {label}", flush=True)


def check_unrecorded_seed() -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        res = result_of("closure-n5", 0, UNRECORDED_SEED)
    if not res["correct"]:
        raise AssertionError(f"seed {UNRECORDED_SEED} failed its check against seed {SEED}")
    if f"no fingerprint recorded for seed {UNRECORDED_SEED}" not in err.getvalue():
        raise AssertionError(f"no warning for unrecorded seed {UNRECORDED_SEED}: {err.getvalue()!r}")
    print("ok   unrecorded seed checked against a recorded one", flush=True)


def check_tampered_fingerprint() -> None:
    table = json.loads(run.FINGERPRINTS.read_text(encoding="utf-8"))
    table["closure-n5"][str(SEED)] = "0" * 64
    recorded = run.FINGERPRINTS
    with tempfile.TemporaryDirectory() as tmp:
        run.FINGERPRINTS = Path(tmp) / "fingerprints.json"
        run.FINGERPRINTS.write_text(json.dumps(table), encoding="utf-8")
        try:
            results = [result_of("closure-n5", 0, seed) for seed in (SEED, UNRECORDED_SEED)]
        finally:
            run.FINGERPRINTS = recorded
    if any(res["correct"] for res in results):
        raise AssertionError("a tampered fingerprint was reported as correct")
    print("ok   tampered fingerprint reported, for a recorded and an unrecorded seed", flush=True)


def check_process_wide_slowdown() -> None:
    """A no-op profile hook that the program leaves on for the whole timed
    phase slows every unit. The host-speed kernel runs without it, so the
    normalized throughput has to drop."""

    def normalized_instants_per_s(hook) -> float:
        wl = run.make_workload("pair-separation", SEED)
        host = HostSpeed()
        sys.setprofile(hook)
        try:
            tally = run.run_timed(wl, 0.5, host)
        finally:
            sys.setprofile(None)
        return sum(tally.unit_instants) / sum(run.normalized_unit_s(tally, host))

    plain = normalized_instants_per_s(None)
    hooked = normalized_instants_per_s(lambda frame, event, arg: None)
    if hooked > 0.8 * plain:
        raise AssertionError(f"a profile hook left throughput at {hooked:.0f}/s of {plain:.0f}/s")
    print(f"ok   profile hook lowers normalized throughput ({hooked:.0f}/s of {plain:.0f}/s)", flush=True)


def check_failed_output() -> None:
    import scattersim

    real = scattersim.check_closure
    scattersim.check_closure = lambda trace: scattersim.ClosureVerdict(False, 0, 1)
    try:
        res = result_of("closure-n5", 0)
    finally:
        scattersim.check_closure = real
    if res["correct"] or res["failed"] != res["attempted"]:
        raise AssertionError(f"failed closure verdicts were not counted: {res}")
    print("ok   failed output check reported", flush=True)


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "closure-n5", *TINY],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"ran without sources: code {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   refuses to run without the scattersim sources", flush=True)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_workloads(bench)
    check_unrecorded_seed()
    check_tampered_fingerprint()
    check_failed_output()
    check_process_wide_slowdown()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
