"""Record one benchmark run of every workload in ``BENCH_<PR>.json``.

Run from anywhere:

    python tools/bench_record.py PR [--seed N] [--seconds S]

For each workload that ``BENCHMARK.json`` declares, it runs
``perfbench/run.py --workload NAME --seed N --seconds S --trace 0`` as a
process of its own and reads the result object on its last line. It
writes ``BENCH_<PR>.json`` at the root of the checkout with the commit
(and whether the tree differed from it), the Python and numpy versions,
the line totals that ``tools/code_lines.py`` prints, and per workload its
end-to-end metrics, ``correct``, ``failed`` and the host-speed factor
its metrics were normalized by (see ``perfbench/README.md``). Nothing
under ``perfbench/`` is edited.

It then runs the engine sweep in this process, with the package imported
from ``src/``: ``run`` instants per second of one fixed scatter scenario
per robot count in ``SWEEP_N``, under identity frames and under one
random frame per robot (see :func:`sweep_scenario`), each from a run of
whole instants that lasts at least ``SWEEP_SECONDS``. The rates are not
normalized by the host's speed.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from code_lines import counts

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scattersim as ss  # noqa: E402

SWEEP_N = (2, 5, 50, 200, 1000)
SWEEP_FRAMES = ("identity", "random")
SWEEP_SEED = 9
SWEEP_SECONDS = 2.0


def workload_entry(stdout: str, end_to_end: list[str]) -> dict:
    """The end-to-end metrics, ``correct`` and ``failed`` of the result
    object on the last line of a ``perfbench/run.py --trace 0`` run, and
    the host-speed factor of the detail line before it."""
    detail, result = map(json.loads, stdout.strip().splitlines()[-2:])
    metrics = result["metrics"]
    return {
        "metrics": {name: metrics[name] for name in end_to_end},
        "correct": result["correct"],
        "failed": result["failed"],
        "host_factor": detail["host_factor"]["mean"],
    }


def record(pr: int, seed: int, seconds: float, source: dict, workloads: dict) -> dict:
    """The ``BENCH_<PR>.json`` object; ``source`` holds the commit, the
    versions and the line counts."""
    return {"pr": pr, "seed": seed, "seconds": seconds, **source, "workloads": workloads}


def sweep_scenario(n: int, frames: str, steps: int):
    """The sweep's scenario at ``n`` robots: scatter under Bernoulli 0.5
    for ``steps`` instants, with no stop rule, sigma 1 and no capability.
    Two robots stand on each of ``ceil(n / 2)`` sites drawn uniformly in
    [-10, 10]^2 (the last site holds one when ``n`` is odd); ``frames`` is
    ``"identity"`` or ``"random"``, one drawn frame per robot."""
    rng = np.random.default_rng([SWEEP_SEED, n])
    sites = rng.uniform(-10.0, 10.0, size=((n + 1) // 2, 2))
    robots = tuple(
        ss.Robot(k, 1.0, ss.random_frame(rng) if frames == "random" else ss.IDENTITY_FRAME)
        for k in range(n)
    )
    return ss.Scenario(
        robots=robots,
        initial=ss.as_configuration([sites[k // 2] for k in range(n)]),
        caps=ss.Capabilities(),
        scheduler=ss.SchedulerSpec("bernoulli", 0.5),
        protocol=ss.ProtocolSpec("scatter"),
        seed=SWEEP_SEED,
        max_steps=steps,
        stop_rule="none",
    )


def engine_rate(n: int, frames: str, seconds: float, steps: int = 1) -> dict:
    """``run`` instants per second of :func:`sweep_scenario`: the instants
    double from ``steps`` until one whole run lasts at least ``seconds``,
    and that run gives its instants, its seconds and their rate."""
    while True:
        scenario = sweep_scenario(n, frames, steps)
        start = perf_counter()
        instants = len(ss.run(scenario).records)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return {"instants": instants, "seconds": elapsed, "instants_per_s": instants / elapsed}
        steps *= 2


def engine_sweep(ns=SWEEP_N, seconds: float = SWEEP_SECONDS, steps: int = 1) -> dict:
    """:func:`engine_rate` of every frame kind and robot count, as
    ``{frames: {str(n): rate}}``."""
    return {frames: {str(n): engine_rate(n, frames, seconds, steps) for n in ns} for frames in SWEEP_FRAMES}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def source_facts() -> dict:
    rows = counts()
    dirty = [ln for ln in _git("status", "--porcelain").splitlines() if "BENCH_" not in ln]
    return {
        "commit": _git("rev-parse", "HEAD").strip(),
        "tree_differs_from_commit": bool(dirty),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": {"wc_l": sum(r[1] for r in rows), "code": sum(r[2] for r in rows)},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("pr", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    workloads = {}
    for wl in declared["workloads"]:
        name = wl["name"]
        command = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        workloads[name] = workload_entry(done.stdout, end_to_end)
        print(f"{name}: correct={workloads[name]['correct']} failed={workloads[name]['failed']}")
    out = ROOT / f"BENCH_{args.pr}.json"
    bench = record(args.pr, args.seed, args.seconds, source_facts(), workloads)
    bench["engine_sweep"] = engine_sweep()
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
