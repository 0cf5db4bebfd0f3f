"""Count the scatter draws of each benchmark workload by the form and size
of the points the draw is handed.

Run from the repository root:

    python tools/kernel_traffic.py SEED [--units N] [--workload NAME]

Each workload of ``perfbench/workloads.py`` runs its first N units for
SEED (by default its own ``min_units``), with the same inputs the
benchmark gives those units. Meanwhile ``protocols.scatter_target``, the
draw that ``scatter_from`` calls, is wrapped from outside the package and
counts each call by the form of its points (``tuple``, ``list`` or
``array``; the form picks the draw's route) and by their number. The
table it prints is what a change to ``world.SMALL_CELL`` shifts between
the routes. The package is imported from ``src/``; nothing is written
under ``perfbench/`` (no bytecode either).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Upper ends of the size bands, in points.
BANDS = (1, 32, 100, 200, 1000)


def band(size: int) -> tuple[int, str]:
    """The size band of ``size`` points: its rank and its label."""
    low = 1
    for rank, high in enumerate(BANDS):
        if size <= high:
            return rank, str(high) if low == high else f"{low}-{high}"
        low = high + 1
    return len(BANDS), f">{BANDS[-1]}"


def form(occupied) -> str:
    return "array" if isinstance(occupied, np.ndarray) else type(occupied).__name__


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import scattersim
    import scattersim.cli  # noqa: F401  (trace-roundtrip drives the CLI)
    from scattersim import protocols
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Count each workload's scatter draws by form and size.")
    parser.add_argument("seed", type=int)
    parser.add_argument("--units", type=int, help="units per workload (default: its min_units)")
    parser.add_argument("--workload", choices=list(WORKLOADS), help="only this workload")
    args = parser.parse_args(argv)

    draws: Counter = Counter()  # (form, band rank, band label) -> draws
    scatter_target = protocols.scatter_target

    def counting(position, occupied, sigma, rng):
        draws[(form(occupied),) + band(len(occupied))] += 1
        return scatter_target(position, occupied, sigma, rng)

    protocols.scatter_target = counting
    print("workload          units  form   points      draws")
    with tempfile.TemporaryDirectory() as out_dir:
        for name in [args.workload] if args.workload else list(WORKLOADS):
            draws.clear()
            workload = WORKLOADS[name](scattersim, args.seed, Path(out_dir))
            units = workload.min_units if args.units is None else args.units
            for i in range(units):
                passed, _, _ = workload.attempt(i)
                if not passed:
                    print(f"{name}: unit {i} failed its check", file=sys.stderr)
                    return 1
            for (kind, _, label), count in sorted(draws.items()):
                print(f"{name:<17} {units:>5}  {kind:<6} {label:<10} {count:>6}")
            print(f"{name:<17} {units:>5}  all    all        {sum(draws.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
