"""Record every workload's fingerprint for the recorded seeds (0..99).

    python3 perfbench/record_fingerprints.py

Runs the first ``fp_units`` units of every workload for each seed in
``run.RECORDED_SEEDS`` on the code in ``src/`` and rewrites
``perfbench/fingerprints.json``. A run fails when its fingerprint differs
from the table (a seed outside the table is checked against a recorded
one). A change that only makes the simulator faster must leave the table
as it is; a change that alters simulated results on purpose re-records it
and says why.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    table = {}
    for name in run.WORKLOADS:
        table[name] = {}
        for seed in run.RECORDED_SEEDS:
            fingerprint = run.fingerprint_of(name, seed)
            if fingerprint is None:
                raise SystemExit(f"{name} seed {seed}: a fingerprint unit failed its output check")
            table[name][str(seed)] = fingerprint
        print(f"{name}: seeds {run.RECORDED_SEEDS.start}..{run.RECORDED_SEEDS.stop - 1} recorded", flush=True)
    run.FINGERPRINTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
