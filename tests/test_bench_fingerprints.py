"""The benchmark's output contract, checked with the tests: each workload's
fingerprint at seeds 0 and 1 must equal the one ``perfbench/fingerprints.json``
records, so a change to any fingerprinted bit fails here and not only when
the benchmark runs. ``perfbench/run.py`` is imported as it is; only its
output directory is moved to a temporary one."""

import importlib.util
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (0, 1)


def test_fingerprints_match_the_record(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    recorded = json.loads(bench.FINGERPRINTS.read_text(encoding="utf-8"))
    got = {(name, seed): bench.fingerprint_of(name, seed) for name in bench.WORKLOADS for seed in SEEDS}
    want = {(name, seed): recorded[name][str(seed)] for name in bench.WORKLOADS for seed in SEEDS}
    assert got == want
