"""``tools/bench_record.py`` builds its record from perfbench's result
line; no benchmark process is started here."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402

DETAIL = {"workload": "trace-roundtrip", "host_factor": {"mean": 1.05, "samples": 80}, "metadata": {}}
END_TO_END = ["setup_s", "instants_per_s", "unit_ms_p50", "unit_ms_tail", "peak_rss_mb"]
RESULT = {
    "correct": True,
    "attempted": 80,
    "failed": 0,
    "metrics": {
        "setup_s": {"value": 0.33, "unit": "s"},
        "instants_per_s": {"value": 8876.0, "unit": "1/s"},
        "unit_ms_p50": {"value": 222.0, "unit": "ms"},
        "unit_ms_tail": {"value": 260.5, "unit": "ms"},
        "peak_rss_mb": {"value": 48.1, "unit": "MB"},
    },
}


def test_a_record_holds_each_workloads_end_to_end_metrics_and_verdict():
    stdout = json.dumps(DETAIL) + "\n" + json.dumps(RESULT) + "\n"
    entry = bench_record.workload_entry(stdout, END_TO_END)
    assert entry == {"metrics": RESULT["metrics"], "correct": True, "failed": 0, "host_factor": 1.05}
    source = {"commit": "0" * 40, "python": "3.11.7", "numpy": "2.4.0", "src_lines": {"wc_l": 1, "code": 1}}
    got = bench_record.record(7, 1, 20.0, source, {"trace-roundtrip": entry})
    assert json.loads(json.dumps(got)) == {
        "pr": 7,
        "seed": 1,
        "seconds": 20.0,
        **source,
        "workloads": {"trace-roundtrip": entry},
    }


def test_a_record_keeps_only_the_declared_metrics():
    metrics = {**RESULT["metrics"], "extra": {"value": 1, "unit": "count"}}
    lines = ["perfbench: a warning", json.dumps(DETAIL), json.dumps({**RESULT, "metrics": metrics, "correct": False, "failed": 2})]
    entry = bench_record.workload_entry("\n".join(lines), END_TO_END[:2])
    assert entry == {
        "metrics": {name: RESULT["metrics"][name] for name in END_TO_END[:2]},
        "correct": False,
        "failed": 2,
        "host_factor": 1.05,
    }


def test_an_engine_sweep_holds_a_rate_per_frame_kind_and_robot_count():
    sweep = bench_record.engine_sweep(ns=(2,), seconds=0.0, steps=2)
    assert list(sweep) == ["identity", "random"]
    for cells in sweep.values():
        assert list(cells) == ["2"]
        cell = cells["2"]
        assert sorted(cell) == ["instants", "instants_per_s", "seconds"]
        assert cell["instants"] == 2 and cell["instants_per_s"] == 2 / cell["seconds"]
    json.dumps(sweep, allow_nan=False)


def test_a_sweep_scenario_stacks_pairs_under_the_frames_it_names():
    for frames in bench_record.SWEEP_FRAMES:
        scenario = bench_record.sweep_scenario(5, frames, 3)
        scenario.validate()
        initial = scenario.initial
        assert initial[0] == initial[1] and initial[2] == initial[3] and len(set(initial)) == 3
        assert all(r.frame.is_identity == (frames == "identity") for r in scenario.robots)
        assert (scenario.protocol.kind, scenario.scheduler.kind, scenario.max_steps) == ("scatter", "bernoulli", 3)
