import json

import pytest

from scattersim import load_trace
from scattersim.cli import main

SCATTER_SCN = """\
version = 1
seed = 7
max_steps = 9
stop_rule = none

[robots]
count = 3
positions = 0,0 0,0 1,1
sigma = 1.0
frames = identity

[capabilities]
multiplicity_detection = off
localization_knowledge = off

[scheduler]
kind = full_synchronous

[protocol]
kind = scatter
"""


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "demo.scn"
    p.write_text(SCATTER_SCN)
    return p


def test_run_writes_trace_and_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "demo.trace"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("status=budget_exhausted instants=9 ")
    assert out.exists()
    trace = load_trace(out)
    assert len(trace.records) == 9


def test_run_is_byte_deterministic(scenario_file, tmp_path):
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    assert main(["run", str(scenario_file), "--out", str(a)]) == 0
    assert main(["run", str(scenario_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_override_changes_trace(scenario_file, tmp_path):
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    main(["run", str(scenario_file), "--out", str(a)])
    main(["run", str(scenario_file), "--out", str(b), "--seed", "8"])
    assert a.read_bytes() != b.read_bytes()


def test_run_rejects_zero_sigma(tmp_path, capsys):
    p = tmp_path / "bad.scn"
    p.write_text(SCATTER_SCN.replace("sigma = 1.0", "sigma = 0.0"))
    assert main(["run", str(p)]) == 2
    assert "sigma" in capsys.readouterr().err


def test_run_rejects_two_robot_stabilized_gather(tmp_path, capsys):
    text = (
        SCATTER_SCN.replace("count = 3", "count = 2")
        .replace("positions = 0,0 0,0 1,1", "positions = 0,0 1,0")
        .replace("kind = scatter", "kind = stabilized_gather")
        .replace("multiplicity_detection = off", "multiplicity_detection = on")
        .replace("localization_knowledge = off", "localization_knowledge = on")
    )
    p = tmp_path / "bad.scn"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    assert "n >= 3" in capsys.readouterr().err


def test_replay_identical_and_corrupted(scenario_file, tmp_path, capsys):
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    assert main(["replay", str(out)]) == 0
    assert "identical" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["positions"][0][0] += 1e-9
    lines[3] = json.dumps(rec)
    corrupted = tmp_path / "bad.trace"
    corrupted.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(corrupted)]) == 1
    assert "divergence at instant 3" in capsys.readouterr().out


def test_replay_refuses_tampered_scenario(scenario_file, tmp_path, capsys):
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    header["scenario"]["seed"] = 1234
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    forged = tmp_path / "forged.trace"
    forged.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(forged)]) == 2
    assert "digest" in capsys.readouterr().err


def test_export_positions_counts_rows(scenario_file, tmp_path):
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    csv_path = tmp_path / "pos.csv"
    assert main(["export", str(out), "--format", "csv-positions", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# scattersim csv-positions")
    assert lines[1] == "t,robot,x,y"
    assert len(lines) == 2 + 9 * 3  # 9 instants x 3 robots


def test_export_positions_roundtrip_exact(scenario_file, tmp_path):
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    trace = load_trace(out)
    csv_path = tmp_path / "pos.csv"
    main(["export", str(out), "--format", "csv-positions", "--out", str(csv_path)])
    for line in csv_path.read_text().splitlines()[2:]:
        t, robot, x, y = line.split(",")
        p = trace.records[int(t) - 1].config[int(robot)]
        assert float(x) == p.x and float(y) == p.y


def test_export_empty_trace_header_only(tmp_path):
    text = SCATTER_SCN.replace("positions = 0,0 0,0 1,1", "positions = 0,0 1,0 2,2").replace(
        "stop_rule = none", "stop_rule = no_multiplicity"
    ).replace("multiplicity_detection = off", "multiplicity_detection = on")
    p = tmp_path / "stops.scn"
    p.write_text(text)
    out = tmp_path / "stops.trace"
    main(["run", str(p), "--out", str(out)])
    csv_path = tmp_path / "empty.csv"
    main(["export", str(out), "--format", "csv-positions", "--out", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2  # version line + column header, no data rows


def test_export_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["export", str(out), "--format", "csv-summary"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# scattersim csv-summary")
    fields = lines[2].split(",")
    assert fields[1] == "7"  # seed
    assert fields[3] == "9"  # instants
    assert fields[4] == "budget_exhausted"


def test_export_unknown_format_usage_error(scenario_file, tmp_path):
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(["export", str(out), "--format", "pdf"])
    assert exc.value.code == 2


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["closure", "voronoi-oracle", "separation", "decay"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trials_below_one_usage_error(suite, trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--trials", trials])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_verify_negative_seed_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "voronoi-oracle", "--trials", "5", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected an integer >= 0, got '-1'" in err
    assert "Traceback" not in err


def test_verify_seed_zero_runs(capsys):
    assert main(["verify", "voronoi-oracle", "--trials", "5", "--seed", "0"]) == 0
    assert "PASS voronoi-oracle: 5 queries" in capsys.readouterr().out


def test_verify_impossibility_takes_no_trials(capsys):
    assert main(["verify", "impossibility", "--trials", "3"]) == 2
    assert "takes no --trials" in capsys.readouterr().err


def test_verify_fairness_trials_sets_the_audited_traces(capsys):
    assert main(["verify", "fairness", "--trials", "5"]) == 0
    assert "PASS fairness bounded_delay: 5 seeded traces x 1000" in capsys.readouterr().out


def test_verify_voronoi_oracle(capsys):
    assert main(["verify", "voronoi-oracle", "--trials", "500", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS voronoi-oracle" in out
    assert "0 mismatches" in out


def test_verify_impossibility(capsys):
    assert main(["verify", "impossibility"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS impossibility") == 5


def test_verify_separation_small(capsys):
    assert main(["verify", "separation", "--trials", "4000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS separation full_synchronous" in out
    assert "PASS persistence bound bounded_delay" in out


def test_verify_fairness(capsys):
    assert main(["verify", "fairness"]) == 0
    out = capsys.readouterr().out
    assert "PASS fairness bounded_delay" in out
    assert "PASS fairness rejects starvation" in out


def test_missing_file_reports_error(capsys):
    assert main(["run", "/nonexistent/file.scn"]) == 2
    assert "error" in capsys.readouterr().err


def test_replay_rejects_an_infinite_window_in_the_header(tmp_path, capsys):
    # JSON allows Infinity, so a trace header can carry a window no
    # scenario file could; replay reports it like any invalid scenario.
    from scattersim.engine import scenario_digest, scenario_from_dict

    scn = tmp_path / "bd.scn"
    scn.write_text(SCATTER_SCN.replace("kind = full_synchronous", "kind = bounded_delay\nwindow = 3"))
    out = tmp_path / "bd.trace"
    assert main(["run", str(scn), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    header["scenario"]["scheduler"]["param"] = float("inf")
    header["digest"] = scenario_digest(scenario_from_dict(header["scenario"]))
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    assert "Infinity" in lines[0]
    forged = tmp_path / "inf.trace"
    forged.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(forged)]) == 2
    assert "bounded_delay scheduler needs an integer window >= 1" in capsys.readouterr().err
