import json
import sys
from pathlib import Path

import pytest

from scattersim import SchedulerSpec, analysis, cli, engine, load_trace
from scattersim.campaigns import min_trials, separation_rate
from scattersim.cli import SUITES, main
from scattersim.errors import ScatterSimError

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


# Each edit of the demo trace under a stop rule, and the instant after the
# shorter record list, where replay reports the divergence. The edited file
# still loads: under ``no_multiplicity`` the run stops after 3 records, so
# 2 records are fewer than max_steps and may end ``stopped``; under
# ``gathered`` it runs its 9 instants, which a ``stopped`` run may take too.
SHORT_OR_RESTATED = {
    "last record removed": ("no_multiplicity", lambda lines: lines.pop(-2), 3),
    "status edited": ("gathered", lambda lines: lines.__setitem__(-1, '{"status": "stopped:gathered"}'), 10),
}


@pytest.mark.parametrize("case", sorted(SHORT_OR_RESTATED))
def test_replay_diverges_on_trace_length_or_status(case, scenario_file, tmp_path, capsys):
    rule, edit, instant = SHORT_OR_RESTATED[case]
    scenario_file.write_text(
        SCATTER_SCN.replace("stop_rule = none", f"stop_rule = {rule}").replace(
            "multiplicity_detection = off", "multiplicity_detection = on"
        )
    )
    out = tmp_path / "demo.trace"
    main(["run", str(scenario_file), "--out", str(out)])
    lines = out.read_text().splitlines()
    edit(lines)
    out.write_text("\n".join(lines) + "\n")
    message = "trace length or final status differs"
    assert engine.replay(load_trace(out)) == engine.ReplayVerdict(False, instant, message)
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().out == f"divergence at instant {instant}: {message}\n"


def test_run_writes_to_the_output_folder_by_default(scenario_file, tmp_path, monkeypatch, capsys):
    folder = tmp_path / "out"
    folder.mkdir()
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(folder))
    assert main(["run", str(scenario_file)]) == 0
    out = folder / "demo.trace"
    assert capsys.readouterr().out.endswith(f" trace={out}\n")
    assert len(load_trace(out).records) == 9


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
    # 4000 pairs are too few for the +-0.01 gate on the 0.5 round-robin rate.
    assert main(["verify", "separation", "--trials", "4000", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs at least 27069 trials" in captured.err


@pytest.mark.parametrize("suite", ["separation", "gather"])
def test_verify_refuses_one_trial_below_the_minimum_before_running(suite, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr(analysis, "estimate_pair_separation", no_run)
    monkeypatch.setattr(analysis, "gather_stats", no_run)
    assert main(["verify", suite, "--trials", "27068"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs at least 27069 trials" in captured.err


def test_rate_gate_minimums_and_suite_defaults():
    assert min_trials(0.75, 0.01) == 20302
    assert min_trials(0.5, 0.01) == 27069
    # separation gates 0.75 and 0.5, gather 0.5; the other suites gate no rate.
    for suite in ("separation", "gather"):
        assert SUITES[suite][1] >= min_trials(0.5, 0.01)
    with pytest.raises(ScatterSimError, match="at least 20302 trials"):
        separation_rate(SchedulerSpec("full_synchronous"), 0.75, 20301, seed=0)


def test_verify_fairness(capsys):
    assert main(["verify", "fairness"]) == 0
    out = capsys.readouterr().out
    assert "PASS fairness bounded_delay" in out
    assert "PASS fairness rejects starvation" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{tmp}/missing.scn"],
        ["run", "{tmp}"],
        ["replay", "{tmp}"],
        ["run", "{scn}", "--out", "{tmp}"],
        ["export", "{trace}", "--format", "csv-summary", "--out", "{tmp}"],
        ["run", "{bad}"],
        ["replay", "{bad}"],
    ],
    ids=["missing", "run-dir", "replay-dir", "run-out-dir", "export-out-dir", "run-bytes", "replay-bytes"],
)
def test_missing_file_reports_error(tmp_path, scenario_file, capsys, argv):
    trace = tmp_path / "demo.trace"
    assert main(["run", str(scenario_file), "--out", str(trace)]) == 0
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff" + SCATTER_SCN.encode())
    paths = {"tmp": tmp_path, "scn": scenario_file, "trace": trace, "bad": bad}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["directory", "missing-folder"])
def test_run_checks_its_output_before_simulating(tmp_path, scenario_file, capsys, monkeypatch, where):
    def no_simulation(scenario):
        raise AssertionError("run simulated before checking --out")

    monkeypatch.setattr(engine, "run", no_simulation)
    monkeypatch.setattr(cli, "run", no_simulation)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "demo.trace"
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", str(scenario_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert sorted(tmp_path.rglob("*")) == before


def _infinite_window_trace(tmp_path):
    """A trace whose header carries a ``bounded_delay`` window of Infinity,
    its digest recomputed. JSON allows Infinity, so a header can carry a
    window no scenario file could."""
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
    return forged


INFINITE_WINDOW = "error: bounded_delay scheduler needs an integer window >= 1\n"


def test_replay_rejects_an_infinite_window_in_the_header(tmp_path, capsys):
    # replay reports it like any invalid scenario.
    forged = _infinite_window_trace(tmp_path)
    capsys.readouterr()
    assert main(["replay", str(forged)]) == 2
    assert capsys.readouterr() == ("", INFINITE_WINDOW)


def test_export_rejects_an_infinite_window_as_replay_does(tmp_path, capsys):
    # Loading validates the embedded scenario, so export refuses the trace
    # with replay's line; it once printed the summary row and exited 0.
    forged = _infinite_window_trace(tmp_path)
    capsys.readouterr()
    assert main(["export", str(forged), "--format", "csv-summary"]) == 2
    assert capsys.readouterr() == ("", INFINITE_WINDOW)


SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


@pytest.mark.parametrize("name", ["scatter.scn", "gather.scn"])
def test_readme_example_files_run_replay_and_export(name, tmp_path, capsys):
    """The README's example files, as its Command line section runs them."""
    trace = tmp_path / "t.trace"
    assert main(["run", str(SCENARIOS / name), "--out", str(trace), "--max-steps", "50"]) == 0
    status, instants = capsys.readouterr().out.split()[:2]
    assert main(["replay", str(trace)]) == 0
    assert capsys.readouterr().out == "identical\n"
    assert main(["export", str(trace), "--format", "csv-summary"]) == 0
    header, columns, row = capsys.readouterr().out.splitlines()
    assert header == "# scattersim csv-summary v1"
    summary = dict(zip(columns.split(","), row.split(",")))
    assert f"instants={summary['instants']}" == instants and f"status={summary['status']}" == status
    assert 1 <= int(summary["instants"]) <= 50
    assert load_trace(trace).scenario.max_steps == 50


@pytest.mark.parametrize(
    "args, status",
    [(["run", "{scn}", "--out", "{tmp}/demo.trace"], 0), (["run", "{tmp}/missing.scn"], 2)],
    ids=["ok", "missing"],
)
def test_console_main_exits_with_the_status_of_main(monkeypatch, tmp_path, scenario_file, args, status):
    argv = [arg.format(scn=scenario_file, tmp=tmp_path) for arg in args]
    monkeypatch.setattr(sys, "argv", ["scattersim"] + argv)
    with pytest.raises(SystemExit) as done:
        cli.console_main()
    assert done.value.code == status
