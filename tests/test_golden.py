"""Golden corpus: committed reference traces and ``verify`` output.

Each case re-runs a fixed scenario and compares the written trace with the
file in ``tests/golden/`` byte for byte; each pinned suite re-runs
``scattersim verify`` at a small trial count and compares its stdout and
exit status. A change that alters these bytes on purpose regenerates the
corpus with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from scattersim import Point, load_trace, replay, run, write_trace
from scattersim.cli import main

from conftest import make_scenario

GOLDEN = Path(__file__).parent / "golden"

STACKED = [(0, 0), (0, 0), (1.5, 0.5), (1.5, 0.5), (-1, 2)]
GRID = [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (1, 1)]  # co-circular unit squares
COLLAPSED = [(0, 0)] * 8
DISTINCT = [(0, 0), (2, 0.5), (-1, 1.5), (0.5, -2)]
LINE4 = tuple(Point(float(i), 0.0) for i in range(4))
SCHEDULERS = {
    "full_synchronous": ("full_synchronous", None),
    "bernoulli": ("bernoulli", 0.5),
    "round_robin": ("round_robin", None),
    "bounded_delay": ("bounded_delay", 4),
}
GATHER = dict(multiplicity=True, localization=True, stop_rule="gathered")

CASES = {
    **{
        f"scatter-{name}-stacked": dict(positions=STACKED, scheduler=spec, seed=101 + i)
        for i, (name, spec) in enumerate(SCHEDULERS.items())
    },
    "scatter-full_synchronous-grid": dict(positions=GRID, seed=105),
    "scatter-bounded_delay-grid": dict(positions=GRID, scheduler=SCHEDULERS["bounded_delay"], seed=106),
    "scatter-full_synchronous-collapsed": dict(positions=COLLAPSED, seed=107),
    "scatter-round_robin-collapsed": dict(positions=COLLAPSED, scheduler=SCHEDULERS["round_robin"], seed=108),
    "scatter-bernoulli-short-sigma": dict(
        positions=STACKED, scheduler=("bernoulli", 0.3), sigma=0.05, seed=109
    ),
    "scatter-stop-no_multiplicity": dict(
        positions=STACKED, multiplicity=True, stop_rule="no_multiplicity", seed=110
    ),
    "scatter-bernoulli-grid-capabilities": dict(
        positions=GRID, scheduler=SCHEDULERS["bernoulli"], multiplicity=True, localization=True, seed=111
    ),
    "pair_gather-full_synchronous": dict(
        positions=[(0, 0), (1, 0)], protocol="pair_gather", sigma=2.0, stop_rule="gathered", seed=112
    ),
    "pair_gather-bernoulli": dict(
        positions=[(0, 0), (3, 0.5)],
        protocol="pair_gather",
        scheduler=SCHEDULERS["bernoulli"],
        stop_rule="gathered",
        seed=113,
    ),
    "stabilized_gather-n3": dict(
        positions=[(0, 0), (0, 0), (1, 1)],
        protocol="stabilized_gather",
        scheduler=SCHEDULERS["bounded_delay"],
        seed=114,
        **GATHER,
    ),
    "stabilized_gather-grid": dict(positions=GRID, protocol="stabilized_gather", seed=115, **GATHER),
    "stabilized_pattern-n4": dict(
        positions=[(0, 0), (0, 0), (1, 1), (1, 1)],
        protocol="stabilized_pattern",
        pattern=LINE4,
        multiplicity=True,
        localization=True,
        stop_rule="pattern_reached",
        seed=116,
    ),
    "stabilized_pattern-bernoulli": dict(
        positions=[(0, 0), (0, 0), (2, 1), (-1, 1)],
        protocol="stabilized_pattern",
        pattern=LINE4,
        scheduler=SCHEDULERS["bernoulli"],
        multiplicity=True,
        localization=True,
        stop_rule="pattern_reached",
        seed=117,
    ),
    "reference_gather-round_robin": dict(
        positions=DISTINCT,
        protocol="reference_gather",
        scheduler=SCHEDULERS["round_robin"],
        seed=118,
        **GATHER,
    ),
    "reference_pattern-full_synchronous": dict(
        positions=[(0.5, 1), (1.5, -1), (-1, 2), (3, 3)],
        protocol="reference_pattern",
        pattern=LINE4,
        multiplicity=True,
        localization=True,
        stop_rule="pattern_reached",
        seed=119,
    ),
    "deterministic_rule-unit_x-bounded_delay": dict(
        positions=DISTINCT,
        protocol="deterministic_rule",
        rule="unit_x",
        scheduler=SCHEDULERS["bounded_delay"],
        seed=120,
    ),
    "deterministic_rule-centroid": dict(
        positions=STACKED, protocol="deterministic_rule", rule="centroid", seed=121
    ),
    "deterministic_rule-default-bernoulli": dict(
        positions=GRID, protocol="deterministic_rule", scheduler=SCHEDULERS["bernoulli"], seed=122
    ),
}

VERIFY = {
    "closure": ["--trials", "20"],
    "separation": ["--trials", "2000"],
    "decay": ["--trials", "2000"],
    "impossibility": [],
    "gather": ["--trials", "200"],
    "fairness": [],
    "voronoi-oracle": ["--trials", "500"],
}


def write_case(name, path):
    kwargs = dict(CASES[name])
    write_trace(run(make_scenario(kwargs.pop("positions"), max_steps=60, **kwargs)), path)


def verify_output(suite):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", suite, *VERIFY[suite]])
    return out.getvalue() + f"exit {status}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_bytes(name, tmp_path):
    golden = GOLDEN / f"{name}.trace"
    fresh = tmp_path / golden.name
    write_case(name, fresh)
    assert fresh.read_bytes() == golden.read_bytes()
    assert replay(load_trace(golden)).passed


@pytest.mark.parametrize("suite", sorted(VERIFY))
def test_golden_verify_output(suite):
    expected = (GOLDEN / f"verify-{suite}.txt").read_text(encoding="utf-8")
    assert verify_output(suite) == expected


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        write_case(name, GOLDEN / f"{name}.trace")
    for suite in VERIFY:
        (GOLDEN / f"verify-{suite}.txt").write_text(verify_output(suite), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
