"""Golden corpus: committed reference traces, their CSV exports and
``verify`` output.

Each case re-runs a fixed scenario and compares the written trace with the
file in ``tests/golden/`` byte for byte, as it does the file's own trace
loaded and written back; each pinned export runs
``scattersim export`` on a committed trace and compares the CSV file it
writes; each pinned suite re-runs
``scattersim verify`` at a small trial count and compares its stdout,
stderr and exit status. ``separation`` and ``gather`` are pinned at counts
their rate gates refuse, so their pins hold the refusal message. A change
that alters these bytes on purpose regenerates the corpus with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from scattersim import Point, geometry, load_trace, replay, run, world, write_trace
from scattersim.cli import main

from conftest import make_scenario

GOLDEN = Path(__file__).parent / "golden"

STACKED = [(0, 0), (0, 0), (1.5, 0.5), (1.5, 0.5), (-1, 2)]
GRID = [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (1, 1)]  # co-circular unit squares
COLLAPSED = [(0, 0)] * 8
DISTINCT = [(0, 0), (2, 0.5), (-1, 1.5), (0.5, -2)]
# Starts whose cells grow past a few dozen sites, for the numpy path of
# the cell kernel: 20 stacked pairs, 40 robots on one point, and a 6 x 6
# integer grid with four stacked corners.
STACKED_40 = [(0.37 * i - 3.5, 2.9 * ((7 * i) % 11) / 11 - 1.4) for i in range(20)] * 2
COLLAPSED_40 = [(0, 0)] * 40
GRID_40 = [(x, y) for x in range(6) for y in range(6)] + [(0, 0), (5, 0), (0, 5), (5, 5)]
# 60 points spread over a 40 x 40 square (an additive-recurrence point
# set), so a mover has only a few rivals within a few sigma, and none
# within a few tenths; the first 30 as stacked pairs.
SPREAD_60 = [
    (40.0 * (i * 0.6180339887498949 % 1.0) - 20.0, 40.0 * (i * 0.7548776662466927 % 1.0) - 20.0)
    for i in range(1, 61)
]
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
    "scatter-bernoulli-stacked-n40": dict(
        positions=STACKED_40, scheduler=SCHEDULERS["bernoulli"], max_steps=12, seed=123
    ),
    "scatter-full_synchronous-collapsed-n40": dict(positions=COLLAPSED_40, max_steps=12, seed=124),
    "scatter-bounded_delay-grid-n40": dict(
        positions=GRID_40, scheduler=SCHEDULERS["bounded_delay"], max_steps=12, seed=125
    ),
    "scatter-bernoulli-sparse-n60": dict(
        positions=SPREAD_60[:30] * 2, scheduler=SCHEDULERS["bernoulli"], max_steps=30, seed=126
    ),
    "scatter-bernoulli-sparse-short-sigma-n60": dict(
        positions=SPREAD_60, scheduler=SCHEDULERS["bernoulli"], sigma=0.1, max_steps=30, seed=127
    ),
}

# Golden traces whose exports are pinned in every format: one with
# stacked pairs that stay or scatter, one that gathers onto a point.
EXPORTS = ("scatter-bernoulli-stacked", "stabilized_gather-grid")
EXPORT_FORMATS = ("csv-positions", "csv-summary")

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
    kwargs = {"max_steps": 60, **CASES[name]}
    write_trace(run(make_scenario(kwargs.pop("positions"), **kwargs)), path)


def export_case(name, fmt, path):
    status = main(["export", str(GOLDEN / f"{name}.trace"), "--format", fmt, "--out", str(path)])
    assert status == 0


def verify_output(suite):
    """stdout then stderr of ``verify``, so a refusal pins its message."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["verify", suite, *VERIFY[suite]])
    return out.getvalue() + err.getvalue() + f"exit {status}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_bytes(name, tmp_path):
    golden = GOLDEN / f"{name}.trace"
    fresh = tmp_path / golden.name
    write_case(name, fresh)
    assert fresh.read_bytes() == golden.read_bytes()
    loaded = load_trace(golden)
    assert replay(loaded).passed
    write_trace(loaded, fresh)
    assert fresh.read_bytes() == golden.read_bytes()


def test_golden_corpus_covers_both_cell_paths():
    """Some golden scatter trace steps from a configuration with more
    occupied positions than a view hands the draw as a tuple, so its draws
    get an array or a reach list, and some trace never does."""
    widest = [
        max(len(set(c)) for c in list(load_trace(path).configs())[:-1])
        for path in sorted(GOLDEN.glob("scatter-*.trace"))
    ]
    assert min(widest) <= world.SMALL_CELL < max(widest)


def test_golden_corpus_covers_a_configuration_that_stands():
    """Some golden case's run hands one configuration object on from a
    record to the next (no robot changed it), so the golden bytes pin
    ``write_trace``'s reuse of a whole positions text."""
    kept = 0
    for name in sorted(CASES):
        kwargs = {"max_steps": 60, **CASES[name]}
        records = run(make_scenario(kwargs.pop("positions"), **kwargs)).records
        kept += sum(a.config is b.config for a, b in zip(records, records[1:]))
    assert kept > 0


@pytest.mark.parametrize(
    "name, most_rows", [("scatter-bernoulli-sparse-n60", 16), ("scatter-bernoulli-sparse-short-sigma-n60", 0)]
)
def test_sparse_golden_traces_reach_the_grid(name, most_rows, monkeypatch, tmp_path):
    """The sparse traces build most cells from a reach index, so their
    bytes pin the reach-limited route; at sigma 0.1 every such cell keeps
    no row at all."""
    rows = []
    near = geometry.ReachIndex.near

    def counting_near(self, position):
        got = near(self, position)
        rows.append(len(got) - 1)
        return got

    monkeypatch.setattr(geometry.ReachIndex, "near", counting_near)
    write_case(name, tmp_path / "sparse.trace")
    assert len(rows) > 300 and max(rows) <= most_rows


@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
@pytest.mark.parametrize("name", EXPORTS)
def test_golden_export_bytes(name, fmt, tmp_path):
    golden = GOLDEN / f"{name}.{fmt}.csv"
    fresh = tmp_path / golden.name
    export_case(name, fmt, fresh)
    assert fresh.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("suite", sorted(VERIFY))
def test_golden_verify_output(suite):
    expected = (GOLDEN / f"verify-{suite}.txt").read_text(encoding="utf-8")
    assert verify_output(suite) == expected


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        write_case(name, GOLDEN / f"{name}.trace")
    for name in EXPORTS:
        for fmt in EXPORT_FORMATS:
            export_case(name, fmt, GOLDEN / f"{name}.{fmt}.csv")
    for suite in VERIFY:
        (GOLDEN / f"verify-{suite}.txt").write_text(verify_output(suite), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
