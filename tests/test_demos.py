"""Every demo runs to completion and prints the line that shows its point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Demo file -> (landmark line fragment, times it must appear).
LANDMARKS = {
    "01_voronoi_cells.py": ("belongs nowhere", 1),
    "02_scatter_run.py": ("closure held afterwards:    True", 1),
    "03_separation_rates.py": ("envelope respected: True", 1),
    "04_impossibility.py": ("co-located throughout: True", 5),
    "05_self_stabilizing_gathering.py": ("200/200 gathered", 1),
    "06_pattern_formation.py": ("final configuration", 1),
}


def test_every_demo_has_a_landmark():
    assert sorted(LANDMARKS) == sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", sorted(LANDMARKS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    landmark, times = LANDMARKS[demo]
    assert done.stdout.count(landmark) == times, done.stdout
