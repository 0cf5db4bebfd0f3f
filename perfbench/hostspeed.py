"""Host-speed reference for the timed phase of a run.

On a shared 2-core VM (Python 3.11, numpy 2.4) the host's speed changed
by up to 2x over periods from milliseconds to minutes (a fixed kernel
timed back to back alternated between about 3.6 ms and 6.5 ms), so raw
wall times of one run moved by 15-30% between runs of the same seed. A run therefore
also times a fixed kernel that never touches scattersim, spread over the
same period as the work it normalizes, and reports each time as if the
kernel had taken ``NOMINAL_S``: ``raw / factor`` with ``factor = mean
kernel time / NOMINAL_S``, the mean taken over the samples near the
timed work. The factors and all raw figures go to the detail line.

The kernel runs under the interpreter's default process-wide state (no
profile or trace hook, no garbage collection), whatever the program has
set, so that such a setting slows the program's units but not the
reference they are divided by.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
from time import perf_counter

import numpy as np

NOMINAL_S = 0.020

_POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, size=(12, 2))


def _kernel() -> float:
    """Interpreter work (tuples, a dict tally, a sort), small-array numpy
    calls, and float formatting and JSON parsing: the mix that
    scattersim's simulation and trace paths are made of."""
    acc = 0.0
    for i in range(500):
        pts = [(math.sin(i + j), math.cos(i * j)) for j in range(12)]
        tally: dict = {}
        for p in pts:
            tally[p] = tally.get(p, 0) + 1
        acc += sorted(tally)[0][0]
        s = _POINTS[:, 0] * pts[0][0] + _POINTS[:, 1] * pts[0][1]
        acc += float(np.min(s[s > -2.0])) + float(np.hypot(s[0], s[1]))
        line = "[" + ",".join(f"[{x:.17g},{y:.17g}]" for x, y in pts[:4]) + "]"
        acc += json.loads(line)[3][1]
    return acc


class HostSpeed:
    """Kernel timings taken during one phase of a run."""

    # Samples within this many seconds of a unit set its factor.
    WINDOW_S = 2.0

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    def sample(self) -> None:
        """Time the kernel once with any profile or trace hook removed and
        the garbage collector off (the kernel makes no reference cycles, so
        its time does not depend on how many objects the program holds)."""
        profile, trace, collecting = sys.getprofile(), sys.gettrace(), gc.isenabled()
        sys.setprofile(None)
        sys.settrace(None)
        gc.disable()
        try:
            start = perf_counter()
            _kernel()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
            sys.settrace(trace)
            sys.setprofile(profile)
        self.samples.append(((start + end) / 2, end - start))

    @property
    def factor(self) -> float:
        """How much slower than nominal the host ran over the whole phase."""
        return statistics.fmean(s for _, s in self.samples) / NOMINAL_S

    def factor_at(self, t: float) -> float:
        """How much slower than nominal the host ran around time ``t``: the
        samples within WINDOW_S of it, else the nearest one."""
        near = [s for mid, s in self.samples if abs(mid - t) <= self.WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ms: abs(ms[0] - t))[1]]
        return statistics.fmean(near) / NOMINAL_S
