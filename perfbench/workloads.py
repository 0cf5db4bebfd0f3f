"""The benchmark's workloads.

Each workload generates its inputs from the seed, hands them to scattersim
only through the public API, and checks every output. Unit ``i`` always
gets the same inputs for a given seed, so the first ``fp_units`` units
yield a fingerprint that depends on the seed and the simulator alone,
never on how long the run lasted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import traceback
from time import perf_counter

import numpy as np


def _config_bytes(config) -> bytes:
    return np.asarray(config, dtype=np.float64).tobytes()


class Workload:
    name = "?"
    # Units every run makes, whatever --seconds says: the fingerprint and
    # the pooled output checks need them.
    min_units = 1
    # Units whose outputs make the fingerprint.
    fp_units = 1
    # Consecutive units that form one cycle of the workload's rotation; a
    # timed phase ends on a whole cycle so every run does the same mix.
    cycle = 1
    # Units per second of --seconds in the traced run, sized so that its
    # untraced and traced passes together take about --seconds.
    traced_units_per_s = 1.0

    def __init__(self, ss, seed: int, out_dir):
        self.ss = ss
        self.seed = seed
        self.out_dir = out_dir
        self._fp = hashlib.sha256()

    def call(self, i: int):
        """Prepare unit ``i`` and return the zero-argument call to time."""
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[int, bool]:
        """Check unit ``i``'s output; return (instants simulated, passed)."""
        raise NotImplementedError

    def finish(self) -> set[int]:
        """Units that fail a check pooled over the whole run."""
        return set()

    def fingerprint(self) -> str:
        return self._fp.hexdigest()

    def attempt(self, i: int) -> tuple[bool, float, int]:
        """Run and check unit ``i``; return (passed, seconds, instants).

        Only the call is timed. An exception counts as a failed unit.
        """
        call = self.call(i)
        start = perf_counter()
        try:
            result = call()
            elapsed = perf_counter() - start
            instants, ok = self.check(i, result)
        except Exception:
            elapsed = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return False, elapsed, 0
        return ok, elapsed, instants


class ClosureN5(Workload):
    """The ``verify closure`` campaign shape: two stacked pairs and a
    singleton, 200 instants. A unit is one ``run`` + ``check_closure``
    under each of the four schedulers, so every unit does the same mix and
    its median is not the boundary between two schedulers' run times."""

    name = "closure-n5"
    min_units = 2
    fp_units = 2
    traced_units_per_s = 1.0
    STEPS = 200

    def __init__(self, ss, seed, out_dir):
        super().__init__(ss, seed, out_dir)
        self.schedulers = (
            ss.SchedulerSpec("full_synchronous"),
            ss.SchedulerSpec("bernoulli", 0.5),
            ss.SchedulerSpec("round_robin"),
            ss.SchedulerSpec("bounded_delay", 4),
        )
        self.robots = tuple(ss.Robot(j, 1.0) for j in range(5))

    def scenario(self, i, scheduler):
        ss = self.ss
        rng = np.random.default_rng([self.seed, i])
        pts = rng.uniform(-3.0, 3.0, size=(3, 2))
        positions = [tuple(pts[0])] * 2 + [tuple(pts[1])] * 2 + [tuple(pts[2])]
        return ss.Scenario(
            robots=self.robots,
            initial=ss.as_configuration(positions),
            caps=ss.Capabilities(),
            scheduler=scheduler,
            protocol=ss.ProtocolSpec("scatter"),
            seed=int(rng.integers(0, 2**63)),
            max_steps=self.STEPS,
            stop_rule="none",
        )

    def call(self, i):
        ss = self.ss
        k = len(self.schedulers)
        scenarios = [self.scenario(k * i + j, sched) for j, sched in enumerate(self.schedulers)]

        def unit():
            results = []
            for scenario in scenarios:
                trace = ss.run(scenario)
                results.append((trace, ss.check_closure(trace)))
            return results

        return unit

    def check(self, i, results):
        ok = True
        for trace, verdict in results:
            if i < self.fp_units:
                final = trace.records[-1].config if trace.records else trace.initial
                self._fp.update(_config_bytes(final))
            ok = ok and bool(verdict.passed) and len(trace.records) == self.STEPS
        return sum(len(trace.records) for trace, _ in results), ok


class ScatterN200(Workload):
    """One scatter run, n = 200 from 100 stacked pairs, driven one instant
    at a time through ``step``."""

    name = "scatter-n200"
    min_units = 4
    fp_units = 4
    traced_units_per_s = 0.45
    PAIRS = 100

    def __init__(self, ss, seed, out_dir):
        super().__init__(ss, seed, out_dir)
        sites = np.random.default_rng([seed, 0]).uniform(-10.0, 10.0, size=(self.PAIRS, 2))
        self.config = ss.as_configuration([tuple(p) for p in sites for _ in range(2)])
        self.robots = tuple(ss.Robot(j, 1.0) for j in range(len(self.config)))
        self.caps = ss.Capabilities()
        self.protocol = ss.ProtocolSpec("scatter").build()
        self.scheduler = ss.SchedulerSpec("bernoulli", 0.5).build()
        # One generator for the scheduler and the robots, drawn in the
        # order ``run`` uses, so the instants match a ``run`` of the same
        # scenario.
        self.rng = np.random.default_rng([seed, 1])
        self.was_distinct = ss.all_distinct(self.config)

    def _instant(self):
        active = self.scheduler.next_activation(len(self.robots), self.rng)
        self.config, outcome = self.ss.step(
            self.config, active, self.robots, self.protocol, self.caps, self.rng
        )
        return outcome

    def call(self, i):
        return self._instant

    def check(self, i, outcome):
        distinct = self.ss.all_distinct(self.config)
        ok = distinct or not self.was_distinct
        self.was_distinct = self.was_distinct or distinct
        if i < self.fp_units:
            self._fp.update(_config_bytes(self.config))
        return 1, ok


class PairSeparation(Workload):
    """The ``verify separation`` shape: fixed-size batches of co-located
    pair trials, alternating the two schedulers with exact target rates."""

    name = "pair-separation"
    BATCH = 1000
    # 40 batches give each scheduler 20 000 trials, enough for the shipped
    # 0.01 tolerance to sit about four standard errors from the target.
    min_units = 40
    fp_units = 4
    cycle = 2
    traced_units_per_s = 3.5
    TOLERANCE = 0.01

    def __init__(self, ss, seed, out_dir):
        super().__init__(ss, seed, out_dir)
        self.targets = (
            (ss.SchedulerSpec("full_synchronous"), 0.75),
            (ss.SchedulerSpec("round_robin"), 0.50),
        )
        self.pooled = [[0, 0, []] for _ in self.targets]  # separations, active instants, units

    def call(self, i):
        spec = self.targets[i % 2][0]
        batch_seed = int(np.random.default_rng([self.seed, i]).integers(0, 2**63))
        return lambda: self.ss.estimate_pair_separation(spec, self.BATCH, batch_seed)

    def check(self, i, est):
        pool = self.pooled[i % 2]
        pool[0] += est.separations
        pool[1] += est.active_instants
        pool[2].append(i)
        steps = est.stats.steps_to_all_distinct
        if i < self.fp_units:
            self._fp.update(f"{est.separations},{est.active_instants},{steps}".encode())
        return sum(steps), len(steps) == self.BATCH and est.active_instants > 0

    def pooled_rates(self) -> list[float]:
        return [sep / act if act else 0.0 for sep, act, _ in self.pooled]

    def finish(self):
        failed = set()
        for (spec, target), rate, (_, _, units) in zip(self.targets, self.pooled_rates(), self.pooled):
            if abs(rate - target) > self.TOLERANCE:
                print(
                    f"pair-separation: {spec.kind} pooled rate {rate:.4f}, target {target}",
                    file=sys.stderr,
                )
                failed.update(units)
        return failed


class TraceRoundtrip(Workload):
    """The command-line flow on a long trace: a unit is ``run``, then
    ``replay``, then ``export`` of one generated scenario file, so every
    unit does the same mix and its median is not the boundary between two
    commands' times."""

    name = "trace-roundtrip"
    N = 24
    STEPS = 1000
    # Starts within +-4 and sigma 10 (every walk onto the gathering point
    # takes one activation) gather in about 30-45 instants, so nearly all
    # of the 1000 instants come after gathering and the cost of a run
    # hardly depends on the seed.
    SPAN = 4.0
    SIGMA = 10.0
    min_units = 2
    fp_units = 1
    traced_units_per_s = 0.3

    def __init__(self, ss, seed, out_dir):
        super().__init__(ss, seed, out_dir)
        rng = np.random.default_rng([seed, 0])
        pts = [f"{float(x)!r},{float(y)!r}" for x, y in rng.uniform(-self.SPAN, self.SPAN, size=(19, 2))]
        # Corrupted start: a triple and three stacked pairs.
        positions = [pts[0]] * 3 + [p for p in pts[1:4] for _ in range(2)] + pts[4:]
        text = "\n".join(
            [
                "version = 1",
                f"seed = {int(rng.integers(0, 2**63))}",
                f"max_steps = {self.STEPS}",
                "stop_rule = none",
                "[robots]",
                f"count = {len(positions)}",
                f"positions = {' '.join(positions)}",
                f"sigma = {self.SIGMA}",
                "frames = identity",
                "[capabilities]",
                "multiplicity_detection = on",
                "localization_knowledge = on",
                "[scheduler]",
                "kind = bounded_delay",
                "window = 4",
                "[protocol]",
                "kind = stabilized_gather",
                "",
            ]
        )
        self.scenario_path = out_dir / "roundtrip.scn"
        self.trace_path = out_dir / "roundtrip.trace"
        self.csv_path = out_dir / "roundtrip.csv"
        self.scenario_path.write_text(text, encoding="utf-8")
        self.trace_sha = None
        self.commands = (
            ["run", str(self.scenario_path), "--out", str(self.trace_path)],
            ["replay", str(self.trace_path)],
            ["export", str(self.trace_path), "--format", "csv-positions", "--out", str(self.csv_path)],
        )

    def call(self, i):
        main = self.ss.cli.main

        def unit():
            results = []
            for argv in self.commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    results.append((main(argv), out.getvalue()))
            return results

        return unit

    def check(self, i, results):
        (run_code, run_text), (replay_code, replay_text), (export_code, _) = results
        instants = 2 * self.STEPS  # run and replay each simulate every instant
        if run_code or replay_code or export_code:
            return instants, False
        sha = hashlib.sha256(self.trace_path.read_bytes()).hexdigest()
        if self.trace_sha is None:
            self.trace_sha = sha
            self._fp.update(sha.encode())
        with open(self.csv_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 2  # comment line and column header
        ok = (
            f" instants={self.STEPS} " in run_text
            and sha == self.trace_sha
            and replay_text.strip() == "identical"
            and rows == self.STEPS * self.N
        )
        return instants, ok


WORKLOADS = {w.name: w for w in (ClosureN5, ScatterN200, PairSeparation, TraceRoundtrip)}
