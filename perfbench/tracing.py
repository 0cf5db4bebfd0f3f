"""Span tracer for the per-layer run.

The tracer wraps scattersim's entry points from outside the package: it
replaces every binding of a function that a module holds (modules import
functions by name, so ``protocols.own_cell`` and ``geometry.own_cell`` are
separate bindings of one object) and the methods of every class that
defines one. Each wrapped call records a span (name, parent, start, end)
in memory; a span's self time is its duration minus the time its direct
child spans cover. Counters are recorded at the same boundaries.
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, parent, start_ns, end_ns
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, child ns]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``pre(args, kwargs)`` runs before the call and its value is handed
        to ``post(args, kwargs, result, token)``, which updates counters.
        A call made directly inside a span of the same name (a protocol
        delegating ``decide`` to its plug-in) is folded into that span.
        """
        spans, stack = self.spans, self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            token = pre(args, kwargs) if pre else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                spans[idx] = (name, parent, start, end)
                calls[name] += 1
                total_ns[name] += dur
                self_ns[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if post:
                post(args, kwargs, result, token)
            return result

        return traced

    def patch_function(self, package: str, fn, wrapped) -> None:
        """Rebind ``fn`` to ``wrapped`` in every loaded module of ``package``."""
        for mod_name, mod in list(sys.modules.items()):
            if not isinstance(mod, types.ModuleType):
                continue
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def patch_methods(self, base: type, method: str, make) -> None:
        """Wrap ``method`` on ``base`` and every subclass that defines it;
        ``make(original)`` returns the wrapper."""
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if method in vars(cls):
                original = vars(cls)[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, make(original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")

    def seconds(self, name: str, self_time: bool = True) -> float:
        return (self.self_ns if self_time else self.total_ns)[name] / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tr: Tracer) -> None:
    """Wrap the public entry points of each scattersim module so that they
    record into ``tr``; ``tr.uninstall()`` undoes it."""
    from scattersim import analysis, cli, engine, geometry, protocols, scenario_text, scheduler, world

    counts = tr.counts
    fn = functools.partial(tr.patch_function, "scattersim")

    def own_cell_post(args, kwargs, cell, _):
        counts["own_cell.constraints_in"] += len(args[1]) - 1
        counts["own_cell.constraints_kept"] += cell.normals.shape[0]

    fn(geometry.own_cell, tr.wrap("geometry.own_cell", geometry.own_cell, post=own_cell_post))

    def draws(rng) -> int:
        return getattr(rng, "total_draws", 0)

    fn(
        geometry.sample_in_cell,
        tr.wrap(
            "geometry.sample_in_cell",
            geometry.sample_in_cell,
            pre=lambda args, kwargs: draws(args[3]),
            post=lambda args, kwargs, r, before: counts.update(
                {"sample_in_cell.draws": draws(args[3]) - before}
            ),
        ),
    )

    def view_post(args, kwargs, view, _):
        counts["build_view.points"] += len(view.points)

    fn(world.build_view, tr.wrap("world.build_view", world.build_view, post=view_post))

    def activation_post(args, kwargs, active, _):
        counts["next_activation.activated"] += len(active)

    tr.patch_methods(
        scheduler.Scheduler,
        "next_activation",
        lambda m: tr.wrap("scheduler.next_activation", m, post=activation_post),
    )

    def decide_post(args, kwargs, target, _):
        counts["decide.moves"] += target != args[1].self_pos

    tr.patch_methods(
        protocols.Protocol,
        "decide",
        lambda m: tr.wrap("protocols.decide", m, post=decide_post),
    )

    # The per-instant step has no public name of its own; count it (no
    # span) where run, step and the analysis campaigns call it.
    advance = engine._advance

    @functools.wraps(advance)
    def counted_advance(*args, **kwargs):
        result = advance(*args, **kwargs)
        outcome = result[1]
        counts["engine.instants"] += 1
        counts["engine.activations"] += outcome.activated_count
        counts["engine.moves"] += outcome.moved_count
        return result

    fn(advance, counted_advance)
    for name in ("run", "step", "replay"):
        f = getattr(engine, name)
        fn(f, tr.wrap(f"engine.{name}", f))

    def write_post(args, kwargs, _, __):
        counts["write_trace.bytes"] += os.path.getsize(args[1])

    fn(engine.write_trace, tr.wrap("engine.write_trace", engine.write_trace, post=write_post))

    def load_post(args, kwargs, trace, _):
        counts["load_trace.records"] += len(trace.records)

    fn(engine.load_trace, tr.wrap("engine.load_trace", engine.load_trace, post=load_post))
    fn(analysis.check_closure, tr.wrap("analysis.check_closure", analysis.check_closure))

    def separation_post(args, kwargs, est, _):
        counts["analysis.trials"] += len(est.stats.steps_to_all_distinct)
        counts["analysis.instants"] += sum(est.stats.steps_to_all_distinct)

    fn(
        analysis.estimate_pair_separation,
        tr.wrap(
            "analysis.estimate_pair_separation",
            analysis.estimate_pair_separation,
            post=separation_post,
        ),
    )
    fn(
        scenario_text.load_scenario,
        tr.wrap("scenario_text.load_scenario", scenario_text.load_scenario),
    )
    for cmd in ("run", "replay", "export"):
        f = getattr(cli, f"cmd_{cmd}")
        post = None
        if cmd == "export":
            post = lambda args, kwargs, _, __: counts.update(
                {"export.bytes": os.path.getsize(args[0].out)}
            )
        fn(f, tr.wrap(f"cli.{cmd}", f, post=post))


def layer_metrics(tr: Tracer) -> dict[str, dict]:
    """Per-layer figures from one traced run: name -> value and unit."""
    c = tr.counts
    m: dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span in (
        "geometry.own_cell",
        "geometry.sample_in_cell",
        "world.build_view",
        "scheduler.next_activation",
        "protocols.decide",
    ):
        put(f"{span}.calls", tr.calls[span], "count")
        put(f"{span}.self_s", tr.seconds(span), "s")
    put("geometry.own_cell.constraints_in", c["own_cell.constraints_in"], "count")
    put("geometry.own_cell.constraints_kept", c["own_cell.constraints_kept"], "count")
    put(
        "geometry.own_cell.kept_ratio",
        _ratio(c["own_cell.constraints_kept"], c["own_cell.constraints_in"]),
        "ratio",
    )
    put(
        "geometry.sample_in_cell.draws_per_call",
        _ratio(c["sample_in_cell.draws"], tr.calls["geometry.sample_in_cell"]),
        "draws",
    )
    put(
        "world.build_view.points_per_view",
        _ratio(c["build_view.points"], tr.calls["world.build_view"]),
        "points",
    )
    put(
        "scheduler.next_activation.activated_per_instant",
        _ratio(c["next_activation.activated"], tr.calls["scheduler.next_activation"]),
        "robots",
    )
    put("protocols.decide.moves_decided", c["decide.moves"], "count")
    for name in ("instants", "activations", "moves"):
        put(f"engine.{name}", c[f"engine.{name}"], "count")
    put("engine.run.self_s", tr.seconds("engine.run"), "s")
    put("engine.step.self_s", tr.seconds("engine.step"), "s")
    put("engine.write_trace.s", tr.seconds("engine.write_trace", self_time=False), "s")
    put("engine.write_trace.bytes", c["write_trace.bytes"], "bytes")
    put("engine.load_trace.s", tr.seconds("engine.load_trace", self_time=False), "s")
    put("engine.load_trace.records", c["load_trace.records"], "count")
    put("engine.replay.self_s", tr.seconds("engine.replay"), "s")
    put("analysis.estimate_pair_separation.self_s", tr.seconds("analysis.estimate_pair_separation"), "s")
    put("analysis.check_closure.self_s", tr.seconds("analysis.check_closure"), "s")
    put("analysis.trials", c["analysis.trials"], "count")
    put("analysis.instants_per_trial", _ratio(c["analysis.instants"], c["analysis.trials"]), "instants")
    put("scenario_text.load_scenario.s", tr.seconds("scenario_text.load_scenario", self_time=False), "s")
    for cmd in ("run", "replay", "export"):
        put(f"cli.{cmd}.s", tr.seconds(f"cli.{cmd}", self_time=False), "s")
    put("cli.export.bytes", c["export.bytes"], "bytes")
    put("tracing.spans", len(tr.spans), "count")
    return m
