"""Measurement from outside the program: wrappers on public callables.

One :class:`Probes` object owns everything a run measures.  It patches
the public functions and methods of the repro layers with timing
wrappers for the duration of the run and restores them afterwards; the
program under test is never edited.

* Always installed (untraced and traced runs): the latency of every
  ``Dispatcher.dispatch`` call, a callback on every finished simulation
  (for the output checks) and the one-call-per-run hooks that count
  generated GPS fixes and written checkpoints.
* Traced runs only: a span (name, start, end, parent) around every call
  listed in :func:`span_targets`, kept in memory and written as JSONL
  when the run ends.

Phases (setup, train, eval) are accounted exclusively by
:class:`Probes.phase`: wall time, process user/sys CPU, minor page
faults and garbage-collector pauses, with ``gc.collect()`` run at every
boundary so garbage left by one phase is not charged to the next.

Every time is read from the run's :class:`~speed.Speedometer` clocks,
which leave out the reference samples the speedometer takes.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import pathlib
import resource

#: What :meth:`Probes.phase` accounts per phase, in snapshot order.
PHASE_KEYS = ("wall_s", "user_s", "sys_s", "minflt", "gc_s", "gc_collections")


def span_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every traced layer boundary.

    Module-level functions are patched in the module that *calls* them
    (``from x import f`` binds the name there); methods are patched on
    the class that defines them.
    """
    from repro.core import persistence, rl_dispatcher, system, training
    from repro.core.positions import (
        DegradedPositionFeed,
        HistoricalFallbackFeed,
        PopulationFeed,
    )
    from repro.core.predictor import RequestPredictor
    from repro.data import datasets
    from repro.dispatch.nearest import NearestDispatcher
    from repro.dispatch.rescue_ts import RescueTsDispatcher
    from repro.dispatch.schedule import ScheduleDispatcher
    from repro.geo.flood import FloodModel
    from repro.ml.dqn import DQNAgent
    from repro.mobility.generator import MobilityTraceGenerator
    from repro.sim.engine import RescueSimulator
    from repro.sim.kernel import EventKernelSimulator
    from repro.training.health import TrainingSentinel
    from repro.weather.service import WeatherService

    return [
        (datasets, "build_charlotte_scenario", "data.scenario"),
        (datasets, "generate_population", "mobility.population"),
        (MobilityTraceGenerator, "__init__", "mobility.generate"),
        (MobilityTraceGenerator, "generate", "mobility.generate"),
        (training, "clean_trace", "mobility.clean_match"),
        (training, "map_match", "mobility.clean_match"),
        (system, "clean_trace", "mobility.clean_match"),
        (system, "map_match", "mobility.clean_match"),
        (training, "build_training_set", "core.predictor.training_set"),
        (RequestPredictor, "fit", "core.predictor.fit"),
        (RequestPredictor, "predict_request_distribution", "core.predictor.predict"),
        (WeatherService, "factor_vectors", "weather.factor_vectors"),
        (FloodModel, "is_flooded_many", "geo.flood_mask"),
        (PopulationFeed, "__call__", "core.positions.feed"),
        (HistoricalFallbackFeed, "__call__", "core.positions.feed"),
        (DegradedPositionFeed, "__call__", "core.positions.feed"),
        (rl_dispatcher, "build_context", "core.state.context"),
        (training, "pretrain_agent", "ml.dqn.pretrain"),
        (DQNAgent, "act", "ml.dqn.act"),
        (DQNAgent, "learn", "ml.dqn.learn"),
        (TrainingSentinel, "observe", "training.sentinel"),
        (TrainingSentinel, "screen_params", "training.sentinel"),
        (TrainingSentinel, "screen_replay", "training.sentinel"),
        (TrainingSentinel, "screen_rewards", "training.sentinel"),
        (persistence, "checkpoint_from_training", "core.persistence.checkpoint"),
        (persistence, "save_checkpoint", "core.persistence.checkpoint"),
        (persistence, "prune_checkpoints", "core.persistence.checkpoint"),
        (persistence, "find_latest_valid_checkpoint", "core.persistence.checkpoint"),
        (persistence, "load_checkpoint", "core.persistence.checkpoint"),
        (RescueSimulator, "run", "sim.run"),
        (EventKernelSimulator, "run", "sim.run"),
        (rl_dispatcher.MobiRescueDispatcher, "dispatch", "core.rl_dispatcher.dispatch"),
        (RescueTsDispatcher, "dispatch", "dispatch.rescue"),
        (ScheduleDispatcher, "dispatch", "dispatch.schedule"),
        (NearestDispatcher, "dispatch", "dispatch.nearest"),
    ]


def _tree_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Probes:
    """Wrappers, phase accounting and collected measurements of one run."""

    def __init__(self, traced: bool, on_sim, speed) -> None:
        #: The run's :class:`~speed.Speedometer`; every time below is
        #: read from its clocks.
        self.speed = speed
        #: Finished spans ``(name, start, end, parent index)``; ``None``
        #: entries are spans still open.  ``None`` when untraced.
        self.spans: list[tuple[str, float, float, int] | None] | None = (
            [] if traced else None
        )
        self._stack: list[int] = []
        #: CPU seconds of the dispatching thread in each outermost
        #: ``dispatch()`` call, per dispatcher name, the same calls' wall
        #: seconds and their midpoints on the wall clock.  Thread CPU time
        #: leaves out the time the hypervisor steals the vCPU, which
        #: otherwise lands on single calls and moves the tail, and the
        #: spinning of idle OpenBLAS workers after a training step, which
        #: process CPU time charges to the next dispatch.
        self.dispatch_s: dict[str, list[float]] = {}
        self.dispatch_wall_s: dict[str, list[float]] = {}
        self.dispatch_at: dict[str, list[float]] = {}
        self._dispatch_depth = 0
        #: ``on_sim(simulator, result)`` of every finished simulation run,
        #: taken as it finishes so no simulator outlives its run.
        self._on_sim = on_sim
        self.sims: list[object] = []
        self.counts = {
            "mobility.fixes": 0,
            "core.persistence.checkpoints": 0,
            "core.persistence.checkpoint_bytes": 0,
        }
        #: Exclusive per-phase totals, see :meth:`phase`.
        self.phases: dict[str, dict[str, float]] = {}
        #: ``(phase, start, end)`` of every stretch charged to a phase.
        self.segments: list[tuple[str, float, float]] = []
        self._phase_stack: list[str] = []
        self._mark: tuple[float, ...] | None = None
        self._gc_s = 0.0
        self._gc_n = 0
        self._gc_t0 = 0.0
        self._own_collect = False
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from repro.core import persistence
        from repro.mobility.generator import MobilityTraceGenerator
        from repro.sim.engine import RescueSimulator
        from repro.sim.kernel import EventKernelSimulator

        hooks = {
            (MobilityTraceGenerator, "generate"): self._count_fixes,
            (persistence, "save_checkpoint"): self._count_checkpoint,
            (RescueSimulator, "run"): self._capture_sim,
            (EventKernelSimulator, "run"): self._capture_sim,
        }
        targets = span_targets()
        timed = {(owner, attr) for owner, attr, _ in targets if attr == "dispatch"}
        if self.spans is None:
            targets = [(owner, attr, None) for owner, attr in [*hooks, *timed]]
        for owner, attr, name in targets:
            key = (owner, attr)
            self._patch(owner, attr, name, key in timed, hooks.get(key))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _patch(self, owner, attr, name, timed, hook) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, timed, hook))

    def _wrap(self, fn, name, timed, hook):
        probes = self
        clock = self.speed.clock
        cpu_clock = self.speed.cpu_clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            spans = probes.spans if name is not None else None
            if spans is not None:
                sid = len(spans)
                parent = probes._stack[-1] if probes._stack else -1
                spans.append(None)
                probes._stack.append(sid)
            outer = timed and probes._dispatch_depth == 0
            probes._dispatch_depth += timed
            c0 = cpu_clock() if outer else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                probes._dispatch_depth -= timed
                if outer:
                    c1 = cpu_clock()
                    method = args[0].name
                    probes.dispatch_s.setdefault(method, []).append(c1 - c0)
                    probes.dispatch_wall_s.setdefault(method, []).append(t1 - t0)
                    probes.dispatch_at.setdefault(method, []).append(0.5 * (t0 + t1))
                if spans is not None:
                    probes._stack.pop()
                    spans[sid] = (name, t0, t1, parent)
            if hook is not None:
                hook(args, result)
            return result

        return wrapped

    # -- one-call-per-run hooks -------------------------------------------

    def _count_fixes(self, args, bundle) -> None:
        self.counts["mobility.fixes"] += int(len(bundle.trace.t))

    def _count_checkpoint(self, args, path) -> None:
        self.counts["core.persistence.checkpoints"] += 1
        self.counts["core.persistence.checkpoint_bytes"] += _tree_bytes(pathlib.Path(path))

    def _capture_sim(self, args, result) -> None:
        self.sims.append(self._on_sim(args[0], result))

    def _on_gc(self, stage: str, info: dict) -> None:
        if self._own_collect:
            return
        if stage == "start":
            self._gc_t0 = self.speed.clock()
        else:
            self._gc_s += self.speed.clock() - self._gc_t0
            self._gc_n += 1

    # -- phases -------------------------------------------------------------

    def _snapshot(self) -> tuple[float, ...]:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        user = ru.ru_utime - self.speed.spent_cpu_s
        return (self.speed.clock(), user, ru.ru_stime, ru.ru_minflt, self._gc_s, self._gc_n)

    def _boundary(self) -> None:
        """Charge the segment since the last mark to the current phase,
        then collect garbage outside every phase's account."""
        now = self._snapshot()
        if self._phase_stack and self._mark is not None:
            name = self._phase_stack[-1]
            totals = self.phases[name]
            for key, new, old in zip(PHASE_KEYS, now, self._mark):
                totals[key] += new - old
            self.segments.append((name, self._mark[0], now[0]))
        self._own_collect = True
        try:
            gc.collect()
        finally:
            self._own_collect = False
        self._mark = self._snapshot()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Account the enclosed block to phase ``name``.

        Phases nest (a training call inside an evaluation sweep): the
        inner phase's time is taken out of the outer one's account.
        """
        self.phases.setdefault(name, dict.fromkeys(PHASE_KEYS, 0.0))
        self._boundary()
        self._phase_stack.append(name)
        spans = self.spans
        if spans is not None:
            sid = len(spans)
            parent = self._stack[-1] if self._stack else -1
            spans.append(None)
            self._stack.append(sid)
        t0 = self.speed.clock()
        try:
            yield
        finally:
            t1 = self.speed.clock()
            if spans is not None:
                self._stack.pop()
                spans[sid] = (f"phase.{name}", t0, t1, parent)
            self._boundary()
            self._phase_stack.pop()

    def phase_around(self, owner, attr: str, name: str) -> None:
        """Run every call of ``owner.attr`` inside phase ``name`` (for a
        phase that starts inside a library call, such as the training a
        robustness sweep performs before its first MobiRescue cell)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            with self.phase(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapped)

    # -- tracing overhead -------------------------------------------------

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Seconds one traced wrapper adds to a call, measured on a no-op
        (median of five batches)."""

        def noop(x):
            return x

        clock = self.speed.clock
        saved = self.spans
        self.spans = []
        wrapped = self._wrap(noop, "calibration", False, None)
        costs = []
        try:
            for _ in range(5):
                t0 = clock()
                for i in range(calls):
                    noop(i)
                t1 = clock()
                for i in range(calls):
                    wrapped(i)
                t2 = clock()
                self.spans.clear()
                costs.append(((t2 - t1) - (t1 - t0)) / calls)
        finally:
            self.spans = saved
        costs.sort()
        return max(costs[len(costs) // 2], 0.0)


def layer_breakdown(spans: list[tuple[str, float, float, int]]) -> dict:
    """Self time and call counts per span name, and each phase's wall time
    split into the self times of the layers run inside it.

    A span's self time is its duration minus its direct children's
    durations.  A call counts once per outermost span of its name (a
    degraded position feed calling the feed it wraps is one feed call).
    Every non-phase span is attributed to its nearest enclosing phase; a
    phase's own self time is its ``other_s``.
    """
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    layers: dict[str, dict[str, float]] = {}
    phases: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        self_s = (t1 - t0) - child_s[i]
        p = parent
        while p >= 0 and not spans[p][0].startswith("phase."):
            p = spans[p][3]
        if name.startswith("phase."):
            phase = phases.setdefault(name[6:], {"wall_s": 0.0, "other_s": 0.0})
            phase["wall_s"] += self_s
            phase["other_s"] += self_s
            continue
        layer = layers.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        layer["self_s"] += self_s
        outer = parent < 0 or spans[parent][0] != name
        if outer:
            layer["total_s"] += t1 - t0
            layer["calls"] += 1
        if p >= 0:
            phase = phases.setdefault(spans[p][0][6:], {"wall_s": 0.0, "other_s": 0.0})
            phase["wall_s"] += self_s
            phase[name] = phase.get(name, 0.0) + self_s
    return {"layers": layers, "phases": phases}
