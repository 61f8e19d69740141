"""Method-comparison harness for the dispatching experiments (Figs. 9-14).

Runs MobiRescue, Rescue, Schedule (and optionally Nearest) over the same
evaluation window — the paper's Sep 16, 24 hours — with the same request
stream, fleet size and initial conditions, and hands back per-method
metrics.  The fleet size follows the paper's rule: "the number of
ambulances is equal to the maximum daily number of requests over all days
during the hurricane."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MobiRescueConfig
from repro.core.system import MobiRescueSystem
from repro.data.charlotte import CharlotteScenario
from repro.dispatch.base import Dispatcher
from repro.dispatch.nearest import NearestDispatcher
from repro.dispatch.rescue_ts import RescueTsDispatcher
from repro.dispatch.schedule import ScheduleDispatcher
from repro.mobility.generator import TraceBundle
from repro.sim.engine import SimulationConfig, SimulationResult
from repro.sim.kernel import EventKernelSimulator
from repro.sim.metrics import SimulationMetrics
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index


@dataclass(frozen=True)
class HarnessConfig:
    """Evaluation parameters shared across methods."""

    eval_day_label: str = "Sep 16"
    num_teams: int | None = None  # None -> the paper's max-daily-requests rule
    team_capacity: int = 5
    dispatch_period_s: float = 300.0
    step_s: float = 60.0
    mobirescue_episodes: int = 6
    mobirescue_config: MobiRescueConfig = field(default_factory=MobiRescueConfig)
    seed: int = 0
    #: Named fault profile (``repro.faults``) injected into every run;
    #: ``"none"`` keeps the fault layer disabled and zero-cost.
    fault_profile: str = "none"
    #: Wall-clock budget per dispatcher invocation (None disables).
    dispatch_budget_s: float | None = None


@dataclass
class MethodRun:
    """One method's simulation outcome."""

    name: str
    result: SimulationResult
    metrics: SimulationMetrics
    dispatcher: Dispatcher


class ExperimentHarness:
    """Shared setup + memoized per-method runs."""

    METHODS = ("MobiRescue", "Rescue", "Schedule", "Nearest")

    def __init__(
        self,
        florence: tuple[CharlotteScenario, TraceBundle],
        michael: tuple[CharlotteScenario, TraceBundle],
        config: HarnessConfig | None = None,
    ) -> None:
        self.florence_scenario, self.florence_bundle = florence
        self.michael_scenario, self.michael_bundle = michael
        self.config = config or HarnessConfig()
        self._system: MobiRescueSystem | None = None
        self._runs: dict[str, MethodRun] = {}

    # -- shared setup ---------------------------------------------------------

    @property
    def eval_day(self) -> int:
        return day_index(self.florence_scenario.timeline, self.config.eval_day_label)

    @property
    def eval_window(self) -> tuple[float, float]:
        d = self.eval_day
        return d * SECONDS_PER_DAY, (d + 1) * SECONDS_PER_DAY

    def eval_requests(self):
        t0, t1 = self.eval_window
        return remap_to_operable(
            requests_from_rescues(self.florence_bundle.rescues, t0, t1),
            self.florence_scenario.network,
            self.florence_scenario.flood,
        )

    def num_teams(self) -> int:
        """The paper's fleet-size rule, unless overridden."""
        if self.config.num_teams is not None:
            return self.config.num_teams
        per_day: dict[int, int] = {}
        for r in self.florence_bundle.rescues:
            d = int(r.request_time_s // SECONDS_PER_DAY)
            per_day[d] = per_day.get(d, 0) + 1
        return max(per_day.values()) if per_day else 10

    def system(self) -> MobiRescueSystem:
        """The trained MobiRescue system (trained once, on Michael)."""
        if self._system is None:
            self._system = MobiRescueSystem.train(
                self.michael_scenario,
                self.michael_bundle,
                config=self.config.mobirescue_config,
                episodes=self.config.mobirescue_episodes,
                num_teams=min(40, self.num_teams()),
            )
        return self._system

    def adopt_system(self, system: MobiRescueSystem) -> None:
        """Reuse an already-trained system (robustness sweeps train once
        and evaluate the same models under every fault profile)."""
        self._system = system

    def fault_injector(self):
        """A fresh injector for this harness's profile, or ``None``."""
        from repro.faults import make_injector

        t0, t1 = self.eval_window
        return make_injector(
            self.config.fault_profile, t0, t1, seed=self.config.seed
        )

    # -- dispatch construction --------------------------------------------------

    def make_dispatcher(self, name: str) -> Dispatcher:
        cap = self.config.team_capacity
        if name == "MobiRescue":
            return self.system().deploy(self.florence_scenario, self.florence_bundle)
        if name == "Schedule":
            return ScheduleDispatcher(team_capacity=cap)
        if name == "Rescue":
            disp = RescueTsDispatcher(team_capacity=cap)
            # Seed its time series with the disaster days preceding the
            # evaluation window, as its design requires.
            t0, _ = self.eval_window
            history = requests_from_rescues(self.florence_bundle.rescues, 0.0, t0)
            disp.seed_history(history)
            return disp
        if name == "Nearest":
            return NearestDispatcher()
        raise ValueError(f"unknown method {name!r} (choose from {self.METHODS})")

    # -- runs ------------------------------------------------------------------------

    def run_method(self, name: str) -> MethodRun:
        if name in self._runs:
            return self._runs[name]
        t0, t1 = self.eval_window
        dispatcher = self.make_dispatcher(name)
        injector = self.fault_injector()
        if injector is not None and injector.profile.gps.enabled and hasattr(
            dispatcher, "positions_fn"
        ):
            # GPS dropout degrades the dispatch center's population feed —
            # only MobiRescue senses positions, so only it is affected.
            from repro.core.positions import DegradedPositionFeed

            dispatcher.positions_fn = DegradedPositionFeed(
                dispatcher.positions_fn, injector
            )
        sim = EventKernelSimulator(
            self.florence_scenario,
            self.eval_requests(),
            dispatcher,
            SimulationConfig(
                t0_s=t0,
                t1_s=t1,
                num_teams=self.num_teams(),
                team_capacity=self.config.team_capacity,
                dispatch_period_s=self.config.dispatch_period_s,
                step_s=self.config.step_s,
                seed=self.config.seed,
                dispatch_budget_s=self.config.dispatch_budget_s,
            ),
            faults=injector,
        )
        result = sim.run()
        run = MethodRun(
            name=name, result=result, metrics=SimulationMetrics(result), dispatcher=dispatcher
        )
        self._runs[name] = run
        return run

    def run_all(self, methods: tuple[str, ...] = ("MobiRescue", "Rescue", "Schedule")):
        return {name: self.run_method(name) for name in methods}

    # -- per-cell result persistence -------------------------------------------

    def cell_key(self, name: str) -> str:
        """Stable identity of one (method, profile, seed) sweep cell, used
        as the durable-store key by resumable sweeps."""
        cfg = self.config
        return f"method={name},profile={cfg.fault_profile},seed={cfg.seed}"

    def summary_cell(self, name: str) -> dict:
        """One method's outcome as a JSON-able summary dict.

        This is the per-cell unit resumable sweeps persist: everything the
        aggregate tables need, none of the (unserializable) simulator
        state.  Values are plain Python scalars so a store round trip is
        exact.
        """
        run = self.run_method(name)
        m = run.metrics
        delays = m.driving_delays()
        timeliness = m.timeliness_values()
        serving = [n for _, n in run.result.serving_samples]
        return {
            "method": name,
            "profile": self.config.fault_profile,
            "seed": self.config.seed,
            "requests": len(self.eval_requests()),
            "served": int(run.result.num_served),
            "timely": int(m.total_timely_served),
            "service_rate": float(m.service_rate),
            "median_delay_s": float(np.median(delays)) if len(delays) else float("nan"),
            "mean_timeliness_s": (
                float(np.mean(timeliness)) if len(timeliness) else float("nan")
            ),
            "avg_serving": float(np.mean(serving)) if serving else float("nan"),
            "fallback_activations": int(m.fallback_activations),
            "dropped_commands": int(m.dropped_commands),
            "breakdowns": int(m.breakdowns),
            "reroutes": int(m.reroutes),
            "incidents_dropped": int(m.incidents_dropped),
        }
