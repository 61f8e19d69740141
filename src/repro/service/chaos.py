"""Composable chaos harness: break everything, then prove the invariants.

One :class:`ChaosHarness` run executes, per seed, a *triple*:

1. a **plain engine run** of a fresh MobiRescue system — the golden
   baseline;
2. a **clean service run** (all guards wired, the configured shards,
   zero faults) of an identically-built system — asserted
   **bit-identical** to the baseline, so the armour and the sharded
   ingest demonstrably cost nothing when nothing is broken;
3. a **chaos run** composing the environment fault profile from
   :mod:`repro.faults` (GPS dropouts, comm loss, breakdowns, closures,
   dispatch-center failures) with the component-level profile
   (predictor exceptions, policy latency spikes, corrupt-record storms)
   on one shard — or, under a ``shard-*`` profile, shard kills, stalls
   and hot-shard skew on four shards.

The chaos run is then judged against explicit invariants rather than
vibes: no exception escaped the service, every dispatch tick completed
(a dead shard never stalls the loop), every failover re-covered its
keyspace within the supervisor's budget, the per-shard record ledger
reconciles exactly, and the served count stayed within
``degradation_factor`` of the clean run.  Any violation is reported with
the seed and detail; the CLI turns violations into a nonzero exit so CI
can gate on them.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.campaign import run_campaign
from repro.core.config import MobiRescueConfig
from repro.core.positions import PopulationFeed
from repro.core.predictor import RequestPredictor, TrainingSet
from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent
from repro.data import DatasetSpec, build_dataset
from repro.faults.models import ComponentFaultInjector, FaultInjector, ShardFaultInjector
from repro.faults.profiles import (
    get_component_profile,
    get_profile,
    get_shard_profile,
)
from repro.mobility.cleaning import clean_trace
from repro.mobility.mapmatch import map_match
from repro.service.loop import DispatchService, ServiceConfig
from repro.service.sharding.supervisor import ShardingConfig
from repro.sim.engine import RescueSimulator, SimulationConfig, SimulationResult
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index

logger = logging.getLogger("repro.service.chaos")


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign: profile, seeds, window, topology, pass criteria.

    ``profile`` names an environment/component profile (``mild``,
    ``severe``, ...) run on one shard, or a ``shard-*`` profile run on
    four shards with no environment faults.
    """

    profile: str = "severe"
    seeds: tuple[int, ...] = (0, 1)
    population_size: int = 500
    num_teams: int = 15
    window_days: float = 0.5
    eval_day: str = "Sep 16"
    #: Chaos must serve at least ``clean_served / degradation_factor``
    #: requests (checked only when the clean run served any).
    degradation_factor: float = 3.0
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        # Each lookup raises on an unknown name.
        if self.sharded:
            get_shard_profile(self.profile)
        else:
            get_profile(self.profile)
            get_component_profile(self.profile)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.window_days <= 0:
            raise ValueError("evaluation window must be positive")
        if self.degradation_factor < 1.0:
            raise ValueError("degradation factor must be >= 1")

    @property
    def sharded(self) -> bool:
        return self.profile.startswith("shard-")


@dataclass
class SeedVerdict:
    """Invariant outcomes for one seed's baseline/clean/chaos triple."""

    seed: int
    requests: int
    clean_served: int
    chaos_served: int
    equivalence_ok: bool
    ticks_ok: bool
    no_escape: bool
    failover_budget_ok: bool
    reconciliation_ok: bool
    degradation_ok: bool
    violations: list[str]
    clean_summary: dict[str, object]
    chaos_summary: dict[str, object]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_json(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "requests": self.requests,
            "clean_served": self.clean_served,
            "chaos_served": self.chaos_served,
            "equivalence_ok": self.equivalence_ok,
            "ticks_ok": self.ticks_ok,
            "no_escape": self.no_escape,
            "failover_budget_ok": self.failover_budget_ok,
            "reconciliation_ok": self.reconciliation_ok,
            "degradation_ok": self.degradation_ok,
            "violations": list(self.violations),
            "clean": self.clean_summary,
            "chaos": self.chaos_summary,
        }


def results_bit_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Exact equality of every recorded artifact (floats included)."""
    return (
        a.pickups == b.pickups
        and a.deliveries == b.deliveries
        and a.serving_samples == b.serving_samples
        and a.incidents == b.incidents
        and a.requests == b.requests
        and a.num_served == b.num_served
    )


class ChaosHarness:
    """Build one small world once, then run seeded chaos triples in it.

    The world is the test-scale Florence dataset (evaluation) plus the
    Michael scenario (the predictor's training storm, matching the
    paper's train-on-Michael / evaluate-on-Florence split); each seed
    gets freshly-built agents so runs are independent and reproducible.
    """

    def __init__(self, config: ChaosConfig | None = None) -> None:
        self.config = config or ChaosConfig()
        cfg = self.config
        self.scenario, bundle = build_dataset(
            DatasetSpec(storm="florence", population_size=cfg.population_size)
        )
        self.michael_scenario, _ = build_dataset(
            DatasetSpec(storm="michael", population_size=cfg.population_size)
        )
        part = self.scenario.partition
        cleaned, _ = clean_trace(bundle.trace, part.width_m, part.height_m)
        self._matched = map_match(cleaned, self.scenario.network)
        self.known_persons = frozenset(int(p) for p in self._matched.persons())

        self.sharding = ShardingConfig(num_shards=4 if cfg.sharded else 1)
        day = day_index(self.scenario.timeline, cfg.eval_day)
        self.t0_s = day * SECONDS_PER_DAY
        self.t1_s = (day + cfg.window_days) * SECONDS_PER_DAY
        self.requests = remap_to_operable(
            requests_from_rescues(bundle.rescues, self.t0_s, self.t1_s),
            self.scenario.network,
            self.scenario.flood,
        )
        # The predictor is shared read-only across runs: SVM inference is
        # stateless, so reuse cannot leak state between triples.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 3))
        y = (x.sum(axis=1) > 0).astype(int)
        self.predictor = (
            RequestPredictor(self.michael_scenario, flood_gated=False)
            .fit(TrainingSet(x=x, y=y))
            .clone_for(self.scenario)
        )

    def _sim_config(self, seed: int) -> SimulationConfig:
        cfg = self.config
        return SimulationConfig(
            t0_s=self.t0_s, t1_s=self.t1_s, num_teams=cfg.num_teams, seed=seed
        )

    def _make_dispatcher(self, seed: int) -> MobiRescueDispatcher:
        """A fresh MobiRescue system; fresh agent => bit-reproducible runs."""
        mcfg = MobiRescueConfig(seed=5)
        return MobiRescueDispatcher(
            self.scenario,
            self.predictor,
            PopulationFeed(self._matched, cache_size=8),
            make_agent(mcfg),
            mcfg,
            training=False,
        )

    def _service(self, seed: int, with_faults: bool) -> DispatchService:
        cfg = self.config
        faults = component_faults = shard_faults = None
        if with_faults and cfg.sharded:
            shard_faults = ShardFaultInjector(
                get_shard_profile(cfg.profile), self.t0_s, self.t1_s, seed=seed
            )
        elif with_faults:
            faults = FaultInjector(
                get_profile(cfg.profile), self.t0_s, self.t1_s, seed=seed
            )
            component_faults = ComponentFaultInjector(
                get_component_profile(cfg.profile), seed=seed
            )
        return DispatchService(
            self.scenario,
            list(self.requests),
            self._make_dispatcher(seed),
            self._sim_config(seed),
            service=cfg.service,
            sharding=self.sharding,
            faults=faults,
            component_faults=component_faults,
            shard_faults=shard_faults,
            known_persons=self.known_persons,
        )

    def run_seed(
        self, seed: int, progress: Callable[[str], None] | None = None
    ) -> SeedVerdict:
        """One baseline/clean/chaos triple, judged against the invariants."""
        cfg = self.config
        if progress:
            progress(f"chaos triple for seed {seed} under {cfg.profile!r}...")
        violations: list[str] = []
        record_violation = violations.append

        baseline = RescueSimulator(
            self.scenario,
            list(self.requests),
            self._make_dispatcher(seed),
            self._sim_config(seed),
        ).run()

        clean_report = self._service(seed, with_faults=False).run()
        equivalence_ok = results_bit_identical(baseline, clean_report.result)
        if not equivalence_ok:
            record_violation(
                f"seed {seed}: clean service run diverged from the plain "
                f"engine run (served {clean_report.result.num_served} "
                f"vs {baseline.num_served})"
            )
        if not clean_report.all_ticks_completed:
            record_violation(
                f"seed {seed}: clean run skipped ticks "
                f"({clean_report.ticks_completed}/{clean_report.ticks_expected})"
            )

        chaos_service = self._service(seed, with_faults=True)
        try:
            chaos_report = chaos_service.run()
        except Exception as exc:  # repro: allow-broad-except -- chaos invariant: record the escape as a violation, never crash the harness
            chaos_report = None
            record_violation(
                f"seed {seed}: exception escaped the service under chaos "
                f"({type(exc).__name__}: {exc})"
            )
            logger.exception("chaos run escaped for seed %d", seed)

        clean_served = baseline.num_served
        chaos_served = 0
        chaos_summary: dict[str, object] = {}
        ticks_ok = failover_budget_ok = reconciliation_ok = degradation_ok = True
        if chaos_report is not None:
            chaos_served = chaos_report.result.num_served
            chaos_summary = chaos_report.summary()
            ticks_ok = chaos_report.all_ticks_completed
            if not ticks_ok:
                record_violation(
                    f"seed {seed}: chaos run skipped ticks "
                    f"({chaos_report.ticks_completed}/{chaos_report.ticks_expected})"
                )
            supervisor = chaos_service.supervisor
            failover_budget_ok = supervisor.within_failover_budget()
            if not failover_budget_ok:
                record_violation(
                    f"seed {seed}: keyspace went uncovered for "
                    f"{supervisor.max_uncovered_cycles()} cycles "
                    f"(budget {supervisor.config.failover_budget_cycles})"
                )
            reconciliation_ok = chaos_service.ingest_guard.reconciles()
            if not reconciliation_ok:
                record_violation(
                    f"seed {seed}: per-shard record accounting does not "
                    "reconcile (accepted+transferred != "
                    "drained+queued+shed+transferred_out+lost)"
                )
            if clean_served > 0:
                degradation_ok = (
                    chaos_served * cfg.degradation_factor >= clean_served
                )
                if not degradation_ok:
                    record_violation(
                        f"seed {seed}: chaos served {chaos_served} < "
                        f"{clean_served}/{cfg.degradation_factor:g} "
                        f"(clean served {clean_served})"
                    )

        verdict = SeedVerdict(
            seed=seed,
            requests=len(self.requests),
            clean_served=clean_served,
            chaos_served=chaos_served,
            equivalence_ok=equivalence_ok,
            ticks_ok=ticks_ok,
            no_escape=chaos_report is not None,
            failover_budget_ok=failover_budget_ok,
            reconciliation_ok=reconciliation_ok,
            degradation_ok=degradation_ok,
            violations=violations,
            clean_summary=clean_report.summary(),
            chaos_summary=chaos_summary,
        )
        logger.info(
            "chaos seed %d: %s (clean served %d, chaos served %d, "
            "%d violations)",
            seed,
            "OK" if verdict.ok else "VIOLATED",
            clean_served,
            chaos_served,
            len(violations),
        )
        return verdict

    def run(
        self,
        progress: Callable[[str], None] | None = None,
        out_path: str | None = None,
    ) -> dict[str, object]:
        """All seeds; returns (and optionally writes) the campaign report."""
        cfg = self.config
        header = {
            "profile": cfg.profile,
            "env_profile": "none" if cfg.sharded else cfg.profile,
            "seeds": list(cfg.seeds),
            "population_size": cfg.population_size,
            "num_teams": cfg.num_teams,
            "window_days": cfg.window_days,
            "degradation_factor": cfg.degradation_factor,
            "num_shards": self.sharding.num_shards,
        }
        return run_campaign(cfg.seeds, self.run_seed, header, out_path, progress)
