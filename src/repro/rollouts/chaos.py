"""Worker-chaos harness: kill real rollout workers, prove the invariants.

Per seed, the harness runs one parallel campaign of real dispatch
simulations under a ``worker-*`` fault profile — actual process deaths
mid-episode, heartbeat-starving stalls, checksum-breaking corruptions —
and judges the outcome against explicit invariants rather than vibes:

* **zero lost episodes** — every episode is merged or quarantined;
* **equivalence** — the merged output over non-quarantined episodes is
  bit-identical to the serial seed path (same fingerprint);
* **quarantine accounting** — every quarantined episode has a full
  incident record, and under ``worker-kill`` the quarantined set equals
  the injector's poison set exactly (no over- or under-quarantine);
* **chaos bit** — when the profile schedules kills, workers really died
  (a chaos run that didn't hurt proves nothing).

The CLI (``repro chaos --profile worker-*``) turns violations into a
nonzero exit so CI can gate on them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.campaign import run_campaign
from repro.data import DatasetSpec, build_dataset
from repro.faults.models import WorkerFaultInjector
from repro.faults.profiles import get_worker_profile
from repro.rollouts.executor import (
    RolloutConfig,
    RolloutExecutor,
    RolloutReport,
    run_rollouts_serial,
)
from repro.rollouts.spec import EpisodeSpec
from repro.rollouts.tasks import EvalRolloutTask
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY, day_index

logger = logging.getLogger("repro.rollouts.chaos")


@dataclass(frozen=True)
class RolloutChaosConfig:
    """One worker-chaos campaign: profile, seeds, world size, topology."""

    profile: str = "worker-kill"
    seeds: tuple[int, ...] = (0, 1)
    episodes: int = 8
    num_workers: int = 2
    population_size: int = 250
    num_teams: int = 10
    window_days: float = 0.25
    eval_day: str = "Sep 16"
    #: Seed of the episode specs (the campaign identity); the per-run
    #: chaos seed drives only the fault injector.
    campaign_seed: int = 7
    heartbeat_timeout_s: float = 3.0
    beat_interval_s: float = 0.05
    max_worker_restarts: int = 64

    def __post_init__(self) -> None:
        get_worker_profile(self.profile)  # raises on unknown names
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.episodes < 1:
            raise ValueError("episodes must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be positive")
        if self.window_days <= 0:
            raise ValueError("evaluation window must be positive")


@dataclass
class RolloutSeedVerdict:
    """Invariant outcomes for one seed's serial/chaos pair."""

    seed: int
    zero_lost_ok: bool
    equivalence_ok: bool
    quarantine_ok: bool
    chaos_bit_ok: bool
    worker_deaths: int
    quarantined_ids: list[int]
    expected_poison: list[int]
    violations: list[str]
    chaos_summary: dict[str, Any]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_json(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "zero_lost_ok": self.zero_lost_ok,
            "equivalence_ok": self.equivalence_ok,
            "quarantine_ok": self.quarantine_ok,
            "chaos_bit_ok": self.chaos_bit_ok,
            "worker_deaths": self.worker_deaths,
            "quarantined_ids": self.quarantined_ids,
            "expected_poison": self.expected_poison,
            "violations": list(self.violations),
            "chaos": self.chaos_summary,
        }


def _expects_kills(
    injector: WorkerFaultInjector, episode_ids: list[int], budget: int
) -> bool:
    """Does the schedule contain at least one kill-causing fault?"""
    for eid in episode_ids:
        for attempt in range(budget):
            plan = injector.plan(eid, attempt)
            if plan.crash_after_beats is not None or plan.stall_s > 0.0:
                return True
    return False


class RolloutChaosHarness:
    """Build one small eval world once, then run seeded chaos campaigns."""

    def __init__(self, config: RolloutChaosConfig | None = None) -> None:
        self.config = config or RolloutChaosConfig()
        cfg = self.config
        self.scenario, bundle = build_dataset(
            DatasetSpec(storm="florence", population_size=cfg.population_size)
        )
        day = day_index(self.scenario.timeline, cfg.eval_day)
        t0_s = day * SECONDS_PER_DAY
        t1_s = (day + cfg.window_days) * SECONDS_PER_DAY
        requests = remap_to_operable(
            requests_from_rescues(bundle.rescues, t0_s, t1_s),
            self.scenario.network,
            self.scenario.flood,
        )
        self.task = EvalRolloutTask(
            scenario=self.scenario,
            requests=tuple(requests),
            t0_s=t0_s,
            t1_s=t1_s,
            num_teams=cfg.num_teams,
        )
        self.specs = [
            EpisodeSpec(i, self.task.kind, seed=cfg.campaign_seed)
            for i in range(cfg.episodes)
        ]
        # The serial reference depends only on the campaign, not on the
        # chaos seed: compute it once for every seed's judgment.
        self.serial = run_rollouts_serial(self.task, self.specs)

    def _executor_config(self) -> RolloutConfig:
        cfg = self.config
        return RolloutConfig(
            num_workers=cfg.num_workers,
            heartbeat_timeout_s=cfg.heartbeat_timeout_s,
            beat_interval_s=cfg.beat_interval_s,
            max_worker_restarts=cfg.max_worker_restarts,
        )

    def _judge(
        self, seed: int, progress: Callable[[str], None]
    ) -> RolloutSeedVerdict:
        cfg = self.config
        injector = WorkerFaultInjector(get_worker_profile(cfg.profile), seed=seed)
        episode_ids = [s.episode_id for s in self.specs]
        expected_poison = sorted(
            eid for eid in episode_ids if injector.poisoned(eid)
        )
        executor = RolloutExecutor(
            self.task,
            self._executor_config(),
            seed=cfg.campaign_seed,
            fault_injector=injector,
        )
        report = executor.run(self.specs)
        violations: list[str] = []

        zero_lost_ok = report.zero_lost
        if not zero_lost_ok:
            lost = report.total - report.completed - len(report.quarantined_ids)
            violations.append(f"seed {seed}: {lost} episodes lost")

        reference = self.serial.merged.restrict(
            eid for eid in episode_ids if eid not in report.quarantined_ids
        )
        equivalence_ok = (
            reference.fingerprint() == report.merged.fingerprint()
        )
        if not equivalence_ok:
            violations.append(
                f"seed {seed}: merged output diverges from the serial path"
            )

        recorded = {
            i.episode_id
            for i in report.incidents
            if i.kind == "quarantine" and i.episode_id is not None
        }
        quarantine_ok = set(report.quarantined_ids) <= recorded
        if not quarantine_ok:
            missing = sorted(set(report.quarantined_ids) - recorded)
            violations.append(
                f"seed {seed}: quarantined episodes {missing} lack incident records"
            )
        if cfg.profile == "worker-kill":
            if list(report.quarantined_ids) != expected_poison:
                quarantine_ok = False
                violations.append(
                    f"seed {seed}: quarantined {list(report.quarantined_ids)} "
                    f"!= injected poison set {expected_poison}"
                )

        budget = self._executor_config().retry.max_attempts
        chaos_bit_ok = True
        if _expects_kills(injector, episode_ids, budget):
            chaos_bit_ok = report.worker_deaths > 0
            if not chaos_bit_ok:
                violations.append(
                    f"seed {seed}: kills were scheduled but no worker died"
                )

        verdict = RolloutSeedVerdict(
            seed=seed,
            zero_lost_ok=zero_lost_ok,
            equivalence_ok=equivalence_ok,
            quarantine_ok=quarantine_ok,
            chaos_bit_ok=chaos_bit_ok,
            worker_deaths=report.worker_deaths,
            quarantined_ids=list(report.quarantined_ids),
            expected_poison=expected_poison,
            violations=violations,
            chaos_summary=report.summary(),
        )
        progress(
            f"seed {seed}: deaths={verdict.worker_deaths} "
            f"quarantined={verdict.quarantined_ids} "
            f"{'OK' if verdict.ok else 'VIOLATED'}"
        )
        return verdict

    def run(
        self,
        progress: Callable[[str], None] | None = None,
        out_path: str | None = None,
    ) -> dict[str, Any]:
        cfg = self.config
        fingerprint = self.serial.merged.fingerprint()
        if progress:
            progress(
                f"worker chaos: profile={cfg.profile} episodes={cfg.episodes} "
                f"workers={cfg.num_workers} serial fingerprint {fingerprint[:12]}"
            )
        header = {
            "profile": cfg.profile,
            "seeds": list(cfg.seeds),
            "episodes": cfg.episodes,
            "num_workers": cfg.num_workers,
            "serial_fingerprint": fingerprint,
        }
        return run_campaign(cfg.seeds, self._judge, header, out_path, progress)
