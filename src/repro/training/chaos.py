"""Training chaos harness: fault-composed self-healing runs, judged.

``repro chaos --profile train-*`` runs, per seed:

1. a **baseline** — plain ``train_mobirescue``, sentinel off;
2. a **clean sentinel run** — must be *bit-identical* to the baseline
   (weights, Adam state, replay buffer, RNG state, reward trace);
3. a **chaos run** — the profile's training faults injected mid-episode
   through the same observer tap that screens them.

The chaos run is then held to the harness invariants:

* **detection**: every applied fault has a matching anomaly in the same
  ``(episode, attempt)`` window (bitrot: matched per rotten checkpoint,
  detected by rollback quarantine or the final sweep);
* **recovery floor**: a recovered (non-aborted) run's mean service rate
  stays within ``recovery_floor`` of the baseline's;
* **checkpoint hygiene**: every checkpoint still committed after the
  run loads cleanly and passes the full sentinel screens — no anomaly
  ever escapes into a committed artifact;
* **blackout**: a persistent-fault profile must *abort* with a
  manifest-complete forensics bundle instead of committing progress.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.artifacts import verify_artifact_dir
from repro.core.campaign import run_campaign
from repro.core.config import MobiRescueConfig
from repro.core.training import TrainedMobiRescue, train_mobirescue
from repro.data import DatasetSpec, build_dataset
from repro.data.charlotte import CharlotteScenario
from repro.faults.models import TrainingFaultInjector
from repro.faults.profiles import get_train_profile
from repro.mobility.generator import TraceBundle
from repro.training.health import (
    KIND_CHECKPOINT_BITROT,
    SentinelConfig,
    TrainingSentinel,
)
from repro.training.loop import (
    FORENSICS_FORMAT,
    LadderConfig,
    SentinelTrainingResult,
    sentinel_training,
)

#: Which anomaly kinds legitimately betray each injected fault family.
#: (A NaN weight shows up as a NaN loss *or* a NaN parameter scan; a
#: reward spike as a replay-bound hit or the divergence it seeds.)
DETECTION_MAP: dict[str, tuple[str, ...]] = {
    "nan-gradient": ("nan-loss", "nan-param", "grad-explosion", "q-explosion"),
    "corrupt-replay": ("replay-corrupt", "nan-loss", "nan-param", "grad-explosion"),
    "reward-spike": (
        "replay-reward-bound", "td-divergence", "q-explosion", "grad-explosion",
    ),
}


@dataclass(frozen=True)
class TrainChaosConfig:
    """One training-chaos campaign."""

    profile: str = "train-severe"
    seeds: tuple[int, ...] = (0,)
    episodes: int = 3
    population_size: int = 300
    num_teams: int = 10
    team_capacity: int = 5
    storm: str = "michael"
    #: Mean chaos service rate must reach this fraction of baseline.
    recovery_floor: float = 0.5
    #: Persist run directories (checkpoints, journals, forensics) under
    #: this path instead of a throwaway tempdir — CI uploads them.
    work_dir: str | None = None

    def __post_init__(self) -> None:
        get_train_profile(self.profile)  # raises on unknown names
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.episodes < 1:
            raise ValueError("episodes must be positive")
        if self.population_size < 1 or self.num_teams < 1 or self.team_capacity < 1:
            raise ValueError("population/teams/capacity must be positive")
        if not (0.0 < self.recovery_floor <= 1.0):
            raise ValueError("recovery_floor must be in (0, 1]")


@dataclass
class TrainSeedVerdict:
    """Everything the judge measured for one seed."""

    seed: int
    profile: str
    clean_identical: bool = False
    aborted: bool = False
    forensics_complete: bool | None = None
    applied: list[dict] = field(default_factory=list)
    anomalies: list[dict] = field(default_factory=list)
    recoveries: list[dict] = field(default_factory=list)
    baseline_rates: list[float] = field(default_factory=list)
    chaos_rates: list[float] = field(default_factory=list)
    committed_checkpoints: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_json(self) -> dict:
        kinds: dict[str, int] = {}
        for a in self.anomalies:
            kinds[str(a["kind"])] = kinds.get(str(a["kind"]), 0) + 1
        return {
            "seed": self.seed,
            "profile": self.profile,
            "ok": self.ok,
            "clean_identical": self.clean_identical,
            "aborted": self.aborted,
            "forensics_complete": self.forensics_complete,
            "applied": self.applied,
            "applied_count": len(self.applied),
            "anomalies": self.anomalies,
            "anomaly_kinds": kinds,
            "recoveries": self.recoveries,
            "baseline_rates": self.baseline_rates,
            "chaos_rates": self.chaos_rates,
            "committed_checkpoints": self.committed_checkpoints,
            "violations": self.violations,
        }


def _agent_states_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _matches(applied: dict, anomaly: dict) -> bool:
    if applied["kind"] == "checkpoint-bitrot":
        return (
            anomaly["kind"] == KIND_CHECKPOINT_BITROT
            and anomaly["value"] == float(applied["checkpoint"])
        )
    return (
        anomaly["kind"] in DETECTION_MAP[str(applied["kind"])]
        and anomaly["episode"] == applied["episode"]
        and anomaly["attempt"] == applied["attempt"]
    )


class TrainChaosHarness:
    """Builds one small world, then judges each seed against it."""

    def __init__(
        self,
        config: TrainChaosConfig,
        dataset: tuple[CharlotteScenario, TraceBundle] | None = None,
    ) -> None:
        self.config = config
        if dataset is None:
            dataset = build_dataset(
                DatasetSpec(storm=config.storm, population_size=config.population_size)
            )
        self.scenario, self.bundle = dataset
        self.profile = get_train_profile(config.profile)

    # -- per-seed runs --------------------------------------------------------

    def _baseline(self, seed: int) -> TrainedMobiRescue:
        c = self.config
        return train_mobirescue(
            self.scenario,
            self.bundle,
            MobiRescueConfig(seed=seed),
            episodes=c.episodes,
            num_teams=c.num_teams,
            team_capacity=c.team_capacity,
        )

    def _sentinel_run(
        self,
        seed: int,
        checkpoint_dir: pathlib.Path,
        injector: TrainingFaultInjector | None,
    ) -> SentinelTrainingResult:
        c = self.config
        return sentinel_training(
            self.scenario,
            self.bundle,
            MobiRescueConfig(seed=seed),
            episodes=c.episodes,
            num_teams=c.num_teams,
            team_capacity=c.team_capacity,
            checkpoint_dir=checkpoint_dir,
            # Nothing may be pruned away before the hygiene sweep judges it.
            keep_checkpoints=c.episodes + 2,
            injector=injector,
        )

    # -- invariants -----------------------------------------------------------

    def _check_detection(self, verdict: TrainSeedVerdict) -> None:
        for applied in verdict.applied:
            if not any(_matches(applied, a) for a in verdict.anomalies):
                verdict.violations.append(
                    f"undetected fault: {applied['kind']} at episode "
                    f"{applied['episode']} attempt {applied['attempt']}"
                )

    def _check_recovery_floor(self, verdict: TrainSeedVerdict) -> None:
        floor = self.config.recovery_floor
        base = float(np.mean(verdict.baseline_rates)) if verdict.baseline_rates else 0.0
        if base <= 0.0:
            return
        chaos = float(np.mean(verdict.chaos_rates)) if verdict.chaos_rates else 0.0
        if chaos < floor * base:
            verdict.violations.append(
                f"recovered service rate {chaos:.3f} below floor "
                f"{floor:.2f} x baseline {base:.3f}"
            )

    def _check_checkpoint_hygiene(
        self, verdict: TrainSeedVerdict, checkpoint_dir: pathlib.Path
    ) -> None:
        """Every *surviving* checkpoint must load and pass full screens."""
        from repro.core import persistence
        from repro.core.rl_dispatcher import make_agent

        paths = persistence.list_checkpoints(checkpoint_dir)
        verdict.committed_checkpoints = len(paths)
        for path in paths:
            try:
                checkpoint = persistence.load_checkpoint(path)
            except Exception as exc:  # repro: allow-broad-except -- any load failure is a violation
                verdict.violations.append(
                    f"committed checkpoint {path.name} does not load: {exc}"
                )
                continue
            agent = make_agent(checkpoint.config)
            agent.set_state(checkpoint.agent_state)
            probe = TrainingSentinel(SentinelConfig())
            probe.begin_attempt(-1, -1)
            probe.screen_params(agent)
            probe.screen_replay(agent.buffer)
            leaked = probe.drain()
            for anomaly in leaked:
                verdict.violations.append(
                    f"anomaly escaped into {path.name}: {anomaly.kind} "
                    f"({anomaly.detail})"
                )

    def _check_forensics(
        self, verdict: TrainSeedVerdict, result: SentinelTrainingResult
    ) -> None:
        path = result.forensics_path
        if path is None:
            verdict.forensics_complete = False
            verdict.violations.append("aborted without a forensics bundle")
            return
        try:
            verify_artifact_dir(path)
        except Exception as exc:  # repro: allow-broad-except -- any defect fails the bundle
            verdict.forensics_complete = False
            verdict.violations.append(f"forensics bundle incomplete: {exc}")
            return
        import json

        with open(path / "incidents.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        agent_state_ok = (path / "agent_state.npz").exists()
        if payload.get("format") != FORENSICS_FORMAT or not agent_state_ok:
            verdict.forensics_complete = False
            verdict.violations.append("forensics bundle malformed")
            return
        verdict.forensics_complete = True

    # -- the judge ------------------------------------------------------------

    def _judge(self, seed: int, work: pathlib.Path) -> TrainSeedVerdict:
        c = self.config
        verdict = TrainSeedVerdict(seed=seed, profile=c.profile)
        expect_abort = self.profile.nan_gradient.persistent

        baseline = self._baseline(seed)
        verdict.baseline_rates = list(baseline.episode_service_rates)

        clean = self._sentinel_run(seed, work / "clean", injector=None)
        if clean.trained is None:
            verdict.violations.append("clean sentinel run did not produce a model")
        else:
            verdict.clean_identical = _agent_states_equal(
                baseline.agent.get_state(), clean.trained.agent.get_state()
            ) and (
                baseline.episode_service_rates
                == clean.trained.episode_service_rates
            )
            if not verdict.clean_identical:
                verdict.violations.append(
                    "clean sentinel run diverged from sentinel-off baseline"
                )
        if clean.anomalies:
            verdict.violations.append(
                f"clean run raised {len(clean.anomalies)} false anomalies"
            )

        injector = TrainingFaultInjector(self.profile, seed=seed)
        chaos_dir = work / "chaos"
        chaos = self._sentinel_run(seed, chaos_dir, injector=injector)
        verdict.aborted = chaos.aborted
        verdict.applied = list(chaos.applied)
        verdict.anomalies = list(chaos.anomalies)
        verdict.recoveries = list(chaos.recoveries)
        if chaos.trained is not None:
            verdict.chaos_rates = list(chaos.trained.episode_service_rates)

        self._check_detection(verdict)
        self._check_checkpoint_hygiene(verdict, chaos_dir)
        if expect_abort:
            if not chaos.aborted:
                verdict.violations.append(
                    "persistent-fault profile completed instead of aborting"
                )
            self._check_forensics(verdict, chaos)
        else:
            if chaos.aborted:
                verdict.violations.append("transient-fault profile aborted")
            else:
                self._check_recovery_floor(verdict)
        verdict.violations = [f"seed {seed}: {m}" for m in verdict.violations]
        return verdict

    def header(self, verdicts: list[TrainSeedVerdict]) -> dict:
        c = self.config
        return {
            "profile": c.profile,
            "seeds": list(c.seeds),
            "episodes": c.episodes,
            "population_size": c.population_size,
            "num_teams": c.num_teams,
            "recovery_floor": c.recovery_floor,
            "applied_total": sum(len(v.applied) for v in verdicts),
            "anomaly_total": sum(len(v.anomalies) for v in verdicts),
        }

    def _judge_seed(
        self, seed: int, progress: Callable[[str], None]
    ) -> TrainSeedVerdict:
        c = self.config
        progress(f"seed {seed}: baseline + clean + {c.profile} chaos "
                 f"({c.episodes} episodes)")
        if c.work_dir is not None:
            work = pathlib.Path(c.work_dir) / f"seed-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            verdict = self._judge(seed, work)
        else:
            with tempfile.TemporaryDirectory(prefix="train-chaos-") as tmp:
                verdict = self._judge(seed, pathlib.Path(tmp))
        state = "ok" if verdict.ok else f"VIOLATIONS: {verdict.violations}"
        progress(
            f"seed {seed}: {len(verdict.applied)} faults applied, "
            f"{len(verdict.anomalies)} anomalies, "
            f"{len(verdict.recoveries)} recoveries, {state}"
        )
        return verdict

    def run(
        self,
        progress: Callable[[str], None] | None = None,
        out_path: str | pathlib.Path | None = None,
    ) -> dict:
        return run_campaign(
            self.config.seeds, self._judge_seed, self.header, out_path, progress
        )
