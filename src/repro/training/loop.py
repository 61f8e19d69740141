"""Self-healing training loop: sentinel screens + escalation ladder.

:func:`sentinel_training` drives the exact same episode primitive as
``repro.core.training`` (``run_training_episode``) but wraps every
attempt in the :class:`~repro.training.health.TrainingSentinel` and, on
a confirmed anomaly, climbs a four-rung escalation ladder:

0. **rollback** to the last healthy checkpoint and replay the episode;
1. rollback + **exploration re-perturbation** — the agent's action RNG
   is re-seeded from the registered ``(seed, STREAM_TRAIN_REPERTURB,
   anomaly_idx)`` stream so the replay explores a deterministically
   different trajectory;
2. rollback + **learning-rate back-off** (multiplicative, journaled);
3. **abort** with a forensics bundle — agent/optimizer/replay/RNG state
   plus the bounded incident ring, committed through the atomic
   artifact layer.

The rung resets to 0 after ``reset_after_clean`` cleanly committed
episodes, so isolated transient faults are always absorbed by a pure
rollback, and only repeated failures without progress escalate.

Everything the ladder decides is journaled (atomically) *before* it
acts, and checkpoints only commit after a clean attempt verdict — which
is what makes a SIGKILL at any point resumable and keeps anomalies out
of committed checkpoints by construction.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.artifacts import (
    ArtifactError,
    atomic_savez,
    atomic_write_json,
    fsync_dir,
    write_manifest,
)
from repro.core.config import MobiRescueConfig
from repro.core.runner import RetryPolicy, Supervisor
from repro.core.streams import STREAM_TRAIN_REPERTURB
from repro.core.training import (
    TrainedMobiRescue,
    TrainingSetup,
    prepare_training,
    run_training_episode,
    setup_from_checkpoint,
)
from repro.data.charlotte import CharlotteScenario
from repro.faults.models import NULL_TRAINING_PLAN, TrainingFaultInjector, TrainingFaultPlan
from repro.mobility.generator import TraceBundle
from repro.training.health import (
    KIND_CHECKPOINT_BITROT,
    Anomaly,
    SentinelConfig,
    TrainingSentinel,
    replay_checksum,
)

JOURNAL_FILENAME = "sentinel-journal.json"
JOURNAL_FORMAT = "repro-train-journal"
FORENSICS_FORMAT = "repro-train-forensics"
_CKPT_NAME_RE = re.compile(r"ckpt-(\d{6})")


@dataclass(frozen=True)
class LadderConfig:
    """Escalation-ladder policy."""

    #: Rung at which the loop stops retrying and writes forensics.
    abort_level: int = 3
    #: Cleanly committed episodes that reset the rung to 0.
    reset_after_clean: int = 1
    #: Multiplicative learning-rate back-off at rung 2+.
    lr_backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.abort_level < 1:
            raise ValueError("abort_level must be at least 1")
        if self.reset_after_clean < 1:
            raise ValueError("reset_after_clean must be at least 1")
        if not (0.0 < self.lr_backoff < 1.0):
            raise ValueError("lr_backoff must be in (0, 1)")


@dataclass
class SentinelTrainingResult:
    """Outcome of one self-healing training run.

    ``aborted`` instead of an exception: the supervisor retries generic
    exceptions, and a ladder abort is a *verdict*, not a transient."""

    trained: TrainedMobiRescue | None
    anomalies: list[dict[str, object]]
    applied: list[dict[str, object]]
    recoveries: list[dict[str, object]]
    aborted: bool
    forensics_path: pathlib.Path | None
    journal: dict[str, object]
    checkpoint_dir: pathlib.Path

    @property
    def ok(self) -> bool:
        return not self.aborted and self.trained is not None


def _fresh_journal(seed: int) -> dict:
    return {
        "format": JOURNAL_FORMAT,
        "version": 1,
        "seed": int(seed),
        "attempts": {},
        "anomaly_count": 0,
        "level": 0,
        "clean_streak": 0,
        "lr_scale": 1.0,
        "bitrotted": [],
        "anomalies": [],
        "recoveries": [],
        "aborted": False,
    }


def _load_journal(checkpoint_dir: pathlib.Path) -> dict | None:
    path = checkpoint_dir / JOURNAL_FILENAME
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        journal = json.load(fh)
    if journal.get("format") != JOURNAL_FORMAT:
        raise ArtifactError(f"{path} is not a {JOURNAL_FORMAT} artifact")
    return journal


def _write_journal(checkpoint_dir: pathlib.Path, journal: dict) -> None:
    atomic_write_json(checkpoint_dir / JOURNAL_FILENAME, journal)


class _StepTap:
    """Per-attempt observer chain: fault application, then screening.

    Faults mutate agent state exactly at their planned learn step —
    *before* the sentinel's screens run for that step — so detection
    latency is measured honestly.  With a null plan the tap degenerates
    to the bare sentinel screen (and applies nothing)."""

    def __init__(
        self,
        plan: TrainingFaultPlan,
        sentinel: TrainingSentinel,
        applied: list[dict[str, object]],
        episode: int,
        attempt: int,
    ) -> None:
        self.plan = plan
        self.sentinel = sentinel
        self.applied = applied
        self.episode = episode
        self.attempt = attempt
        self.step = 0

    def _record(self, kind: str, step: int, **extra: object) -> None:
        record: dict[str, object] = {
            "kind": kind,
            "episode": self.episode,
            "attempt": self.attempt,
            "step": step,
        }
        record.update(extra)
        self.applied.append(record)

    def __call__(self, agent, loss: float) -> None:  # noqa: ANN001 - DQNAgent
        self.step += 1
        plan = self.plan
        if not plan.is_null:
            if plan.nan_at_step == self.step:
                # Poison one weight component; matmul spreads the NaN to
                # every output on the next forward pass.
                agent.q_net.layers[0].w[0, 0] = np.nan
                self._record("nan-gradient", self.step)
            views = agent.buffer.views()
            n = len(agent.buffer)
            if plan.corrupt_replay_at_step == self.step and n > 0:
                rows = min(plan.corrupt_rows, n)
                views["states"][:rows] = np.nan
                self._record("corrupt-replay", self.step, rows=rows)
            if plan.reward_spike_at_step == self.step and n > 0:
                rows = min(plan.spike_rows, n)
                views["rewards"][:rows] = plan.spike_magnitude
                self._record("reward-spike", self.step, rows=rows)
        self.sentinel.observe(agent, loss)


def _flip_checkpoint_byte(path: pathlib.Path) -> None:
    """Rot one byte of a committed checkpoint's state archive in place."""
    state = path / "state.npz"
    raw = bytearray(state.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    # Deliberately NOT atomic: bitrot is supposed to corrupt in place.
    with open(state, "wb") as fh:  # repro: allow-unsafe-write -- fault injection
        fh.write(raw)
        fh.flush()
        os.fsync(fh.fileno())


def _checkpoint_episode(message: str) -> int:
    """Episode count encoded in a checkpoint name inside ``message``."""
    match = _CKPT_NAME_RE.search(message)
    return int(match.group(1)) if match else -1


def write_forensics(
    checkpoint_dir: pathlib.Path,
    setup: TrainingSetup,
    service_rates: list[float],
    journal: dict,
    sentinel: TrainingSentinel,
    reason: str,
) -> pathlib.Path:
    """Commit a forensics bundle: full agent/optimizer/replay/RNG state
    plus the incident ring, manifest-sealed like any other artifact."""
    bundle = checkpoint_dir / f"forensics-{int(journal['anomaly_count']):03d}"
    if bundle.exists():
        # A killed abort retries idempotently: rebuild from scratch.
        shutil.rmtree(bundle)
    bundle.mkdir(parents=True)
    agent = setup.agent
    atomic_savez(bundle / "agent_state.npz", **agent.get_state())
    atomic_write_json(
        bundle / "incidents.json",
        {
            "format": FORENSICS_FORMAT,
            "version": 1,
            "reason": reason,
            "seed": setup.cfg.seed,
            "level": journal["level"],
            "lr_scale": journal["lr_scale"],
            "epsilon": agent.epsilon,
            "learn_steps": agent.learn_steps,
            "service_rates": list(service_rates),
            "replay_checksum": replay_checksum(agent.buffer),
            "anomalies": list(journal["anomalies"]),
            "recoveries": list(journal["recoveries"]),
            "incident_ring": sentinel.incidents.as_json(),
        },
    )
    write_manifest(bundle, version=1, meta={"kind": FORENSICS_FORMAT})
    fsync_dir(checkpoint_dir)
    return bundle


def _last_reperturb_idx(journal: dict, episode: int) -> int | None:
    """Anomaly index of the newest re-perturbation recorded for
    ``episode``, applied idempotently at every attempt start (a resumed
    process must re-derive in-memory recovery state from the journal)."""
    idx = None
    for rec in journal["recoveries"]:
        if rec["episode"] == episode and "reperturb" in rec["actions"]:
            idx = int(rec["anomaly_idx"])
    return idx


def sentinel_training(
    scenario: CharlotteScenario,
    bundle: TraceBundle,
    config: MobiRescueConfig | None = None,
    *,
    episodes: int = 6,
    num_teams: int = 40,
    team_capacity: int = 5,
    checkpoint_dir: str | pathlib.Path,
    keep_checkpoints: int = 3,
    sentinel_config: SentinelConfig | None = None,
    ladder: LadderConfig | None = None,
    injector: TrainingFaultInjector | None = None,
    progress: Callable[[str], None] | None = None,
    use_sentinel: bool = True,
) -> SentinelTrainingResult:
    """Checkpointed, resume-aware training; self-healing with the sentinel.

    This is the one loop that writes training checkpoints.  Fault-free,
    it produces models bit-identical to ``train_mobirescue`` with the
    same arguments (the sentinel only reads).  ``injector`` is the chaos
    hook: planned training faults are applied mid-episode through the
    same observer tap that screens them.

    ``use_sentinel=False`` drops the observer tap, the boundary screens
    and the gradient statistics; checkpoint quarantine is still journaled
    as ``checkpoint-bitrot`` anomalies, and an anomaly-free run never
    climbs the ladder.

    The directory is the unit of resumption: an initial ``ckpt-000000``
    commits before episode 0, every clean episode commits a checkpoint,
    and the ladder journal persists next to them — re-invoking after any
    SIGKILL continues (and re-runs any recovery) deterministically.
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if injector is not None and not use_sentinel:
        raise ValueError("fault injection needs the sentinel's observer tap")
    checkpoint_root = pathlib.Path(checkpoint_dir)
    checkpoint_root.mkdir(parents=True, exist_ok=True)
    sc = sentinel_config or SentinelConfig()
    lad = ladder or LadderConfig()
    sentinel = TrainingSentinel(sc)
    applied: list[dict[str, object]] = []
    say = progress or (lambda _msg: None)

    # Lazy import everywhere else in the tree, but this module is never
    # on the fork path, so a top-level persistence import would also be
    # fine; keep the established pattern.
    from repro.core import persistence

    def note_quarantine(kind: str, message: str) -> None:
        rotten = _checkpoint_episode(message)
        sentinel.record(
            KIND_CHECKPOINT_BITROT, -1, float(rotten), message,
            dedup_key=f"{KIND_CHECKPOINT_BITROT}:{rotten}",
        )

    journal = _load_journal(checkpoint_root)
    quarantined: list[tuple[str, str]] = []
    found = persistence.find_latest_valid_checkpoint(
        checkpoint_root, on_incident=lambda *incident: quarantined.append(incident)
    )
    if journal is None:
        journal = _fresh_journal((config or MobiRescueConfig()).seed)
    if journal.get("aborted"):
        # A completed abort is terminal; re-running must not retrain.
        return SentinelTrainingResult(
            trained=None,
            anomalies=list(journal["anomalies"]),
            applied=applied,
            recoveries=list(journal["recoveries"]),
            aborted=True,
            forensics_path=_latest_forensics(checkpoint_root),
            journal=journal,
            checkpoint_dir=checkpoint_root,
        )

    if found is not None:
        checkpoint, _path = found
        setup = setup_from_checkpoint(checkpoint, scenario, bundle)
        service_rates = list(checkpoint.service_rates)
        ep = checkpoint.episodes_done
        say(f"resuming from episode {ep}")
    else:
        setup = prepare_training(scenario, bundle, config)
        service_rates = []
        ep = 0
        persistence.save_checkpoint(
            checkpoint_root,
            persistence.checkpoint_from_training(
                setup.agent, setup.predictor, setup.cfg, 0, []
            ),
        )
    # Quarantine found at startup is charged to the attempt about to run
    # and journaled now, so it cannot fail that attempt's verdict.
    sentinel.begin_attempt(ep, int(journal["attempts"].get(str(ep), 0)))
    for incident in quarantined:
        note_quarantine(*incident)
    journal["anomalies"].extend(a.as_json() for a in sentinel.drain())
    _write_journal(checkpoint_root, journal)

    agent = setup.agent
    base_lr = agent.config.learning_rate
    agent.q_net.grad_stats_enabled = use_sentinel

    def abort(reason: str) -> SentinelTrainingResult:
        forensics = write_forensics(
            checkpoint_root, setup, service_rates, journal, sentinel, reason
        )
        journal["aborted"] = True
        _write_journal(checkpoint_root, journal)
        say(f"ABORT: {reason} (forensics at {forensics})")
        return SentinelTrainingResult(
            trained=None,
            anomalies=list(journal["anomalies"]),
            applied=applied,
            recoveries=list(journal["recoveries"]),
            aborted=True,
            forensics_path=forensics,
            journal=journal,
            checkpoint_dir=checkpoint_root,
        )

    while ep < episodes:
        attempt = int(journal["attempts"].get(str(ep), 0))
        journal["attempts"][str(ep)] = attempt + 1
        _write_journal(checkpoint_root, journal)

        # Idempotent recovery-state application (no-ops on a clean run):
        # the journal, not process memory, is the source of truth, so a
        # resumed process re-derives exactly what a live one holds.
        agent.q_net.learning_rate = base_lr * float(journal["lr_scale"])
        reperturb_idx = _last_reperturb_idx(journal, ep)
        if reperturb_idx is not None:
            agent.rng = np.random.default_rng(
                [setup.cfg.seed, STREAM_TRAIN_REPERTURB, reperturb_idx]
            )

        plan = injector.plan(ep, attempt) if injector is not None else NULL_TRAINING_PLAN
        sentinel.begin_attempt(ep, attempt)
        if use_sentinel:
            agent.observer = _StepTap(plan, sentinel, applied, ep, attempt)
        try:
            rate = run_training_episode(
                scenario, bundle, setup, ep,
                num_teams=num_teams, team_capacity=team_capacity,
            ).service_rate
        finally:
            agent.observer = None

        candidate_rates = service_rates + ([rate] if rate is not None else [])
        if use_sentinel:
            # Boundary screens: a fault landing on the attempt's *last*
            # learn step has no later step to betray itself on, so the
            # attempt verdict always re-scans parameters and replay in full.
            sentinel.screen_params(agent)
            sentinel.screen_replay(agent.buffer)
            sentinel.screen_rewards(candidate_rates)
        anomalies = sentinel.drain()

        if not anomalies:
            service_rates = candidate_rates
            path = persistence.save_checkpoint(
                checkpoint_root,
                persistence.checkpoint_from_training(
                    agent, setup.predictor, setup.cfg, ep + 1, service_rates
                ),
            )
            if (
                injector is not None
                and injector.bitrot(ep)
                and ep not in journal["bitrotted"]
            ):
                _flip_checkpoint_byte(path)
                journal["bitrotted"].append(ep)
                applied.append({
                    "kind": "checkpoint-bitrot",
                    "episode": ep,
                    "attempt": attempt,
                    "step": -1,
                    "checkpoint": ep + 1,
                })
            persistence.prune_checkpoints(checkpoint_root, keep=keep_checkpoints)
            journal["clean_streak"] = int(journal["clean_streak"]) + 1
            if journal["clean_streak"] >= lad.reset_after_clean:
                journal["level"] = 0
            ep += 1
            _write_journal(checkpoint_root, journal)
            continue

        # -- confirmed anomaly: climb the ladder -----------------------------
        journal["anomalies"].extend(a.as_json() for a in anomalies)
        anomaly_idx = int(journal["anomaly_count"])
        journal["anomaly_count"] = anomaly_idx + 1
        level = int(journal["level"])
        journal["clean_streak"] = 0
        kinds = ",".join(sorted({a.kind for a in anomalies}))
        say(f"episode {ep} attempt {attempt}: anomaly [{kinds}] at ladder level {level}")

        if level >= lad.abort_level:
            return abort(
                f"ladder exhausted at level {level} "
                f"(episode {ep}, attempt {attempt}: {kinds})"
            )

        actions = ["rollback"]
        if level >= 1:
            actions.append("reperturb")
        if level >= 2:
            actions.append("lr-backoff")
            journal["lr_scale"] = float(journal["lr_scale"]) * lad.lr_backoff
        journal["recoveries"].append({
            "episode": ep,
            "attempt": attempt,
            "level": level,
            "actions": actions,
            "anomaly_idx": anomaly_idx,
            "kinds": kinds,
        })
        journal["level"] = level + 1
        _write_journal(checkpoint_root, journal)

        found = persistence.find_latest_valid_checkpoint(
            checkpoint_root, on_incident=note_quarantine
        )
        rollback_anomalies = sentinel.drain()
        journal["anomalies"].extend(a.as_json() for a in rollback_anomalies)
        if rollback_anomalies:
            _write_journal(checkpoint_root, journal)
        if found is None:
            return abort("no valid checkpoint left to roll back to")
        checkpoint, _path = found
        agent.set_state(checkpoint.agent_state)
        service_rates = list(checkpoint.service_rates)
        ep = checkpoint.episodes_done
        say(f"rolled back to episode {ep} ({'+'.join(actions)})")

    # -- final checkpoint-integrity sweep -------------------------------------
    # Bitrot on a checkpoint nothing rolled back through would otherwise
    # go unnoticed until some future resume; sweep so every rotten
    # artifact is quarantined (and counted) before the run reports ok.
    for path in persistence.list_checkpoints(checkpoint_root):
        try:
            persistence.load_checkpoint(path)
        except ArtifactError as exc:
            rotten = _checkpoint_episode(path.name)
            sentinel.record(
                KIND_CHECKPOINT_BITROT,
                -1,
                float(rotten),
                f"final sweep: checkpoint {path.name} rejected: {exc}",
                dedup_key=f"{KIND_CHECKPOINT_BITROT}:final:{rotten}",
            )
            persistence.quarantine_checkpoint(path, str(exc))
    sweep_anomalies = sentinel.drain()
    if sweep_anomalies:
        journal["anomalies"].extend(a.as_json() for a in sweep_anomalies)
        _write_journal(checkpoint_root, journal)

    agent.q_net.grad_stats_enabled = False
    return SentinelTrainingResult(
        trained=setup.trained(service_rates),
        anomalies=list(journal["anomalies"]),
        applied=applied,
        recoveries=list(journal["recoveries"]),
        aborted=False,
        forensics_path=_latest_forensics(checkpoint_root),
        journal=journal,
        checkpoint_dir=checkpoint_root,
    )


def _latest_forensics(checkpoint_root: pathlib.Path) -> pathlib.Path | None:
    bundles = sorted(checkpoint_root.glob("forensics-*"))
    return bundles[-1] if bundles else None


def supervised_sentinel_training(
    scenario: CharlotteScenario,
    bundle: TraceBundle,
    config: MobiRescueConfig | None = None,
    *,
    episodes: int = 6,
    num_teams: int = 40,
    team_capacity: int = 5,
    checkpoint_dir: str | pathlib.Path,
    keep_checkpoints: int = 3,
    sentinel_config: SentinelConfig | None = None,
    ladder: LadderConfig | None = None,
    injector: TrainingFaultInjector | None = None,
    supervisor: Supervisor | None = None,
    policy: RetryPolicy | None = None,
    progress: Callable[[str], None] | None = None,
    use_sentinel: bool = True,
) -> SentinelTrainingResult:
    """:func:`sentinel_training` under the crash supervisor.

    Process-level failures (OOM kill leftovers, torn filesystems
    surfacing as exceptions) are retried with backoff; each retry
    resumes from the journal + checkpoints, so supervision composes
    with — rather than duplicates — the anomaly ladder, which handles
    *numeric* failures and reports an abort as a result, not a raise.
    """
    cfg_seed = (config or MobiRescueConfig()).seed
    sup = supervisor or Supervisor(
        policy=policy or RetryPolicy(max_attempts=3),
        name="train-sentinel",
        seed=cfg_seed,
    )

    def attempt(_attempt_index: int) -> SentinelTrainingResult:
        return sentinel_training(
            scenario,
            bundle,
            config,
            episodes=episodes,
            num_teams=num_teams,
            team_capacity=team_capacity,
            checkpoint_dir=checkpoint_dir,
            keep_checkpoints=keep_checkpoints,
            sentinel_config=sentinel_config,
            ladder=ladder,
            injector=injector,
            progress=progress,
            use_sentinel=use_sentinel,
        )

    result = sup.run(attempt)
    result.journal["supervisor_incidents"] = [
        {"kind": i.kind, "message": i.message, "attempt": i.attempt}
        for i in sup.incidents
    ]
    return result
