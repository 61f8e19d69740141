"""Self-healing training: golden equivalence, rollback, abort forensics.

The load-bearing claims of docs/TRAINING_HEALTH.md, on real (small)
training runs:

* a fault-free sentinel run is **bit-identical** to plain
  ``train_mobirescue`` — weights, Adam state, replay buffer, RNG state,
  and the reward trace — across multiple seeds;
* the detectors raise **zero false positives** across five seeds of
  fault-free training;
* a transient injected fault is detected, rolled back, and the
  recovered run's final state is bit-identical to the golden run;
* a persistent fault climbs the ladder and **aborts** with a complete
  forensics bundle instead of committing a poisoned checkpoint;
* re-invoking a completed run is a journal-driven no-op, and a
  checkpoint found rotten at startup is journaled and skipped without
  failing the attempt that resumes behind it.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.artifacts import verify_artifact_dir
from repro.core.config import MobiRescueConfig
from repro.core.persistence import list_checkpoints, load_checkpoint
from repro.core.training import train_mobirescue
from repro.faults import TrainingFaultInjector, get_train_profile
from repro.training import (
    FORENSICS_FORMAT,
    LadderConfig,
    sentinel_training,
)

GOLDEN_SEEDS = (0, 1, 2)
FALSE_POSITIVE_SEEDS = (0, 1, 2, 3, 4)
EPISODES = 2
NUM_TEAMS = 8


def states_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.fixture(scope="module")
def golden(michael_small):
    """Plain sentinel-off training per seed."""
    scenario, bundle = michael_small
    return {
        seed: train_mobirescue(
            scenario,
            bundle,
            MobiRescueConfig(seed=seed),
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
        )
        for seed in GOLDEN_SEEDS
    }


@pytest.fixture(scope="module")
def sentinel_runs(michael_small, tmp_path_factory):
    """Fault-free sentinel runs, shared by the equivalence and
    false-positive tests (one training run per seed, not two)."""
    scenario, bundle = michael_small
    runs = {}
    for seed in FALSE_POSITIVE_SEEDS:
        ckpt = tmp_path_factory.mktemp(f"sentinel-seed-{seed}")
        runs[seed] = (
            sentinel_training(
                scenario,
                bundle,
                MobiRescueConfig(seed=seed),
                episodes=EPISODES,
                num_teams=NUM_TEAMS,
                team_capacity=5,
                checkpoint_dir=ckpt,
            ),
            ckpt,
        )
    return runs


class TestGoldenEquivalence:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_sentinel_on_is_bit_identical(self, golden, sentinel_runs, seed):
        base = golden[seed]
        result, _ckpt = sentinel_runs[seed]
        assert result.trained is not None
        assert states_equal(
            base.agent.get_state(), result.trained.agent.get_state()
        )
        assert base.episode_service_rates == result.trained.episode_service_rates


class TestNoFalsePositives:
    @pytest.mark.parametrize("seed", FALSE_POSITIVE_SEEDS)
    def test_fault_free_run_is_clean(self, sentinel_runs, seed):
        result, _ckpt = sentinel_runs[seed]
        assert result.anomalies == []
        assert result.recoveries == []
        assert not result.aborted
        assert result.journal["level"] == 0


class TestTransientRecovery:
    def test_detect_rollback_and_match_golden(
        self, michael_small, golden, tmp_path
    ):
        scenario, bundle = michael_small
        injector = TrainingFaultInjector(get_train_profile("train-mild"), seed=0)
        plans = [injector.plan(ep, 0) for ep in range(EPISODES)]
        assert any(not p.is_null for p in plans), "seed 0 must fire in-window"
        result = sentinel_training(
            scenario,
            bundle,
            MobiRescueConfig(seed=0),
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
            checkpoint_dir=tmp_path / "ck",
            injector=injector,
        )
        assert not result.aborted
        assert result.anomalies, "injected faults must be detected"
        assert result.recoveries, "detection must trigger rollback"
        # Every anomaly lands in the same (episode, attempt) the fault hit.
        applied_windows = {(a["episode"], a["attempt"]) for a in result.applied}
        for anomaly in result.anomalies:
            assert (anomaly["episode"], anomaly["attempt"]) in applied_windows
        # Transient faults are gone on replay, so recovery converges to
        # the exact golden trajectory.
        assert result.trained is not None
        assert states_equal(
            golden[0].agent.get_state(), result.trained.agent.get_state()
        )

    def test_committed_checkpoints_are_clean(self, michael_small, tmp_path):
        scenario, bundle = michael_small
        injector = TrainingFaultInjector(get_train_profile("train-mild"), seed=0)
        result = sentinel_training(
            scenario,
            bundle,
            MobiRescueConfig(seed=0),
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
            checkpoint_dir=tmp_path / "ck",
            keep_checkpoints=EPISODES + 2,
            injector=injector,
        )
        assert result.anomalies
        for path in list_checkpoints(tmp_path / "ck"):
            checkpoint = load_checkpoint(path)
            for arr in checkpoint.agent_state.values():
                if arr.dtype.kind == "f":
                    assert bool(np.isfinite(arr).all()), path.name


class TestBlackoutAbort:
    def test_abort_with_forensics_instead_of_committing(
        self, michael_small, tmp_path
    ):
        scenario, bundle = michael_small
        injector = TrainingFaultInjector(
            get_train_profile("train-blackout"), seed=0
        )
        result = sentinel_training(
            scenario,
            bundle,
            MobiRescueConfig(seed=0),
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
            checkpoint_dir=tmp_path / "ck",
            # Climb rollback -> rollback+reperturb -> abort, keeping the
            # test short while still exercising the re-perturbation rung.
            ladder=LadderConfig(abort_level=2),
            injector=injector,
        )
        assert result.aborted
        assert result.trained is None
        assert any("reperturb" in r["actions"] for r in result.recoveries)
        # No poisoned progress was committed: only the initial
        # pre-episode-0 checkpoint exists.
        paths = list_checkpoints(tmp_path / "ck")
        assert [load_checkpoint(p).episodes_done for p in paths] == [0]
        # The forensics bundle is manifest-complete and self-describing.
        assert result.forensics_path is not None
        verify_artifact_dir(result.forensics_path)
        with open(result.forensics_path / "incidents.json") as fh:
            payload = json.load(fh)
        assert payload["format"] == FORENSICS_FORMAT
        assert payload["anomalies"]
        assert (result.forensics_path / "agent_state.npz").exists()

    def test_aborted_run_stays_aborted_on_reinvoke(self, michael_small, tmp_path):
        scenario, bundle = michael_small
        kwargs = dict(
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
            checkpoint_dir=tmp_path / "ck",
            ladder=LadderConfig(abort_level=1),
        )
        injector = TrainingFaultInjector(
            get_train_profile("train-blackout"), seed=0
        )
        first = sentinel_training(
            scenario, bundle, MobiRescueConfig(seed=0), injector=injector, **kwargs
        )
        assert first.aborted
        again = sentinel_training(
            scenario, bundle, MobiRescueConfig(seed=0), injector=injector, **kwargs
        )
        assert again.aborted
        assert again.journal["anomaly_count"] == first.journal["anomaly_count"]


class TestResume:
    def test_completed_run_resumes_as_noop(self, michael_small, sentinel_runs):
        scenario, bundle = michael_small
        first, ckpt = sentinel_runs[0]
        again = sentinel_training(
            scenario,
            bundle,
            MobiRescueConfig(seed=0),
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
            checkpoint_dir=ckpt,
        )
        assert again.trained is not None
        assert states_equal(
            first.trained.agent.get_state(), again.trained.agent.get_state()
        )
        assert (
            first.trained.episode_service_rates
            == again.trained.episode_service_rates
        )
        assert again.anomalies == []

    def test_startup_quarantine_does_not_fail_the_resumed_attempt(
        self, michael_small, golden, sentinel_runs, tmp_path
    ):
        scenario, bundle = michael_small
        first, ckpt = sentinel_runs[1]
        work = tmp_path / "ck"
        shutil.copytree(ckpt, work)
        latest = list_checkpoints(work)[-1]
        raw = bytearray((latest / "state.npz").read_bytes())
        raw[len(raw) // 2] ^= 0x01
        (latest / "state.npz").write_bytes(bytes(raw))

        again = sentinel_training(
            scenario,
            bundle,
            MobiRescueConfig(seed=1),
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            team_capacity=5,
            checkpoint_dir=work,
        )
        # Each remaining episode runs exactly once more; nothing rolls back.
        before = first.journal["attempts"]
        assert again.journal["attempts"] == {
            **before, str(EPISODES - 1): before[str(EPISODES - 1)] + 1
        }
        assert again.recoveries == []
        assert [(a["kind"], a["episode"]) for a in again.anomalies] == [
            ("checkpoint-bitrot", EPISODES - 1)
        ]
        assert (work / "quarantine" / latest.name).exists()
        assert again.trained is not None
        assert states_equal(
            golden[1].agent.get_state(), again.trained.agent.get_state()
        )
