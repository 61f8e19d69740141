"""Crash-safe checkpointing and resumable training.

The load-bearing guarantee: training interrupted at episode *k* and
resumed is **bit-identical** to an uninterrupted run — same Q-network
weights, epsilon, learn-step counter and episode service rates.  On top
of that: corrupt checkpoints (truncated, bit-flipped, unversioned,
uncommitted) raise typed errors, get quarantined, and recovery falls back
to the previous valid checkpoint.
"""

import shutil

import numpy as np
import pytest

from repro.core.artifacts import (
    ArtifactVersionError,
    CorruptArtifactError,
    MissingManifestError,
    atomic_savez,
    write_manifest,
)
from repro.core.config import MobiRescueConfig
from repro.core.persistence import (
    TrainingCheckpoint,
    find_latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.core.rl_dispatcher import make_agent
from repro.core.runner import RetryPolicy, Supervisor
from repro.ml.replay import ReplayBuffer
from repro.training import sentinel_training, supervised_sentinel_training

CFG = MobiRescueConfig(seed=1)
EPISODES = 2
NUM_TEAMS = 12


def _weights_equal(net_a, net_b) -> bool:
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(net_a.get_weights(), net_b.get_weights())
    )


# -- unit level: agent/buffer state roundtrips (no dataset needed) -----------


class TestAgentStateRoundtrip:
    def fill_agent(self, agent, cfg, n=200, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            agent.remember(
                rng.random(cfg.state_dim),
                int(rng.integers(cfg.num_actions)),
                float(rng.random()),
                rng.random(cfg.state_dim),
                bool(rng.random() < 0.1),
            )

    def test_restored_agent_continues_identically(self):
        cfg = MobiRescueConfig(num_candidates=3, seed=7)
        agent = make_agent(cfg)
        self.fill_agent(agent, cfg)
        for _ in range(10):
            agent.learn()

        twin = make_agent(cfg)
        twin.set_state(agent.get_state())

        state = np.linspace(0.0, 1.0, cfg.state_dim)
        for _ in range(5):
            # Identical losses require identical replay sampling (RNG),
            # identical Adam state, and an identical target net.
            assert agent.learn() == twin.learn()
            assert agent.act(state) == twin.act(state)
        assert agent.epsilon == twin.epsilon
        assert agent.learn_steps == twin.learn_steps
        assert _weights_equal(agent.q_net, twin.q_net)
        assert _weights_equal(agent.target_net, twin.target_net)

    def test_buffer_capacity_mismatch_rejected(self):
        buffer = ReplayBuffer(16, 4)
        other = ReplayBuffer(32, 4)
        with pytest.raises(ValueError):
            other.set_state(buffer.get_state())


# -- checkpoint store ---------------------------------------------------------


def _synthetic_checkpoint(episodes_done=1, rates=(0.5,)):
    cfg = MobiRescueConfig(num_candidates=3, seed=5)
    agent = make_agent(cfg)
    return TrainingCheckpoint(
        episodes_done=episodes_done,
        service_rates=list(rates),
        config=cfg,
        agent_state=agent.get_state(),
        predictor_arrays={
            "svm_alpha": np.ones(3),
            "svm_b": np.array([0.1]),
            "svm_sv_x": np.ones((3, 3)),
            "svm_sv_y": np.ones(3),
            "svm_params": np.array(["rbf", "0.5", "3", "8.0"]),
            "scaler_mean": np.zeros(3),
            "scaler_std": np.ones(3),
        },
    )


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        ckpt = _synthetic_checkpoint(episodes_done=3, rates=(0.5, 0.25, 0.75))
        path = save_checkpoint(tmp_path, ckpt)
        assert path.name == "ckpt-000003"
        loaded = load_checkpoint(path)
        assert loaded.episodes_done == 3
        assert loaded.service_rates == [0.5, 0.25, 0.75]
        assert loaded.config == ckpt.config
        agent = make_agent(loaded.config)
        agent.set_state(loaded.agent_state)

    def test_truncated_archive(self, tmp_path):
        path = save_checkpoint(tmp_path, _synthetic_checkpoint())
        state = path / "state.npz"
        state.write_bytes(state.read_bytes()[: state.stat().st_size // 2])
        with pytest.raises(CorruptArtifactError):
            load_checkpoint(path)

    def test_flipped_byte(self, tmp_path):
        path = save_checkpoint(tmp_path, _synthetic_checkpoint())
        state = path / "state.npz"
        raw = bytearray(state.read_bytes())
        raw[120] ^= 0x01
        state.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError):
            load_checkpoint(path)

    def test_missing_manifest(self, tmp_path):
        path = save_checkpoint(tmp_path, _synthetic_checkpoint())
        (path / "manifest.json").unlink()
        with pytest.raises(MissingManifestError):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = save_checkpoint(tmp_path, _synthetic_checkpoint())
        with np.load(path / "state.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.array([99])
        atomic_savez(path / "state.npz", **arrays)
        write_manifest(path, 99)  # re-commit so only the version is wrong
        with pytest.raises(ArtifactVersionError):
            load_checkpoint(path)

    def test_fallback_skips_and_quarantines_corrupt_latest(self, tmp_path):
        save_checkpoint(tmp_path, _synthetic_checkpoint(1, (0.5,)))
        path2 = save_checkpoint(tmp_path, _synthetic_checkpoint(2, (0.5, 0.25)))
        raw = bytearray((path2 / "state.npz").read_bytes())
        raw[100] ^= 0xFF
        (path2 / "state.npz").write_bytes(bytes(raw))

        incidents: list[tuple[str, str]] = []
        found = find_latest_valid_checkpoint(
            tmp_path, on_incident=lambda kind, msg: incidents.append((kind, msg))
        )
        assert found is not None
        ckpt, path = found
        assert ckpt.episodes_done == 1
        assert path.name == "ckpt-000001"
        # The damaged checkpoint is quarantined, not retried forever.
        assert not path2.exists()
        assert (tmp_path / "quarantine" / "ckpt-000002").exists()
        assert [kind for kind, _ in incidents] == ["corrupt-checkpoint"]
        assert [p.name for p in list_checkpoints(tmp_path)] == ["ckpt-000001"]

    def test_prune_keeps_newest(self, tmp_path):
        for ep in range(1, 6):
            save_checkpoint(tmp_path, _synthetic_checkpoint(ep, (0.5,) * ep))
        removed = prune_checkpoints(tmp_path, keep=3)
        assert [p.name for p in removed] == ["ckpt-000001", "ckpt-000002"]
        assert [p.name for p in list_checkpoints(tmp_path)] == [
            "ckpt-000003", "ckpt-000004", "ckpt-000005",
        ]
        with pytest.raises(ValueError):
            prune_checkpoints(tmp_path, keep=1)


class TestLiveReplayRows:
    """Checkpoints store the replay buffer's live rows; loads pad them back."""

    @staticmethod
    def partly_filled():
        ckpt = _synthetic_checkpoint()
        agent = make_agent(ckpt.config)
        TestAgentStateRoundtrip().fill_agent(agent, ckpt.config, n=300, seed=3)
        for _ in range(4):
            agent.learn()
        ckpt.agent_state = agent.get_state()
        return ckpt, agent

    @staticmethod
    def full():
        ckpt = _synthetic_checkpoint()
        agent = make_agent(ckpt.config)
        buffer = agent.buffer
        rng = np.random.default_rng(11)
        cap, dim = buffer.capacity, buffer.state_dim
        buffer.set_state({
            "states": rng.random((cap, dim)),
            "actions": rng.integers(0, ckpt.config.num_actions, cap),
            "rewards": rng.random(cap),
            "next_states": rng.random((cap, dim)),
            "dones": rng.random(cap) < 0.1,
            "meta": np.array([cap, dim, cap, 1_234]),  # wrapped: head mid-ring
        })
        agent.learn()
        ckpt.agent_state = agent.get_state()
        return ckpt, agent

    @staticmethod
    def stored(path) -> dict[str, np.ndarray]:
        with np.load(path / "state.npz", allow_pickle=False) as data:
            return {k: data[k] for k in data.files}

    @staticmethod
    def assert_resumes_identically(agent, loaded):
        agent_state = loaded.agent_state
        state = agent.get_state()
        assert sorted(agent_state) == sorted(state)
        for key, value in state.items():
            assert agent_state[key].dtype == value.dtype, key
            np.testing.assert_array_equal(agent_state[key], value, err_msg=key)
        twin = make_agent(loaded.config)
        twin.set_state(agent_state)
        probe = np.linspace(0.0, 1.0, twin.config.state_dim)
        for _ in range(3):
            assert agent.learn() == twin.learn()
            assert agent.act(probe) == twin.act(probe)
        assert _weights_equal(agent.q_net, twin.q_net)

    @pytest.mark.parametrize("fill", ["partly_filled", "full"])
    def test_round_trip(self, tmp_path, fill):
        ckpt, agent = getattr(self, fill)()
        path = save_checkpoint(tmp_path, ckpt)
        stored = self.stored(path)
        assert int(stored["version"][0]) == 3
        for name in ("states", "actions", "rewards", "next_states", "dones"):
            assert stored[f"agent.buffer.{name}"].shape[0] == len(agent.buffer), name
        self.assert_resumes_identically(agent, load_checkpoint(path))

    def test_v2_checkpoint_migrates_and_resumes_identically(self, tmp_path):
        """A v2 checkpoint stores every replay row, live or not."""
        ckpt, agent = self.partly_filled()
        path = save_checkpoint(tmp_path, ckpt)
        arrays = self.stored(path)
        for key, value in ckpt.agent_state.items():
            arrays[f"agent.{key}"] = value
        arrays["version"] = np.array([2])
        assert arrays["agent.buffer.states"].shape[0] == agent.buffer.capacity
        atomic_savez(path / "state.npz", **arrays)
        write_manifest(path, 2)
        self.assert_resumes_identically(agent, load_checkpoint(path))

    def test_row_count_disagreeing_with_size_is_corrupt(self, tmp_path):
        ckpt, _ = self.partly_filled()
        path = save_checkpoint(tmp_path, ckpt)
        arrays = self.stored(path)
        arrays["agent.buffer.rewards"] = arrays["agent.buffer.rewards"][:-1]
        atomic_savez(path / "state.npz", **arrays)
        write_manifest(path, 3)
        with pytest.raises(CorruptArtifactError):
            load_checkpoint(path)


# -- integration: interrupt + resume is bit-identical -------------------------


def _train(ckpt_dir, michael_small, episodes=EPISODES):
    scenario, bundle = michael_small
    result = sentinel_training(
        scenario, bundle, CFG, episodes=episodes, num_teams=NUM_TEAMS,
        checkpoint_dir=ckpt_dir,
    )
    assert result.ok
    return result.trained


@pytest.fixture(scope="module")
def straight(michael_small, tmp_path_factory):
    """Uninterrupted 2-episode training, checkpointing as it goes."""
    ckpt_dir = tmp_path_factory.mktemp("straight-ckpt")
    return _train(ckpt_dir, michael_small), ckpt_dir


@pytest.fixture(scope="module")
def resumed(michael_small, tmp_path_factory):
    """The same run interrupted after episode 1, then resumed to the end."""
    ckpt_dir = tmp_path_factory.mktemp("resumed-ckpt")
    _train(ckpt_dir, michael_small, episodes=1)
    return _train(ckpt_dir, michael_small), ckpt_dir


class TestResumeDeterminism:
    def test_bit_identical_weights_and_counters(self, straight, resumed):
        a, _ = straight
        b, _ = resumed
        assert _weights_equal(a.agent.q_net, b.agent.q_net)
        assert _weights_equal(a.agent.target_net, b.agent.target_net)
        assert a.agent.epsilon == b.agent.epsilon
        assert a.agent.learn_steps == b.agent.learn_steps
        assert a.episode_service_rates == b.episode_service_rates
        assert a.episodes_run == b.episodes_run

    def test_replay_and_rng_state_survive(self, straight, resumed):
        a, _ = straight
        b, _ = resumed
        sa, sb = a.agent.get_state(), b.agent.get_state()
        assert str(sa["rng_json"][0]) == str(sb["rng_json"][0])
        np.testing.assert_array_equal(sa["buffer.meta"], sb["buffer.meta"])
        np.testing.assert_array_equal(sa["buffer.states"], sb["buffer.states"])

    def test_checkpoints_committed_per_episode(self, straight):
        _, ckpt_dir = straight
        names = [p.name for p in list_checkpoints(ckpt_dir)]
        assert names == [f"ckpt-{ep:06d}" for ep in range(0, EPISODES + 1)]
        for path in list_checkpoints(ckpt_dir):
            load_checkpoint(path)  # verifies manifests too

    def test_resume_with_target_met_is_noop(self, straight, michael_small):
        trained, ckpt_dir = straight
        again = _train(ckpt_dir, michael_small)
        assert _weights_equal(trained.agent.q_net, again.agent.q_net)
        assert again.episode_service_rates == trained.episode_service_rates


class TestSupervisedTraining:
    """The supervised loop with the sentinel off (``repro train
    --no-sentinel``)."""

    def test_recovers_from_corrupt_latest_checkpoint(
        self, straight, resumed, michael_small, tmp_path
    ):
        """The acceptance scenario: latest checkpoint is damaged ->
        quarantine it, resume from the previous valid one, end state is
        bit-identical to the uninterrupted run; the bitrot is journaled."""
        trained, ckpt_dir = straight
        scenario, bundle = michael_small
        work = tmp_path / "ckpts"
        shutil.copytree(ckpt_dir, work)
        latest = list_checkpoints(work)[-1]
        raw = bytearray((latest / "state.npz").read_bytes())
        raw[200] ^= 0xFF
        (latest / "state.npz").write_bytes(bytes(raw))

        supervisor = Supervisor(policy=RetryPolicy(max_attempts=2), name="test")
        progress: list[str] = []
        result = supervised_sentinel_training(
            scenario,
            bundle,
            checkpoint_dir=work,
            episodes=EPISODES,
            num_teams=NUM_TEAMS,
            supervisor=supervisor,
            progress=progress.append,
            use_sentinel=False,
        )
        assert progress == [f"resuming from episode {EPISODES - 1}"]
        assert (work / "quarantine" / latest.name).exists()
        assert [a["kind"] for a in result.anomalies] == ["checkpoint-bitrot"]
        assert result.recoveries == []
        assert supervisor.incidents == []
        recovered = result.trained
        assert _weights_equal(trained.agent.q_net, recovered.agent.q_net)
        assert recovered.episode_service_rates == trained.episode_service_rates

    def test_fresh_directory_trains_from_scratch(self, michael_small, tmp_path):
        scenario, bundle = michael_small
        supervisor = Supervisor(name="fresh")
        progress: list[str] = []
        result = supervised_sentinel_training(
            scenario,
            bundle,
            config=CFG,
            checkpoint_dir=tmp_path / "fresh",
            episodes=1,
            num_teams=NUM_TEAMS,
            supervisor=supervisor,
            progress=progress.append,
            use_sentinel=False,
        )
        assert progress == []
        assert result.trained.episodes_run >= 0
        assert [p.name for p in list_checkpoints(tmp_path / "fresh")] == [
            "ckpt-000000", "ckpt-000001",
        ]
        assert result.anomalies == []
        assert supervisor.incidents == []
