"""Tests for the numpy MLP, replay buffer and DQN agent."""

import copy

import numpy as np
import pytest

from repro.ml.dqn import DQNAgent, DQNConfig
from repro.ml.nn import MLP
from repro.ml.replay import ReplayBuffer, Transition


class TestMLP:
    def test_shapes(self):
        net = MLP([4, 8, 3])
        out = net.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)
        assert net.predict_one(np.zeros(4)).shape == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            MLP([4])
        with pytest.raises(ValueError):
            MLP([4, 0, 2])
        with pytest.raises(ValueError):
            MLP([4, 2], learning_rate=0.0)
        net = MLP([4, 2])
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 5)))

    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 3))
        w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ w
        net = MLP([3, 32, 1], learning_rate=3e-3, huber_delta=None, seed=1)
        for _ in range(800):
            net.train_step(x, y)
        pred = net.forward(x)
        assert float(np.mean((pred - y) ** 2)) < 0.01

    def test_learns_nonlinear_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(512, 2))
        y = (np.sin(x[:, :1]) * x[:, 1:2])
        net = MLP([2, 64, 64, 1], learning_rate=2e-3, huber_delta=None, seed=2)
        for _ in range(1_500):
            net.train_step(x, y)
        mse = float(np.mean((net.forward(x) - y) ** 2))
        assert mse < 0.02

    def test_loss_decreases(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 2))
        y = x.sum(axis=1, keepdims=True)
        net = MLP([2, 16, 1], learning_rate=1e-2, seed=3)
        first = net.train_step(x, y)
        for _ in range(200):
            last = net.train_step(x, y)
        assert last < first * 0.5

    def test_masked_update_only_touches_selected_outputs(self):
        """With a mask selecting output 0, predictions for output 1 barely
        change in a single step (weights are shared, so only a weak indirect
        effect is possible — here we verify the loss only counts masked
        units)."""
        net = MLP([2, 4, 2], learning_rate=1e-3, seed=4)
        x = np.ones((1, 2))
        out0 = net.forward(x).copy()
        target = out0.copy()
        target[0, 0] += 100.0  # huge error on unit 0
        target[0, 1] += 100.0  # huge error on unit 1 too, but masked away
        mask = np.array([[1.0, 0.0]])
        loss = net.train_step(x, target, output_mask=mask)
        # Huber loss with delta=1 on one unit with error 100: ~ 99.5.
        assert loss == pytest.approx(100.0, abs=1.0)

    def test_target_shape_checked(self):
        net = MLP([2, 4, 2])
        with pytest.raises(ValueError):
            net.train_step(np.zeros((1, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            net.train_step(np.zeros((1, 2)), np.zeros((1, 2)), output_mask=np.zeros((2, 2)))

    def test_clone_and_weights_roundtrip(self):
        net = MLP([3, 5, 2], seed=5)
        clone = net.clone()
        x = np.random.default_rng(6).normal(size=(4, 3))
        np.testing.assert_allclose(net.forward(x), clone.forward(x))
        # Training the original must not affect the clone.
        net.train_step(x, np.zeros((4, 2)))
        assert not np.allclose(net.forward(x), clone.forward(x))

    def test_set_weights_validation(self):
        net = MLP([3, 5, 2])
        with pytest.raises(ValueError):
            net.set_weights(net.get_weights()[:1])

    def test_layers_are_views_of_the_flat_buffers(self):
        net = MLP([3, 5, 2], seed=7)
        for layer in net.layers:
            for arr in (layer.w, layer.b, layer.grad_w, layer.m_b, layer.v_w):
                assert not arr.flags.owndata
        net.layers[1].b[0] = 42.0
        assert 42.0 in net.params
        # A deep copy rebinds its views to its own buffers.
        other = copy.deepcopy(net)
        x = np.ones((2, 3))
        other.train_step(x, np.zeros((2, 2)))
        assert other.layers[0].w.base is not None
        assert np.array_equal(other.layers[0].w.ravel(), other.params[:15])
        assert not np.array_equal(other.params, net.params)
        assert net.layers[1].b[0] == 42.0

    def test_train_state_keys_and_adam_step_check(self):
        net = MLP([3, 5, 2], seed=8)
        net.train_step(np.ones((2, 3)), np.zeros((2, 2)))
        state = net.get_train_state()
        assert sorted(state) == sorted(
            [f"{t}{i}" for t in "wb" for i in range(2)]
            + [f"adam_{t}{i}_{k}" for t in "wb" for i in range(2) for k in "mvt"]
        )
        assert all(state[f"adam_{t}{i}_t"][0] == 1 for t in "wb" for i in range(2))
        fresh = MLP([3, 5, 2])
        fresh.set_train_state(state)
        assert all(np.array_equal(v, fresh.get_train_state()[k]) for k, v in state.items())
        state["adam_b1_t"] = np.array([2], dtype=np.int64)
        with pytest.raises(ValueError, match="step counts"):
            fresh.set_train_state(state)


class TestReplayBuffer:
    @staticmethod
    def _tr(v: float) -> Transition:
        return Transition(np.full(2, v), 0, v, np.full(2, v + 1), False)

    def test_push_and_len(self):
        buf = ReplayBuffer(capacity=3, state_dim=2)
        assert len(buf) == 0
        for i in range(5):
            buf.push(self._tr(float(i)))
        assert len(buf) == 3  # ring overwrote the oldest

    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(capacity=2, state_dim=2)
        for i in range(3):
            buf.push(self._tr(float(i)))
        rng = np.random.default_rng(0)
        states, _, rewards, _, _ = buf.sample(64, rng)
        assert set(rewards.tolist()) <= {1.0, 2.0}

    def test_sample_shapes(self):
        buf = ReplayBuffer(capacity=10, state_dim=3)
        for i in range(4):
            buf.push(Transition(np.zeros(3), i, 0.5, np.ones(3), i % 2 == 0))
        s, a, r, ns, d = buf.sample(8, np.random.default_rng(1))
        assert s.shape == (8, 3) and ns.shape == (8, 3)
        assert a.shape == (8,) and r.shape == (8,) and d.shape == (8,)
        assert d.dtype == bool

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 2)
        buf = ReplayBuffer(4, 2)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            buf.push(Transition(np.zeros(3), 0, 0.0, np.zeros(2), False))


class _LineWorld:
    """5-state chain: move right to reach the goal (reward 1 at state 4)."""

    N = 5

    def __init__(self):
        self.pos = 0

    def reset(self) -> np.ndarray:
        self.pos = 0
        return self.state()

    def state(self) -> np.ndarray:
        s = np.zeros(self.N)
        s[self.pos] = 1.0
        return s

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        self.pos = max(0, min(self.N - 1, self.pos + (1 if action == 1 else -1)))
        done = self.pos == self.N - 1
        return self.state(), (1.0 if done else -0.01), done


class TestDQN:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DQNConfig(state_dim=0, num_actions=2)
        with pytest.raises(ValueError):
            DQNConfig(state_dim=2, num_actions=2, gamma=0.0)
        with pytest.raises(ValueError):
            DQNConfig(state_dim=2, num_actions=2, epsilon_end=0.9, epsilon_start=0.5)

    def test_action_masking(self):
        agent = DQNAgent(DQNConfig(state_dim=3, num_actions=4, seed=0))
        mask = np.array([False, False, True, False])
        for _ in range(20):
            assert agent.act(np.zeros(3), valid_actions=mask) == 2
        with pytest.raises(ValueError):
            agent.act(np.zeros(3), valid_actions=np.zeros(4, dtype=bool))

    def test_learn_requires_batch(self):
        agent = DQNAgent(DQNConfig(state_dim=2, num_actions=2, batch_size=8))
        assert agent.learn() is None

    def test_epsilon_decays(self):
        cfg = DQNConfig(state_dim=2, num_actions=2, batch_size=4, epsilon_decay=0.9)
        agent = DQNAgent(cfg)
        for _ in range(10):
            agent.remember(np.zeros(2), 0, 0.0, np.zeros(2), False)
        for _ in range(20):
            agent.learn()
        assert agent.epsilon < cfg.epsilon_start
        assert agent.epsilon >= cfg.epsilon_end

    def test_solves_lineworld(self):
        """After training, the greedy policy walks straight to the goal."""
        cfg = DQNConfig(
            state_dim=5,
            num_actions=2,
            hidden_sizes=(32,),
            learning_rate=5e-3,
            gamma=0.9,
            epsilon_decay=0.99,
            batch_size=32,
            target_sync_every=50,
            seed=7,
        )
        agent = DQNAgent(cfg)
        env = _LineWorld()
        for _ in range(150):
            s = env.reset()
            for _ in range(20):
                a = agent.act(s)
                ns, r, done = env.step(a)
                agent.remember(s, a, r, ns, done)
                agent.learn()
                s = ns
                if done:
                    break
        # Greedy rollout reaches the goal in the minimum 4 steps.
        s = env.reset()
        steps = 0
        done = False
        while not done and steps < 10:
            a = agent.act(s, greedy=True)
            s, _, done = env.step(a)
            steps += 1
        assert done and steps == 4

    def test_target_sync(self):
        cfg = DQNConfig(state_dim=2, num_actions=2, batch_size=4, target_sync_every=5)
        agent = DQNAgent(cfg)
        for i in range(10):
            agent.remember(np.random.default_rng(i).normal(size=2), i % 2, 1.0, np.zeros(2), False)
        for _ in range(5):
            agent.learn()
        x = np.zeros((1, 2))
        np.testing.assert_allclose(agent.q_net.forward(x), agent.target_net.forward(x))
