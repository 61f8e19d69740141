"""Deep Q-learning agent.

Standard DQN machinery: epsilon-greedy behaviour policy, uniform experience
replay, a slow-moving target network, and Q-updates restricted to the taken
action's output unit.  The MobiRescue dispatcher wraps one agent shared by
all rescue teams (Section IV-C4 trains a single policy from all teams'
experiences).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.ml.nn import MLP
from repro.ml.replay import ReplayBuffer, Transition


@dataclass(frozen=True)
class DQNConfig:
    state_dim: int
    num_actions: int
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    #: Multiplicative epsilon decay applied per learning step.
    epsilon_decay: float = 0.995
    buffer_capacity: int = 50_000
    batch_size: int = 64
    #: Target-network sync period, in learning steps.
    target_sync_every: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.num_actions < 1:
            raise ValueError("state_dim and num_actions must be positive")
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        if not (0.0 < self.epsilon_decay <= 1.0):
            raise ValueError("epsilon_decay must be in (0, 1]")


class DQNAgent:
    """DQN with target network and action masking."""

    def __init__(self, config: DQNConfig) -> None:
        self.config = config
        sizes = [config.state_dim, *config.hidden_sizes, config.num_actions]
        self.q_net = MLP(sizes, learning_rate=config.learning_rate, seed=config.seed)
        self.target_net = self.q_net.clone()
        self.buffer = ReplayBuffer(config.buffer_capacity, config.state_dim)
        self.rng = np.random.default_rng(config.seed)
        self.epsilon = config.epsilon_start
        self.learn_steps = 0
        self._rows = np.arange(config.batch_size)
        #: Optional per-step tap called as ``observer(agent, loss)`` after
        #: every completed :meth:`learn` update.  The agent never passes it
        #: randomness and ignores its return value, so a read-only observer
        #: (the training sentinel) cannot perturb the weight trajectory.
        self.observer: Callable[[DQNAgent, float], None] | None = None

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q(s, .) for one state."""
        return self.q_net.predict_one(state)

    def act(
        self,
        state: np.ndarray,
        valid_actions: np.ndarray | None = None,
        greedy: bool = False,
    ) -> int:
        """Epsilon-greedy action; ``valid_actions`` is a boolean mask over
        the action space (invalid actions are never selected)."""
        num = self.config.num_actions
        if valid_actions is None:
            valid_actions = np.ones(num, dtype=bool)
        if valid_actions.shape != (num,) or not valid_actions.any():
            raise ValueError("valid_actions must be a non-empty mask over actions")
        if not greedy and self.rng.random() < self.epsilon:
            choices = np.nonzero(valid_actions)[0]
            return int(self.rng.choice(choices))
        q = self.q_net.predict_one(state)
        return int(np.argmax(np.where(valid_actions, q, -np.inf)))

    def remember(
        self, state: np.ndarray, action: int, reward: float, next_state: np.ndarray, done: bool
    ) -> None:
        self.buffer.push(Transition(state, int(action), float(reward), next_state, done))

    def learn(self) -> float | None:
        """One replay-batch update; returns the loss, or ``None`` when the
        buffer is still smaller than a batch."""
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            return None
        states, actions, rewards, next_states, dones = self.buffer.sample(
            cfg.batch_size, self.rng
        )
        q_next = self.target_net.forward(next_states).max(axis=1)
        targets_a = rewards + cfg.gamma * q_next * (~dones)

        # One Q-net pass serves both the target (non-taken actions keep
        # their own value, so only the taken action's error counts) and
        # the gradient step.
        activations = self.q_net.forward_cached(states)
        target = activations[-1].copy()
        mask = np.zeros_like(target)
        target[self._rows, actions] = targets_a
        mask[self._rows, actions] = 1.0
        loss = self.q_net.train_step_cached(activations, target, output_mask=mask)

        self.learn_steps += 1
        self.epsilon = max(cfg.epsilon_end, self.epsilon * cfg.epsilon_decay)
        if self.learn_steps % cfg.target_sync_every == 0:
            self.sync_target()
        if self.observer is not None:
            self.observer(self, loss)
        return loss

    def sync_target(self) -> None:
        self.target_net.set_weights(self.q_net.get_weights())

    # -- checkpointing ----------------------------------------------------------

    def get_state(self, live_only: bool = False) -> dict[str, np.ndarray]:
        """Complete training state as an npz-ready array dict.

        Captures everything a bit-identical resume needs: Q-network weights
        plus Adam state, target-network weights, the replay buffer (every
        slot, or its live rows alone with ``live_only``), the behaviour
        policy's RNG bit-generator state, epsilon and the learn-step
        counter.
        """
        arrays: dict[str, np.ndarray] = {}
        for key, value in self.q_net.get_train_state().items():
            arrays[f"q.{key}"] = value
        for i, (w, b) in enumerate(self.target_net.get_weights()):
            arrays[f"target.w{i}"] = w
            arrays[f"target.b{i}"] = b
        for key, value in self.buffer.get_state(live_only).items():
            arrays[f"buffer.{key}"] = value
        arrays["rng_json"] = np.array([json.dumps(self.rng.bit_generator.state)])
        arrays["epsilon"] = np.array([self.epsilon])
        arrays["learn_steps"] = np.array([self.learn_steps], dtype=np.int64)
        return arrays

    def set_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore the state captured by :meth:`get_state`.

        ``arrays`` may be any mapping of the same keys — a dict or an open
        ``NpzFile``.  The agent must have the same architecture (config)
        as the one that produced the state.
        """
        self.q_net.set_train_state(
            {k[len("q."):]: arrays[k] for k in arrays.keys() if k.startswith("q.")}
        )
        weights: list[tuple[np.ndarray, np.ndarray]] = []
        i = 0
        while f"target.w{i}" in arrays:
            weights.append((arrays[f"target.w{i}"], arrays[f"target.b{i}"]))
            i += 1
        self.target_net.set_weights(weights)
        self.buffer.set_state(
            {
                k[len("buffer."):]: arrays[k]
                for k in arrays.keys()
                if k.startswith("buffer.")
            }
        )
        self.rng = restore_generator(str(arrays["rng_json"][0]))
        self.epsilon = float(arrays["epsilon"][0])
        self.learn_steps = int(arrays["learn_steps"][0])


def restore_generator(state_json: str) -> np.random.Generator:
    """Rebuild a ``numpy.random.Generator`` from its serialized
    bit-generator state (the JSON form of ``rng.bit_generator.state``)."""
    state = json.loads(state_json)
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
