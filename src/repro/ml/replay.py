"""Experience replay buffer for the DQN dispatcher."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) experience."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int, state_dim: int) -> None:
        if capacity < 1 or state_dim < 1:
            raise ValueError("capacity and state_dim must be positive")
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, state_dim))
        self._dones = np.zeros(capacity, dtype=bool)
        self._size = 0
        self._head = 0

    def __len__(self) -> int:
        return self._size

    def push(self, tr: Transition) -> None:
        if tr.state.shape != (self.state_dim,) or tr.next_state.shape != (self.state_dim,):
            raise ValueError(f"states must have shape ({self.state_dim},)")
        i = self._head
        self._states[i] = tr.state
        self._actions[i] = tr.action
        self._rewards[i] = tr.reward
        self._next_states[i] = tr.next_state
        self._dones[i] = tr.done
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniformly sample a batch: (states, actions, rewards, next_states,
        dones)."""
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return (
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
            self._dones[idx],
        )

    def views(self) -> dict[str, np.ndarray]:
        """Live array views of the populated region (no copy).

        The views share memory with the buffer: the training sentinel's
        integrity screens read them in place, and the chaos harness's
        fault injectors corrupt rows through them.  Shapes follow
        ``len(self)``, so an empty buffer yields empty views.
        """
        return {name: column[: self._size] for name, column in self._columns().items()}

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "states": self._states,
            "actions": self._actions,
            "rewards": self._rewards,
            "next_states": self._next_states,
            "dones": self._dones,
        }

    # -- checkpointing --------------------------------------------------------

    def get_state(self, live_only: bool = False) -> dict[str, np.ndarray]:
        """Buffer contents as an npz-ready array dict: every slot, or with
        ``live_only`` the ``len(self)`` written rows alone (until the ring
        is full its head equals its size, so they are the leading rows)."""
        n = self._size if live_only else self.capacity
        state = {name: column[:n].copy() for name, column in self._columns().items()}
        state["meta"] = np.array(
            [self.capacity, self.state_dim, self._size, self._head], dtype=np.int64
        )
        return state

    def set_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore contents captured by :meth:`get_state`, with or without
        ``live_only``: slots past the live rows are zeroed, as they were
        before they were first written."""
        capacity, state_dim, size, head = (int(v) for v in arrays["meta"])
        if capacity != self.capacity or state_dim != self.state_dim:
            raise ValueError(
                f"buffer state is {capacity}x{state_dim}, "
                f"this buffer is {self.capacity}x{self.state_dim}"
            )
        if not (0 <= size <= capacity and 0 <= head < capacity):
            raise ValueError("buffer state has inconsistent size/head")
        for name, column in self._columns().items():
            rows = arrays[name]
            if rows.shape[1:] != column.shape[1:] or len(rows) not in (size, capacity):
                raise ValueError(
                    f"buffer {name} has shape {rows.shape} for size {size} "
                    f"of capacity {capacity}"
                )
            column[: len(rows)] = rows
            column[len(rows):] = 0
        self._size = size
        self._head = head
