"""Rollout task definitions: what one episode *is*.

A :class:`RolloutTask` turns an :class:`~repro.rollouts.spec.EpisodeSpec`
into a JSON payload, calling ``beat()`` periodically so the supervisor
can tell a slow episode from a dead worker.  The contract every task
must honour:

* the payload is a **pure function of the spec** — no worker identity,
  no wall clock, no cross-episode state (that is what makes retries and
  completion-order scrambling invisible to the merge, and what REP403
  enforces statically);
* the payload is plain JSON (lists/dicts/str/int/float/bool) so it can
  checksum, travel queues, and persist through the rollout store
  unchanged.

Three tasks ship: a :class:`SyntheticTask` for tests and smoke drills, an
:class:`EvalRolloutTask` running real dispatch simulations, and a
:class:`TrainingCollectTask` collecting DQN transitions for the shared
replay buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.rollouts.spec import EpisodeSpec, episode_rng, episode_sim_seed

#: The heartbeat callback handed to ``run_episode``.
Beat = Callable[[], None]


@runtime_checkable
class RolloutTask(Protocol):
    """One episode family the executor knows how to run."""

    @property
    def name(self) -> str: ...

    @property
    def kind(self) -> str: ...

    def build_context(self) -> Any:
        """Heavy shared state, built once in the coordinator.

        Workers inherit the context copy-on-write through ``fork``; it is
        never pickled or sent over a queue.
        """
        ...

    def run_episode(
        self, context: Any, spec: EpisodeSpec, beat: Beat
    ) -> dict[str, Any]:
        """Run one episode; call ``beat()`` at least once per work slice."""
        ...


# -- synthetic -----------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    """A cheap, deterministic stand-in episode for tests and smoke drills.

    Each episode runs ``steps`` slices of small matrix work (so episodes
    take real, tunable time) and emits summary statistics plus a short
    transition list — enough surface to exercise merge, store, chaos and
    kill-resume paths without building a city.
    """

    steps: int = 5
    state_dim: int = 4
    work_size: int = 0

    @property
    def name(self) -> str:
        return "synthetic"

    @property
    def kind(self) -> str:
        return "synthetic"

    def build_context(self) -> Any:
        return None

    def run_episode(
        self, context: Any, spec: EpisodeSpec, beat: Beat
    ) -> dict[str, Any]:
        rng = episode_rng(spec)
        total = 0.0
        transitions: list[list[Any]] = []
        state = [float(x) for x in rng.random(self.state_dim)]
        for step in range(self.steps):
            beat()
            if self.work_size > 0:
                # Busy work to stretch episode duration for timing tests;
                # its result folds into the payload so it cannot be elided.
                m = rng.random((self.work_size, self.work_size))
                total += float(np.linalg.norm(m @ m))
            else:
                total += float(rng.random())
            next_state = [float(x) for x in rng.random(self.state_dim)]
            transitions.append(
                [
                    state,
                    int(rng.integers(0, 4)),
                    float(rng.random()),
                    next_state,
                    bool(step == self.steps - 1),
                ]
            )
            state = next_state
        return {
            "steps": self.steps,
            "total": total,
            "transitions": transitions,
        }


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalRolloutTask:
    """Dispatch-simulation episodes over one fixed scenario window.

    Every episode simulates the same request set under a different
    derived simulation seed (team placement etc.), the unit the eval
    harnesses fan out.  The worker beats once per dispatch cycle through
    the engine's ``on_cycle`` hook, so a mid-episode death is detected
    within one cycle.
    """

    scenario: Any
    requests: tuple[Any, ...]
    t0_s: float
    t1_s: float
    num_teams: int = 10

    @property
    def name(self) -> str:
        return "eval"

    @property
    def kind(self) -> str:
        return "eval"

    def build_context(self) -> Any:
        return None

    def run_episode(
        self, context: Any, spec: EpisodeSpec, beat: Beat
    ) -> dict[str, Any]:
        from repro.dispatch.nearest import NearestDispatcher
        from repro.sim.engine import SimulationConfig
        from repro.sim.kernel import EventKernelSimulator
        from repro.sim.metrics import SimulationMetrics

        sim_seed = episode_sim_seed(spec)
        config = SimulationConfig(
            t0_s=self.t0_s,
            t1_s=self.t1_s,
            num_teams=self.num_teams,
            seed=sim_seed,
        )
        sim = EventKernelSimulator(
            self.scenario,
            list(self.requests),
            NearestDispatcher(),
            config,
            on_cycle=lambda i, t, ran: beat(),
        )
        result = sim.run()
        metrics = SimulationMetrics(result)
        delays = metrics.driving_delays()
        timeliness = metrics.timeliness_values()
        return {
            "sim_seed": sim_seed,
            "requests": len(self.requests),
            "served": len(result.pickups),
            "timely": metrics.total_timely_served,
            "delivered": metrics.delivered_count(),
            "service_rate": metrics.service_rate,
            "median_delay_s": float(np.median(delays)) if len(delays) else 0.0,
            "mean_timeliness_s": (
                float(np.mean(timeliness)) if len(timeliness) else 0.0
            ),
        }


# -- training collection -------------------------------------------------------


@dataclass(frozen=True)
class TrainingCollectTask:
    """Independent DQN experience-collection episodes.

    Serial online training threads one mutating agent through every
    episode, which no parallel schedule can reproduce bit-identically.
    The parallelizable unit is therefore the *collection episode*: each
    episode restores a fresh agent from the same pristine post-pretrain
    state, runs one exploration day, and ships the transitions it
    gathered.  Merging feeds the shared replay in episode-id order, so
    the merged buffer is identical however episodes were scheduled — the
    serial reference is this same collect-then-merge loop run in-process
    (see :func:`repro.rollouts.executor.run_rollouts_serial`).
    """

    scenario: Any
    bundle: Any
    config: Any
    agent_state: dict[str, np.ndarray]
    num_teams: int = 40
    team_capacity: int = 5

    @property
    def name(self) -> str:
        return "train-collect"

    @property
    def kind(self) -> str:
        return "train"

    def build_context(self) -> Any:
        """Stage-1 products: fitted predictor, feed and flooded days."""
        from repro.core.training import prepare_stage1

        return prepare_stage1(self.scenario, self.bundle, self.config)

    def run_episode(
        self, context: Any, spec: EpisodeSpec, beat: Beat
    ) -> dict[str, Any]:
        from repro.core.rl_dispatcher import make_agent
        from repro.core.training import TrainingSetup, run_training_episode
        from repro.rollouts.merge import drain_transitions
        from repro.training.health import (
            SentinelConfig,
            TrainingAnomalyError,
            TrainingSentinel,
        )

        # Fresh agent from the pristine shared state: episode results
        # depend only on the spec, never on sibling episodes.
        agent = make_agent(self.config)
        agent.set_state(self.agent_state)
        predictor, feed, flooded_days = context
        setup = TrainingSetup(self.config, predictor, feed, agent, flooded_days)
        # The numeric-health sentinel screens every learn step; it only
        # ever *reads* agent state, so collection is bit-identical with
        # or without it.  The serial reference runs this same task, so
        # both sides raise (and quarantine) identically.
        sentinel = TrainingSentinel(SentinelConfig())
        sentinel.begin_attempt(spec.episode_id, 0)
        agent.observer = sentinel.observe
        outcome = run_training_episode(
            self.scenario, self.bundle, setup, spec.episode_id,
            num_teams=self.num_teams,
            team_capacity=self.team_capacity,
            sim_seed=episode_sim_seed(spec),
            on_cycle=lambda i, t, ran: beat(),
        )
        if not outcome.requests:
            return {"day": outcome.day, "requests": 0, "service_rate": 0.0,
                    "transitions": []}
        sentinel.screen_params(agent)
        sentinel.screen_replay(agent.buffer)
        anomalies = sentinel.drain()
        if anomalies:
            raise TrainingAnomalyError(anomalies)
        return {
            "day": outcome.day,
            "requests": outcome.requests,
            "served": outcome.served,
            "service_rate": outcome.service_rate,
            "transitions": drain_transitions(agent.buffer),
        }


def build_training_collect_task(
    scenario: Any,
    bundle: Any,
    config: Any = None,
    num_teams: int = 40,
    team_capacity: int = 5,
) -> TrainingCollectTask:
    """Prepare a collection task: pretrain once, freeze the pristine state.

    The agent is :func:`repro.core.training.pretrained_agent`, the head of
    every fresh training run, so collected experience matches what
    episode 0 of serial training would see.
    """
    from repro.core.config import MobiRescueConfig
    from repro.core.training import pretrained_agent

    cfg = config or MobiRescueConfig()
    return TrainingCollectTask(
        scenario=scenario,
        bundle=bundle,
        config=cfg,
        agent_state=pretrained_agent(cfg).get_state(),
        num_teams=num_teams,
        team_capacity=team_capacity,
    )
