"""Offline training of MobiRescue on a previous disaster.

Section V-B: the SVM and RL models are trained on Hurricane Michael data
and evaluated on Florence.  Training runs the dispatching simulator over
Michael's flooded days with the dispatcher in exploration mode, feeding
every team's per-cycle transition into the shared replay buffer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # circular at runtime: persistence imports this module
    from repro.core.persistence import TrainingCheckpoint
    from repro.mobility.mapmatch import MatchedTrajectories

from repro.core.config import MobiRescueConfig
from repro.core.positions import PopulationFeed
from repro.core.predictor import RequestPredictor, build_training_set
from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent
from repro.data.charlotte import CharlotteScenario
from repro.mobility.cleaning import clean_trace
from repro.mobility.generator import TraceBundle
from repro.mobility.mapmatch import map_match
from repro.ml.dqn import DQNAgent
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.weather.storms import SECONDS_PER_DAY


@dataclass
class TrainedMobiRescue:
    """Artifacts of offline training."""

    agent: DQNAgent
    predictor: RequestPredictor
    config: MobiRescueConfig
    episodes_run: int
    episode_service_rates: list[float]


#: Called-in demand of a pretraining candidate, drawn uniformly: the same
#: stream as ``rng.choice`` over the list, without its array round trip.
_PENDING_DRAWS = (0.0, 0.0, 1.0, 2.0, 5.0)


def pretrain_agent(
    agent: DQNAgent,
    config: MobiRescueConfig,
    samples: int = 4_096,
    steps: int = 1_200,
    batch_size: int = 128,
    pending_hit_rate: float = 0.9,
    predicted_hit_rate: float = 0.1,
) -> None:
    """Warm-start the Q-network on the myopic value of Eq. 5.

    Ground-truth rescues are rare, so a cold DQN sees almost no positive
    reward before exploration decays and collapses to the all-depot policy.
    We therefore regress Q(s, a) onto the one-step expected reward of each
    candidate — ``alpha * expected pickups - beta * travel - gamma`` with
    conservative hit-rate priors for called-in vs merely predicted demand —
    and let the subsequent episodes (and online training) correct the
    priors from experience.  The depot action anchors at zero.
    """
    from repro.core import state as state_mod

    rng = np.random.default_rng(config.seed)
    k = config.num_candidates
    f = state_mod.FEATURES_PER_CANDIDATE
    x = np.zeros((samples, config.state_dim))
    y = np.zeros((samples, config.num_actions))
    for i in range(samples):
        n_cands = int(rng.integers(0, k + 1))
        cap = float(rng.integers(1, 6))
        x[i, f * k] = cap / 5.0
        x[i, f * k + 1] = rng.random()
        x[i, f * k + 2] = rng.random()
        for j in range(k):
            if j >= n_cands:
                # Padded slots: the mask forbids them; target 0 keeps the
                # regression well-conditioned.
                continue
            pending = _PENDING_DRAWS[int(rng.integers(0, len(_PENDING_DRAWS)))]
            predicted = float(rng.uniform(0, 10))
            tt = float(rng.uniform(30.0, 3_600.0))
            x[i, f * j] = min(pending, state_mod.DEMAND_SCALE) / state_mod.DEMAND_SCALE
            x[i, f * j + 1] = (
                min(predicted, state_mod.DEMAND_SCALE) / state_mod.DEMAND_SCALE
            )
            x[i, f * j + 2] = min(tt, 2 * state_mod.TIME_SCALE) / state_mod.TIME_SCALE
            expected = min(
                pending * pending_hit_rate + predicted * predicted_hit_rate, cap
            )
            y[i, j] = (
                config.alpha * expected
                - config.beta * tt / 3_600.0
                - config.gamma
            )
    for _ in range(steps):
        idx = rng.integers(0, samples, batch_size)
        agent.q_net.train_step(x[idx], y[idx])
    agent.sync_target()


def _deployment_pipeline(
    scenario: CharlotteScenario, bundle: TraceBundle
) -> "MatchedTrajectories":
    """Stage-1 products shared by fresh and resumed training (deterministic
    for a given scenario/bundle)."""
    clean, _ = clean_trace(
        bundle.trace, scenario.partition.width_m, scenario.partition.height_m
    )
    matched = map_match(clean, scenario.network)
    return matched


def _flooded_days(bundle: TraceBundle) -> list[int]:
    # Episodes cycle over the storm's flooded days (where requests live).
    days = sorted({int(r.request_time_s // SECONDS_PER_DAY) for r in bundle.rescues})
    if not days:
        raise ValueError("training storm produced no rescue requests")
    return days


@dataclass
class TrainingSetup:
    """Everything an episode needs, fresh or restored.

    The in-memory loop of :func:`train_mobirescue`, the checkpointing loop
    in :mod:`repro.training` and the rollout collect task all drive
    episodes through a setup and the same :func:`run_training_episode`,
    which is what makes their fault-free trajectories bit-identical by
    construction.
    """

    cfg: MobiRescueConfig
    predictor: RequestPredictor
    feed: PopulationFeed
    agent: DQNAgent
    flooded_days: list[int]

    def trained(self, service_rates: list[float]) -> TrainedMobiRescue:
        return TrainedMobiRescue(
            agent=self.agent,
            predictor=self.predictor,
            config=self.cfg,
            episodes_run=len(service_rates),
            episode_service_rates=service_rates,
        )


def prepare_stage1(
    scenario: CharlotteScenario, bundle: TraceBundle, cfg: MobiRescueConfig
) -> tuple[RequestPredictor, PopulationFeed, list[int]]:
    """Stages 1-2 on the training storm: the fitted SVM request predictor,
    the position feed of the cleaned, map-matched trace and the flooded
    days the episodes cycle over."""
    matched = _deployment_pipeline(scenario, bundle)
    training_set = build_training_set(
        scenario,
        bundle,
        matched=matched,
        negatives_per_positive=cfg.negatives_per_positive,
        seed=cfg.seed,
    )
    predictor = RequestPredictor(
        scenario, kernel=cfg.svm_kernel, c=cfg.svm_c, gamma=cfg.svm_gamma, seed=cfg.seed
    ).fit(training_set)
    return predictor, PopulationFeed(matched), _flooded_days(bundle)


def pretrained_agent(cfg: MobiRescueConfig) -> DQNAgent:
    """A fresh DQN warm-started by :func:`pretrain_agent`."""
    agent = make_agent(cfg)
    pretrain_agent(agent, cfg)
    # Pretraining already encodes a sensible policy; exploration refines it
    # rather than drowning it.
    agent.epsilon = 0.3
    return agent


def prepare_training(
    scenario: CharlotteScenario,
    bundle: TraceBundle,
    config: MobiRescueConfig | None = None,
) -> TrainingSetup:
    """Stage-1 pipeline + model construction for a fresh training run."""
    cfg = config or MobiRescueConfig()
    predictor, feed, days = prepare_stage1(scenario, bundle, cfg)
    return TrainingSetup(cfg, predictor, feed, pretrained_agent(cfg), days)


def setup_from_checkpoint(
    checkpoint: "TrainingCheckpoint",
    scenario: CharlotteScenario,
    bundle: TraceBundle,
) -> TrainingSetup:
    """Rebuild a :class:`TrainingSetup` from a committed checkpoint."""
    # Imported lazily: persistence depends on this module for
    # TrainedMobiRescue, so a top-level import would be circular.
    from repro.core import persistence

    cfg = checkpoint.config
    matched = _deployment_pipeline(scenario, bundle)
    predictor = persistence.restore_predictor(checkpoint, scenario)
    feed = PopulationFeed(matched)
    agent = make_agent(cfg)
    agent.set_state(checkpoint.agent_state)
    return TrainingSetup(cfg, predictor, feed, agent, _flooded_days(bundle))


@dataclass(frozen=True)
class EpisodeOutcome:
    """What one training episode served on which flooded day."""

    day: int
    requests: int
    served: int

    @property
    def service_rate(self) -> float | None:
        """``None`` when the day produced no operable requests."""
        return self.served / self.requests if self.requests else None


def run_training_episode(
    scenario: CharlotteScenario,
    bundle: TraceBundle,
    setup: TrainingSetup,
    ep: int,
    *,
    num_teams: int,
    team_capacity: int,
    sim_seed: int | None = None,
    on_cycle: Callable[[int, float, bool], None] | None = None,
) -> EpisodeOutcome:
    """One exploration episode over flooded day ``ep`` (cyclically).

    The simulator is seeded ``sim_seed``, by default ``cfg.seed + ep``;
    ``on_cycle`` is handed to it unchanged.  A day with no operable
    requests runs nothing and consumes no training randomness at all.
    """
    cfg = setup.cfg
    day = setup.flooded_days[ep % len(setup.flooded_days)]
    t0, t1 = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(bundle.rescues, t0, t1),
        scenario.network,
        scenario.flood,
    )
    if not requests:
        return EpisodeOutcome(day, 0, 0)
    dispatcher = MobiRescueDispatcher(
        scenario, setup.predictor, setup.feed, setup.agent, cfg, training=True
    )
    sim = EventKernelSimulator(
        scenario,
        requests,
        dispatcher,
        SimulationConfig(
            t0_s=t0,
            t1_s=t1,
            num_teams=num_teams,
            team_capacity=team_capacity,
            seed=cfg.seed + ep if sim_seed is None else sim_seed,
        ),
        on_cycle=on_cycle,
    )
    result = sim.run()
    final_pickups: dict[int, int] = defaultdict(int)
    for p in result.pickups:
        final_pickups[p.team_id] += 1
    dispatcher.finish_episode(dict(final_pickups))
    return EpisodeOutcome(day, len(requests), len(result.pickups))


def train_mobirescue(
    scenario: CharlotteScenario,
    bundle: TraceBundle,
    config: MobiRescueConfig | None = None,
    episodes: int = 6,
    num_teams: int = 40,
    team_capacity: int = 5,
) -> TrainedMobiRescue:
    """Train the SVM predictor and DQN policy on a training storm, in memory.

    Every source of randomness lives either in the per-episode simulator
    (seeded ``cfg.seed + ep``, rebuilt each episode) or in the agent.  The
    checkpointing, resumable driver is
    :func:`repro.training.sentinel_training`; a fault-free run of it
    produces models bit-identical to this loop's.
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    setup = prepare_training(scenario, bundle, config)
    service_rates: list[float] = []
    for ep in range(episodes):
        rate = run_training_episode(
            scenario, bundle, setup, ep,
            num_teams=num_teams, team_capacity=team_capacity,
        ).service_rate
        if rate is not None:
            service_rates.append(rate)
    return setup.trained(service_rates)
