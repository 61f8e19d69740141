"""Pinned digests of the RL path: a trained agent and one deployed day.

The other RL goldens (``test_training_recovery``, ``test_checkpointing``)
compare two runs of the same code with each other, so a change that moves
both runs alike passes them.  These digests were recorded once and pin
the values themselves: the complete DQN training state after a short
``train_mobirescue`` on Michael, and every command the deployed
dispatcher issues over half a Florence day with online learning on.  A
reordered draw, a different rounding in the state encoding, the Q-network
or the Adam step changes them.  The checkpointing loop with the sentinel
off must land on the same agent state, and the rollout training-collect
task, which runs the same episode primitive from the pretrained head, has
its own pinned merge fingerprint.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import MobiRescueConfig
from repro.core.system import MobiRescueSystem
from repro.core.training import train_mobirescue
from repro.rollouts import EpisodeSpec, build_training_collect_task, run_rollouts_serial
from repro.sim.engine import SimulationConfig
from repro.sim.kernel import EventKernelSimulator
from repro.sim.requests import remap_to_operable, requests_from_rescues
from repro.training import sentinel_training
from repro.weather.storms import SECONDS_PER_DAY, day_index

#: SHA-256 of ``agent.get_state()`` (see :func:`state_digest`) after one
#: training episode, seed 1, 8 teams, on the 500-person Michael set.
PINNED_AGENT_STATE = "9322801e36fe9f1e192706a9ce51d1031e4521679e35a5daaca71341d5bdc90e"
#: SHA-256 of the deployed dispatcher's command log (see
#: :func:`command_digest`) over the first half of Sep 16 on Florence.
PINNED_COMMANDS = "d7b9069503f0bb1a3301571d2d0fadf4f9d64608cb9ef8c4e295b7911268ce3e"
#: Dispatch cycles in that half day, a readable companion to the digest.
PINNED_CYCLES = 145
#: ``merged.fingerprint()`` of ``run_rollouts_serial`` over two
#: training-collect episodes (seed 1, 8 teams) on the 500-person Michael set.
PINNED_COLLECT = "aa5830af32ad5dde1b9b2be49de02bd5a503aa1d81cea3c2e780a7280288a37d"


def state_digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        h.update(f"{key}:{value.dtype.str}:{value.shape};".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def command_digest(log: list[tuple[float, list[tuple[int, int | None]]]]) -> str:
    return hashlib.sha256(repr(log).encode()).hexdigest()


@pytest.fixture(scope="module")
def trained(michael_small):
    scenario, bundle = michael_small
    return train_mobirescue(
        scenario, bundle, MobiRescueConfig(seed=1), episodes=1, num_teams=8
    )


@pytest.fixture(scope="module")
def pinned_state(trained):
    # Taken before the deployment below, which keeps learning online.
    return state_digest(trained.agent.get_state())


@pytest.fixture(scope="module")
def command_log(pinned_state, trained, florence_small):
    fscen, fbundle = florence_small
    dispatcher = MobiRescueSystem(trained).deploy(fscen, fbundle)
    log: list[tuple[float, list[tuple[int, int | None]]]] = []
    dispatch = dispatcher.dispatch

    def recording(obs):
        commands = dispatch(obs)
        log.append(
            (obs.t_s, sorted((tid, c.segment_id) for tid, c in commands.items()))
        )
        return commands

    dispatcher.dispatch = recording
    day = day_index(fscen.timeline, "Sep 16")
    t0, t1 = day * SECONDS_PER_DAY, (day + 0.5) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(fbundle.rescues, t0, t1), fscen.network, fscen.flood
    )
    EventKernelSimulator(
        fscen,
        requests,
        dispatcher,
        SimulationConfig(t0_s=t0, t1_s=t1, num_teams=12, seed=0),
    ).run()
    return log


def test_trained_agent_state_is_pinned(pinned_state):
    assert pinned_state == PINNED_AGENT_STATE


def test_deployed_day_commands_are_pinned(command_log):
    assert len(command_log) == PINNED_CYCLES
    assert command_digest(command_log) == PINNED_COMMANDS


def test_checkpointing_loop_without_sentinel_is_pinned(michael_small, tmp_path):
    scenario, bundle = michael_small
    result = sentinel_training(
        scenario, bundle, MobiRescueConfig(seed=1), episodes=1, num_teams=8,
        checkpoint_dir=tmp_path, use_sentinel=False,
    )
    assert result.trained is not None
    assert state_digest(result.trained.agent.get_state()) == PINNED_AGENT_STATE


def test_training_collect_rollout_is_pinned(michael_small):
    scenario, bundle = michael_small
    task = build_training_collect_task(
        scenario, bundle, MobiRescueConfig(seed=1), num_teams=8
    )
    specs = [EpisodeSpec(i, task.kind, seed=1) for i in range(2)]
    assert run_rollouts_serial(task, specs).merged.fingerprint() == PINNED_COLLECT
