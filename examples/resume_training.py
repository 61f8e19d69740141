"""Extension example — crash-safe checkpointed training and resume.

Training checkpoints after every episode through the durable artifact
layer (atomic renames, SHA-256 manifests).  This example simulates a
crash: it trains two episodes with checkpointing, "forgets" the result,
then resumes from the checkpoint directory up to four episodes and
verifies the resumed run is **bit-identical** to a straight-through
four-episode run — same Q-network weights, same epsilon, same learn-step
count, same per-episode service rates.  It then damages the latest
checkpoint and lets the supervisor recover: the corrupt checkpoint is
quarantined, journaled, and training resumes from the previous valid one.

All runs use the one checkpointing loop, ``sentinel_training``, with the
numeric-health sentinel off (``repro train --no-sentinel``); see
``examples/self_healing_training.py`` for the sentinel itself.

Run:  python examples/resume_training.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import MobiRescueConfig, RetryPolicy, Supervisor, train_mobirescue
from repro.core.persistence import list_checkpoints
from repro.data import build_michael_dataset
from repro.training import sentinel_training, supervised_sentinel_training

POPULATION = 400
EPISODES = 4
INTERRUPT_AFTER = 2
NUM_TEAMS = 12
CFG = MobiRescueConfig(seed=0)


def weights_equal(a, b) -> bool:
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.get_weights(), b.get_weights())
    )


def checkpointed(scenario, bundle, checkpoint_dir: Path, episodes: int):
    return sentinel_training(
        scenario, bundle, CFG, episodes=episodes, num_teams=NUM_TEAMS,
        checkpoint_dir=checkpoint_dir, use_sentinel=False,
    ).trained


def main() -> None:
    print(f"Building the Michael dataset (population {POPULATION})...")
    scenario, bundle = build_michael_dataset(population_size=POPULATION)

    with tempfile.TemporaryDirectory() as tmp:
        crashed_dir = Path(tmp) / "crashed"

        print(f"\n[1] Straight-through run: {EPISODES} episodes, in memory")
        straight = train_mobirescue(
            scenario, bundle, CFG, episodes=EPISODES, num_teams=NUM_TEAMS,
        )
        print(f"    service rates: "
              f"{' '.join(f'{r:.2f}' for r in straight.episode_service_rates)}")

        print(f"\n[2] 'Crashed' run: killed after episode {INTERRUPT_AFTER}")
        checkpointed(scenario, bundle, crashed_dir, INTERRUPT_AFTER)
        names = [p.name for p in list_checkpoints(crashed_dir)]
        print(f"    checkpoints on disk: {', '.join(names)}")

        print(f"\n[3] Resume to {EPISODES} episodes from {crashed_dir.name}/")
        resumed = checkpointed(scenario, bundle, crashed_dir, EPISODES)
        identical = (
            weights_equal(straight.agent.q_net, resumed.agent.q_net)
            and weights_equal(straight.agent.target_net, resumed.agent.target_net)
            and straight.agent.epsilon == resumed.agent.epsilon
            and straight.agent.learn_steps == resumed.agent.learn_steps
            and straight.episode_service_rates == resumed.episode_service_rates
        )
        print(f"    bit-identical to the straight-through run: {identical}")
        assert identical

        print("\n[4] Corrupt the latest checkpoint, recover under supervision")
        latest = list_checkpoints(crashed_dir)[-1]
        state = latest / "state.npz"
        raw = bytearray(state.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        state.write_bytes(bytes(raw))
        supervisor = Supervisor(policy=RetryPolicy(max_attempts=2), name="example")
        recovered = supervised_sentinel_training(
            scenario, bundle, CFG, checkpoint_dir=crashed_dir,
            episodes=EPISODES, num_teams=NUM_TEAMS, supervisor=supervisor,
            progress=lambda msg: print(f"    {msg}"), use_sentinel=False,
        )
        for anomaly in recovered.anomalies:
            print(f"    journaled [{anomaly['kind']}] {anomaly['detail']}")
        print(f"    quarantined: "
              f"{[p.name for p in (crashed_dir / 'quarantine').iterdir()]}")
        print(f"    recovered run matches: "
              f"{weights_equal(straight.agent.q_net, recovered.trained.agent.q_net)}")


if __name__ == "__main__":
    main()
