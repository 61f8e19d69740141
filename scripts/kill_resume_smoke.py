"""Kill-and-resume smoke test: SIGKILL training mid-run, resume, compare.

The strongest crash-safety claim in this repo is that checkpointed
training survives an uncontrolled kill with **bit-identical** results.
This script proves it with a real SIGKILL, not a simulated one:

1. train ``EPISODES`` episodes straight through in memory (the reference
   run),
2. spawn a child process running the checkpointing loop with the
   sentinel off (``repro train --no-sentinel``) into a checkpoint
   directory, wait until the checkpoint after episode ``KILL_AFTER`` is
   committed, then SIGKILL it mid-episode,
3. resume the killed run under the supervisor (which also exercises
   quarantine if the kill tore anything) and assert the final Q-network
   weights, target weights, epsilon, learn-step count and per-episode
   service rates all match the reference exactly.

A second phase applies the same treatment to the parallel rollout
coordinator: SIGKILL the whole coordinator (workers included) mid-
campaign, resume against the same result store, and assert the merged
fingerprint is bit-identical to an uninterrupted serial run.

A third phase targets the self-healing training loop: a victim runs
``sentinel_training`` with train-mild fault injection, the parent waits
for the journal to record the first rollback recovery, SIGKILLs the
victim, resumes — and asserts the resumed recovery is bit-identical to
an *uninterrupted* faulted run.  (train-mild keeps every recovery on
the ladder's rollback rung, which makes that equivalence hold for any
kill timing.)

Exit status 0 on success, 1 on any mismatch.  CI runs this on every
push.  Usage::

    python scripts/kill_resume_smoke.py                    # all phases
    python scripts/kill_resume_smoke.py child DIR          # internal: victim
    python scripts/kill_resume_smoke.py rollout-child DIR  # internal: victim
    python scripts/kill_resume_smoke.py sentinel-child DIR # internal: victim
"""

from __future__ import annotations

import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import MobiRescueConfig, train_mobirescue
from repro.core.persistence import CHECKPOINT_PREFIX, list_checkpoints

POPULATION = 300
EPISODES = 4
KILL_AFTER = 2  # SIGKILL once the checkpoint after this episode is committed
NUM_TEAMS = 12
CFG = MobiRescueConfig(seed=0)
KILL_TIMEOUT_S = 600.0

# Rollout phase: episodes are stretched with busy-work so the SIGKILL
# reliably lands mid-campaign, and the kill fires once this many result
# cells are committed to the store.
ROLLOUT_EPISODES = 8
ROLLOUT_KILL_AFTER_CELLS = 3
ROLLOUT_SEED = 11
ROLLOUT_WORKERS = 2

# Sentinel phase: train-mild keeps every recovery on the rollback rung
# (all max_attempts=1, transient), so resumed recovery == uninterrupted
# recovery bit-for-bit no matter where the SIGKILL lands.
SENTINEL_EPISODES = 3
SENTINEL_PROFILE = "train-mild"
SENTINEL_SEED = 0  # train-mild @ seed 0 fires faults in episodes 0 and 1


def rollout_task_and_specs():
    from repro.rollouts import EpisodeSpec, SyntheticTask

    task = SyntheticTask(steps=6, state_dim=4, work_size=800)
    specs = [
        EpisodeSpec(episode_id=i, kind=task.kind, seed=ROLLOUT_SEED)
        for i in range(ROLLOUT_EPISODES)
    ]
    return task, specs


def build_dataset():
    from repro.data import build_michael_dataset

    return build_michael_dataset(population_size=POPULATION)


def run_plain_checkpointed(checkpoint_dir, scenario=None, bundle=None, supervisor=None):
    """The full training run, checkpointing as it goes, sentinel off."""
    from repro.training import supervised_sentinel_training

    if scenario is None:
        scenario, bundle = build_dataset()
    return supervised_sentinel_training(
        scenario, bundle, CFG, episodes=EPISODES, num_teams=NUM_TEAMS,
        checkpoint_dir=checkpoint_dir, supervisor=supervisor, use_sentinel=False,
    )


def run_rollout_child(store_dir: str) -> None:
    """The rollout victim: a parallel campaign writing into the store."""
    from repro.rollouts import RolloutConfig, RolloutExecutor, RolloutStore

    task, specs = rollout_task_and_specs()
    executor = RolloutExecutor(
        task,
        config=RolloutConfig(num_workers=ROLLOUT_WORKERS, beat_interval_s=0.05),
        seed=ROLLOUT_SEED,
        store=RolloutStore(pathlib.Path(store_dir)),
    )
    executor.run(specs)


def wait_and_kill_rollout(proc: subprocess.Popen, store_dir: pathlib.Path) -> int:
    """SIGKILL the coordinator once enough result cells are committed."""
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while time.monotonic() < deadline:
        cells = len(list(store_dir.glob("episode=*.json")))
        if cells >= ROLLOUT_KILL_AFTER_CELLS:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return len(list(store_dir.glob("episode=*.json")))
        if proc.poll() is not None:
            print(f"warning: rollout child finished before the kill "
                  f"(rc={proc.returncode})")
            return len(list(store_dir.glob("episode=*.json")))
        time.sleep(0.02)
    proc.kill()
    proc.wait()
    raise SystemExit(
        f"rollout child committed fewer than {ROLLOUT_KILL_AFTER_CELLS} "
        f"cells within {KILL_TIMEOUT_S:.0f}s"
    )


def rollout_phase() -> dict[str, bool]:
    """SIGKILL the rollout coordinator mid-campaign, resume, compare."""
    from repro.rollouts import (
        RolloutConfig,
        RolloutExecutor,
        RolloutStore,
        run_rollouts_serial,
    )

    task, specs = rollout_task_and_specs()
    print(f"[smoke] rollout reference: {ROLLOUT_EPISODES} episodes serial")
    reference = run_rollouts_serial(task, specs)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = pathlib.Path(tmp) / "rollout-store"
        store_dir.mkdir()
        print(f"[smoke] spawning rollout victim ({ROLLOUT_WORKERS} workers); "
              f"killing after {ROLLOUT_KILL_AFTER_CELLS} committed cells...")
        proc = subprocess.Popen(
            [sys.executable, __file__, "rollout-child", str(store_dir)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        n_cells = wait_and_kill_rollout(proc, store_dir)
        print(f"[smoke] SIGKILLed the coordinator; {n_cells} committed "
              f"result cell(s) on disk")

        print("[smoke] resuming the campaign against the same store...")
        executor = RolloutExecutor(
            task,
            config=RolloutConfig(
                num_workers=ROLLOUT_WORKERS, beat_interval_s=0.05
            ),
            seed=ROLLOUT_SEED,
            store=RolloutStore(store_dir),
        )
        resumed = executor.run(specs)
        print(f"[smoke] resumed: {resumed.completed}/{resumed.total} episodes "
              f"({resumed.from_store} from the store)")

    return {
        "rollout zero lost": resumed.zero_lost and not resumed.quarantined_ids,
        "rollout resumed from store": resumed.from_store >= 1,
        "rollout fingerprint": (
            resumed.merged.fingerprint() == reference.merged.fingerprint()
        ),
    }


def run_sentinel_victim(checkpoint_dir: str, scenario=None, bundle=None):
    """One self-healing training run with train-mild fault injection."""
    from repro.core.config import MobiRescueConfig
    from repro.faults import TrainingFaultInjector, get_train_profile
    from repro.training import sentinel_training

    if scenario is None:
        scenario, bundle = build_dataset()
    injector = TrainingFaultInjector(
        get_train_profile(SENTINEL_PROFILE), seed=SENTINEL_SEED
    )
    return sentinel_training(
        scenario,
        bundle,
        MobiRescueConfig(seed=SENTINEL_SEED),
        episodes=SENTINEL_EPISODES,
        num_teams=NUM_TEAMS,
        checkpoint_dir=checkpoint_dir,
        injector=injector,
    )


def wait_and_kill_sentinel(
    proc: subprocess.Popen, journal_path: pathlib.Path
) -> None:
    """SIGKILL the victim once its journal records the first recovery."""
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while time.monotonic() < deadline:
        if journal_path.exists():
            try:
                journal = json.loads(journal_path.read_text())
            except json.JSONDecodeError:
                journal = {}  # unreachable with atomic writes, but harmless
            if journal.get("recoveries"):
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                return
        if proc.poll() is not None:
            print(f"warning: sentinel child finished before the kill "
                  f"(rc={proc.returncode})")
            return
        time.sleep(0.02)
    proc.kill()
    proc.wait()
    raise SystemExit(
        f"sentinel child recorded no recovery within {KILL_TIMEOUT_S:.0f}s"
    )


def sentinel_phase(scenario, bundle) -> dict[str, bool]:
    """SIGKILL self-healing training mid-recovery, resume, compare."""
    print(f"[smoke] sentinel reference: {SENTINEL_EPISODES} episodes with "
          f"{SENTINEL_PROFILE} faults, uninterrupted")
    with tempfile.TemporaryDirectory() as tmp:
        ref_dir = pathlib.Path(tmp) / "sentinel-ref"
        killed_dir = pathlib.Path(tmp) / "sentinel-killed"
        killed_dir.mkdir()
        reference = run_sentinel_victim(str(ref_dir), scenario, bundle)

        print("[smoke] spawning sentinel victim; killing at the first "
              "journalled recovery...")
        proc = subprocess.Popen(
            [sys.executable, __file__, "sentinel-child", str(killed_dir)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        wait_and_kill_sentinel(proc, killed_dir / "sentinel-journal.json")

        print("[smoke] resuming the faulted run from journal + checkpoints...")
        resumed = run_sentinel_victim(str(killed_dir), scenario, bundle)

    ref_state = reference.trained.agent.get_state()
    res_state = resumed.trained.agent.get_state()
    return {
        "sentinel faults detected": bool(reference.anomalies),
        "sentinel recovery rolled back": bool(resumed.recoveries),
        "sentinel agent state": (
            set(ref_state) == set(res_state)
            and all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state)
        ),
        "sentinel service rates": (
            reference.trained.episode_service_rates
            == resumed.trained.episode_service_rates
        ),
        "sentinel anomaly trail": (
            reference.journal["anomaly_count"] == resumed.journal["anomaly_count"]
        ),
    }


def wait_and_kill(proc: subprocess.Popen, checkpoint_dir: pathlib.Path) -> int:
    """SIGKILL ``proc`` once checkpoint ``KILL_AFTER`` is committed."""
    target = checkpoint_dir / f"{CHECKPOINT_PREFIX}{KILL_AFTER:06d}" / "manifest.json"
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while time.monotonic() < deadline:
        if target.exists():
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return len(list_checkpoints(checkpoint_dir))
        if proc.poll() is not None:
            # Finished before we could kill it — still a valid (if weaker)
            # resume test; flag it so the log shows what happened.
            print(f"warning: child finished before the kill (rc={proc.returncode})")
            return len(list_checkpoints(checkpoint_dir))
        time.sleep(0.05)
    proc.kill()
    proc.wait()
    raise SystemExit(f"child produced no {target.parent.name} within "
                     f"{KILL_TIMEOUT_S:.0f}s")


def weights_equal(a, b) -> bool:
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.get_weights(), b.get_weights())
    )


def main() -> int:
    from repro.core import Supervisor

    print(f"[smoke] building dataset (population {POPULATION})...")
    scenario, bundle = build_dataset()

    with tempfile.TemporaryDirectory() as tmp:
        killed_dir = pathlib.Path(tmp) / "killed"
        killed_dir.mkdir()

        print(f"[smoke] reference run: {EPISODES} episodes straight through")
        straight = train_mobirescue(
            scenario, bundle, CFG, episodes=EPISODES, num_teams=NUM_TEAMS,
        )

        print("[smoke] spawning victim and waiting for "
              f"checkpoint {KILL_AFTER} to commit...")
        proc = subprocess.Popen(
            [sys.executable, __file__, "child", str(killed_dir)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        n_committed = wait_and_kill(proc, killed_dir)
        print(f"[smoke] SIGKILLed the victim; {n_committed} committed "
              f"checkpoint(s) on disk")

        print(f"[smoke] resuming to {EPISODES} episodes under supervision...")
        supervisor = Supervisor(name="smoke")
        result = run_plain_checkpointed(killed_dir, scenario, bundle, supervisor)
        for incident in supervisor.incidents:
            print(f"[smoke] incident [{incident.kind}] {incident.message}")
        for anomaly in result.anomalies:
            print(f"[smoke] anomaly [{anomaly['kind']}] {anomaly['detail']}")
        resumed = result.trained

        checks = {
            "q-network weights": weights_equal(straight.agent.q_net, resumed.agent.q_net),
            "target weights": weights_equal(
                straight.agent.target_net, resumed.agent.target_net
            ),
            "epsilon": straight.agent.epsilon == resumed.agent.epsilon,
            "learn steps": straight.agent.learn_steps == resumed.agent.learn_steps,
            "service rates": (
                straight.episode_service_rates == resumed.episode_service_rates
            ),
        }
    checks.update(rollout_phase())
    checks.update(sentinel_phase(scenario, bundle))

    for name, ok in checks.items():
        print(f"[smoke] {name}: {'identical' if ok else 'MISMATCH'}")
    if all(checks.values()):
        print("[smoke] PASS: kill-and-resume is bit-identical")
        return 0
    print("[smoke] FAIL: resumed run diverged from the reference")
    return 1


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "child":
        run_plain_checkpointed(sys.argv[2])
        sys.exit(0)
    if len(sys.argv) >= 3 and sys.argv[1] == "rollout-child":
        run_rollout_child(sys.argv[2])
        sys.exit(0)
    if len(sys.argv) >= 3 and sys.argv[1] == "sentinel-child":
        run_sentinel_victim(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
