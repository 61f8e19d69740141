"""The fault-tolerant parallel rollout executor.

Topology: the coordinator owns N forked worker processes, each with a
*private* task queue and message queue (a worker killed mid-``put`` can
corrupt only its own channel).  Episode specs fan out to idle workers;
heartbeats, results and typed errors flow back.  A
:class:`RolloutSupervisor` — a heartbeat state machine over worker
processes — watches heartbeats on an injectable clock:

* a worker whose beats stop (crash, stall, livelock) is killed and its
  in-flight episode requeued;
* failed attempts retry with the PR 2 :class:`~repro.core.runner`
  backoff policy, jittered by an episode-keyed stream (never by worker
  or wall-clock identity);
* an episode that kills its worker ``kill_quarantine_threshold`` times
  is a *poison episode*: it is quarantined to a bounded ring with a
  full incident record instead of eating the whole worker pool;
* when workers keep dying past the restart budget the executor degrades
  gracefully: it stops forking and finishes the remaining episodes
  serially in-process rather than failing the campaign.

Determinism contract: an episode's payload is a pure function of its
spec, results merge through order-insensitive sorted folds, and
completed episodes checkpoint through the PR 2 artifact layer — so a
parallel run is bit-identical to the serial path regardless of worker
count, completion order, mid-run deaths, or a SIGKILL of the
coordinator itself (resume re-reads the store and re-runs only the
missing episodes).
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.runner import RetryPolicy
from repro.rollouts.merge import MergedRollouts, merge_results
from repro.rollouts.spec import (
    CorruptResultError,
    EpisodeSpec,
    backoff_rng,
    unwrap_result,
    wrap_result,
)

if TYPE_CHECKING:
    import multiprocessing

    from repro.faults.models import WorkerFaultInjector
    from repro.rollouts.store import RolloutStore
    from repro.rollouts.tasks import RolloutTask

logger = logging.getLogger("repro.rollouts")

#: The executor's default clock is injected, never called inline — the
#: REP403 gate bans wall-clock *calls* in this package, which makes
#: passing a reference the one sanctioned pattern (tests inject
#: :class:`~repro.service.deadline.ManualClock`).
_DEFAULT_CLOCK = time.monotonic


@dataclass(frozen=True)
class RolloutConfig:
    """Executor tuning knobs; the defaults suit real campaigns."""

    num_workers: int = 2
    heartbeat_timeout_s: float = 30.0
    beat_interval_s: float = 0.2
    poll_interval_s: float = 0.01
    kill_quarantine_threshold: int = 2
    max_worker_restarts: int = 8
    max_poison: int = 16
    max_incidents: int = 256
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=4, base_delay_s=0.05, max_delay_s=1.0
        )
    )
    join_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be positive")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if self.beat_interval_s <= 0:
            raise ValueError("beat_interval_s must be positive")
        if self.beat_interval_s >= self.heartbeat_timeout_s:
            raise ValueError("beat_interval_s must be below heartbeat_timeout_s")
        if self.kill_quarantine_threshold < 1:
            raise ValueError("kill_quarantine_threshold must be positive")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")
        if self.max_poison < 1 or self.max_incidents < 1:
            raise ValueError("ring bounds must be positive")


@dataclass(frozen=True)
class RolloutIncident:
    """One recorded supervision event (bounded ring, oldest dropped)."""

    kind: str
    message: str
    t_s: float
    episode_id: int | None = None
    worker_id: int | None = None

    def as_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "t_s": self.t_s,
            "episode_id": self.episode_id,
            "worker_id": self.worker_id,
        }


@dataclass(frozen=True)
class PoisonedEpisode:
    """A quarantined episode and the full story of why."""

    episode_id: int
    kills: int
    attempts: int
    reasons: tuple[str, ...]

    def as_json(self) -> dict[str, Any]:
        return {
            "episode_id": self.episode_id,
            "kills": self.kills,
            "attempts": self.attempts,
            "reasons": list(self.reasons),
        }


@dataclass
class _WorkerWatch:
    """Supervisor-side view of one live worker."""

    worker_id: int
    last_beat_s: float
    inflight: tuple[int, int] | None = None  # (episode_id, attempt)


class RolloutSupervisor:
    """Heartbeat watchdog and incident ledger for the worker pool.

    Pure bookkeeping on an injectable clock — no processes, no queues —
    so the state machine is unit-testable with
    :class:`~repro.service.deadline.ManualClock` and reusable by any
    executor shape.
    """

    def __init__(
        self,
        heartbeat_timeout_s: float,
        clock: Callable[[], float],
        max_incidents: int = 256,
    ) -> None:
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._clock = clock
        self._watch: dict[int, _WorkerWatch] = {}
        self._incidents: deque[RolloutIncident] = deque(maxlen=max_incidents)
        self.incidents_dropped = 0
        self.deaths = 0

    # -- lifecycle -------------------------------------------------------------

    def on_spawn(self, worker_id: int) -> None:
        self._watch[worker_id] = _WorkerWatch(
            worker_id=worker_id, last_beat_s=self._clock()
        )

    def on_beat(self, worker_id: int) -> None:
        watch = self._watch.get(worker_id)
        if watch is not None:
            watch.last_beat_s = self._clock()

    def on_assign(self, worker_id: int, episode_id: int, attempt: int) -> None:
        watch = self._watch[worker_id]
        watch.inflight = (episode_id, attempt)
        # An assignment counts as contact: the timeout clock restarts.
        watch.last_beat_s = self._clock()

    def on_complete(self, worker_id: int) -> None:
        watch = self._watch.get(worker_id)
        if watch is not None:
            watch.inflight = None
            watch.last_beat_s = self._clock()

    def inflight(self, worker_id: int) -> tuple[int, int] | None:
        watch = self._watch.get(worker_id)
        return watch.inflight if watch is not None else None

    def idle_workers(self) -> list[int]:
        return sorted(
            w.worker_id for w in self._watch.values() if w.inflight is None
        )

    def live_workers(self) -> list[int]:
        return sorted(self._watch)

    # -- failure detection -----------------------------------------------------

    def overdue(self) -> list[int]:
        """Workers whose last contact is older than the timeout."""
        now = self._clock()
        return sorted(
            w.worker_id
            for w in self._watch.values()
            if now - w.last_beat_s > self.heartbeat_timeout_s
        )

    def on_death(self, worker_id: int, reason: str) -> tuple[int, int] | None:
        """Retire a dead worker; return its in-flight (episode, attempt)."""
        watch = self._watch.pop(worker_id, None)
        inflight = watch.inflight if watch is not None else None
        self.deaths += 1
        self.record(
            "worker_death",
            reason,
            episode_id=inflight[0] if inflight else None,
            worker_id=worker_id,
        )
        return inflight

    # -- incidents -------------------------------------------------------------

    def record(
        self,
        kind: str,
        message: str,
        episode_id: int | None = None,
        worker_id: int | None = None,
    ) -> None:
        if len(self._incidents) == self._incidents.maxlen:
            self.incidents_dropped += 1
        self._incidents.append(
            RolloutIncident(
                kind=kind,
                message=message,
                t_s=self._clock(),
                episode_id=episode_id,
                worker_id=worker_id,
            )
        )

    @property
    def incidents(self) -> tuple[RolloutIncident, ...]:
        return tuple(self._incidents)


@dataclass
class _EpisodeState:
    """Coordinator-side retry/quarantine bookkeeping for one episode."""

    spec: EpisodeSpec
    attempts: int = 0
    kills: int = 0
    reasons: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RolloutReport:
    """Everything a campaign run produced, merged and accounted for."""

    merged: MergedRollouts
    total: int
    completed: int
    from_store: int
    quarantined: tuple[PoisonedEpisode, ...]
    quarantined_ids: tuple[int, ...]
    poison_dropped: int
    incidents: tuple[RolloutIncident, ...]
    incidents_dropped: int
    worker_deaths: int
    workers_spawned: int
    degraded: bool
    num_workers: int

    @property
    def zero_lost(self) -> bool:
        """Every episode is either merged or quarantined-with-a-record."""
        return self.completed + len(self.quarantined_ids) == self.total

    def summary(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "completed": self.completed,
            "from_store": self.from_store,
            "quarantined": [p.as_json() for p in self.quarantined],
            "quarantined_ids": list(self.quarantined_ids),
            "poison_dropped": self.poison_dropped,
            "incidents": [i.as_json() for i in self.incidents],
            "incidents_dropped": self.incidents_dropped,
            "worker_deaths": self.worker_deaths,
            "workers_spawned": self.workers_spawned,
            "degraded": self.degraded,
            "num_workers": self.num_workers,
            "zero_lost": self.zero_lost,
            "fingerprint": self.merged.fingerprint(),
        }


def _validate_specs(specs: Sequence[EpisodeSpec]) -> None:
    seen: set[int] = set()
    for spec in specs:
        if spec.episode_id in seen:
            raise ValueError(f"duplicate episode_id {spec.episode_id}")
        seen.add(spec.episode_id)


class RolloutExecutor:
    """Fan episode specs across supervised worker processes and merge."""

    def __init__(
        self,
        task: "RolloutTask",
        config: RolloutConfig | None = None,
        seed: int = 0,
        fault_injector: "WorkerFaultInjector | None" = None,
        clock: Callable[[], float] | None = None,
        store: "RolloutStore | None" = None,
        mp_context: str = "fork",
    ) -> None:
        self.task = task
        self.config = config or RolloutConfig()
        self.seed = int(seed)
        self.fault_injector = fault_injector
        self._clock = clock if clock is not None else _DEFAULT_CLOCK
        self.store = store
        self._mp_context = mp_context

    # -- the campaign ----------------------------------------------------------

    def run(self, specs: Sequence[EpisodeSpec]) -> RolloutReport:
        import multiprocessing
        import os

        cfg = self.config
        specs = list(specs)
        _validate_specs(specs)
        supervisor = RolloutSupervisor(
            cfg.heartbeat_timeout_s, self._clock, cfg.max_incidents
        )
        states = {s.episode_id: _EpisodeState(spec=s) for s in specs}
        done: dict[int, Any] = {}  # episode_id -> verified envelope
        quarantined: dict[int, PoisonedEpisode] = {}
        poison_ring: deque[PoisonedEpisode] = deque(maxlen=cfg.max_poison)
        poison_dropped = 0
        from_store = 0

        # Resume: everything with a valid store cell is already done.
        if self.store is not None:
            for spec in specs:
                envelope = self.store.get(spec)
                if envelope is not None:
                    done[spec.episode_id] = envelope
                    from_store += 1
        if from_store:
            supervisor.record(
                "resume", f"{from_store} episodes restored from store"
            )

        #: (ready_at_s, episode_id) min-heap of runnable attempts.
        ready: list[tuple[float, int]] = []
        now = self._clock()
        for spec in specs:
            if spec.episode_id not in done:
                heapq.heappush(ready, (now, spec.episode_id))

        ctx = multiprocessing.get_context(self._mp_context)
        context = self.task.build_context()
        parent_pid = os.getpid()  # repro: allow-worker-ident -- orphan-detection anchor only; never flows into seeds or results

        workers: dict[int, Any] = {}  # worker_id -> (proc, task_q, msg_q)
        next_worker_id = 0
        workers_spawned = 0
        degraded = False

        def outstanding() -> int:
            return len(states) - len(done) - len(quarantined)

        def quarantine(state: _EpisodeState, reason: str) -> None:
            nonlocal poison_dropped
            state.reasons.append(reason)
            record = PoisonedEpisode(
                episode_id=state.spec.episode_id,
                kills=state.kills,
                attempts=state.attempts,
                reasons=tuple(state.reasons),
            )
            quarantined[state.spec.episode_id] = record
            if len(poison_ring) == poison_ring.maxlen:
                poison_dropped += 1
            poison_ring.append(record)
            supervisor.record(
                "quarantine", reason, episode_id=state.spec.episode_id
            )

        def schedule_retry(state: _EpisodeState, reason: str) -> None:
            """Retry, or quarantine when the episode is out of budget."""
            eid = state.spec.episode_id
            state.reasons.append(reason)
            if state.kills >= cfg.kill_quarantine_threshold:
                quarantine(state, f"killed its worker {state.kills} times")
                return
            if state.attempts >= cfg.retry.max_attempts:
                quarantine(
                    state, f"retries exhausted after {state.attempts} attempts"
                )
                return
            attempt = state.attempts - 1  # the attempt that just failed
            delay = cfg.retry.delay_s(
                max(attempt, 0), backoff_rng(self.seed, eid, max(attempt, 0))
            )
            heapq.heappush(ready, (self._clock() + delay, eid))

        def spawn_worker() -> None:
            nonlocal next_worker_id, workers_spawned
            worker_id = next_worker_id
            next_worker_id += 1
            task_q: Any = ctx.Queue()
            msg_q: Any = ctx.Queue()
            proc = ctx.Process(
                target=_worker_entry,
                args=(
                    worker_id,
                    self.task,
                    context,
                    task_q,
                    msg_q,
                    self.fault_injector,
                    cfg.beat_interval_s,
                    parent_pid,
                ),
                daemon=True,
            )
            proc.start()
            workers[worker_id] = (proc, task_q, msg_q)
            workers_spawned += 1
            supervisor.on_spawn(worker_id)

        def retire_worker(worker_id: int, reason: str) -> None:
            """Kill/reap one worker and requeue whatever it was running."""
            proc, task_q, msg_q = workers.pop(worker_id)
            if proc.is_alive():
                proc.kill()
            proc.join(cfg.join_timeout_s)
            # A killed worker's queues may hold half-written data; drop
            # them without blocking on their feeder threads.
            for q in (task_q, msg_q):
                q.close()
                q.cancel_join_thread()
            inflight = supervisor.on_death(worker_id, reason)
            if inflight is not None:
                eid, _attempt = inflight
                if eid not in done and eid not in quarantined:
                    state = states[eid]
                    state.kills += 1
                    schedule_retry(state, reason)

        def commit(eid: int, envelope: dict[str, Any]) -> None:
            done[eid] = envelope
            if self.store is not None:
                self.store.put(states[eid].spec, envelope)

        def handle_message(worker_id: int, msg: tuple[Any, ...]) -> None:
            kind = msg[0]
            supervisor.on_beat(worker_id)
            if kind == "beat":
                return
            if kind == "result":
                _, eid, attempt, envelope = msg
                if supervisor.inflight(worker_id) == (eid, attempt):
                    supervisor.on_complete(worker_id)
                if eid in done or eid in quarantined:
                    return  # late duplicate from a requeued attempt
                try:
                    unwrap_result(envelope)
                except CorruptResultError as exc:
                    supervisor.record(
                        "corrupt_result", str(exc),
                        episode_id=eid, worker_id=worker_id,
                    )
                    schedule_retry(states[eid], f"corrupt result: {exc}")
                    return
                commit(eid, envelope)
                return
            if kind == "error":
                _, eid, attempt, detail = msg
                if supervisor.inflight(worker_id) == (eid, attempt):
                    supervisor.on_complete(worker_id)
                if eid in done or eid in quarantined:
                    return
                supervisor.record(
                    "episode_error", detail, episode_id=eid, worker_id=worker_id
                )
                schedule_retry(states[eid], detail)

        for _ in range(min(cfg.num_workers, outstanding())):
            spawn_worker()

        try:
            while outstanding() > 0 and workers:
                # 1. Drain every worker's message channel.
                for worker_id in list(workers):
                    _proc, _task_q, msg_q = workers[worker_id]
                    while True:
                        try:
                            msg = msg_q.get_nowait()
                        except Exception:  # repro: allow-broad-except -- Empty ends the drain; a dead worker's broken channel is handled by liveness checks below
                            break
                        handle_message(worker_id, msg)

                # 2. Reap workers whose process died underneath us.
                for worker_id in list(workers):
                    proc = workers[worker_id][0]
                    if not proc.is_alive():
                        retire_worker(
                            worker_id,
                            f"worker process exited (code {proc.exitcode})",
                        )

                # 3. Kill workers that stopped beating (stall/livelock).
                for worker_id in supervisor.overdue():
                    if worker_id in workers:
                        retire_worker(worker_id, "heartbeat timeout")

                # 4. Refill the pool, unless the restart budget is spent.
                while (
                    len(workers) < min(cfg.num_workers, outstanding())
                    and supervisor.deaths <= cfg.max_worker_restarts
                    and outstanding() > 0
                ):
                    spawn_worker()
                if not workers and outstanding() > 0:
                    degraded = True
                    supervisor.record(
                        "degraded",
                        "worker restart budget exhausted; "
                        f"finishing {outstanding()} episodes serially",
                    )
                    break

                # 5. Hand ready episodes to idle workers.
                idle = deque(
                    w for w in supervisor.idle_workers() if w in workers
                )
                now = self._clock()
                while idle and ready and ready[0][0] <= now:
                    _ready_at, eid = heapq.heappop(ready)
                    if eid in done or eid in quarantined:
                        continue
                    worker_id = idle.popleft()
                    state = states[eid]
                    attempt = state.attempts
                    state.attempts += 1
                    supervisor.on_assign(worker_id, eid, attempt)
                    workers[worker_id][1].put((state.spec, attempt))

                time.sleep(cfg.poll_interval_s)
        finally:
            for worker_id in list(workers):
                proc, task_q, msg_q = workers.pop(worker_id)
                try:
                    task_q.put(None)
                except Exception:  # repro: allow-broad-except -- a broken channel just means the worker is already gone
                    pass
                proc.join(cfg.join_timeout_s)
                if proc.is_alive():
                    proc.kill()
                    proc.join(cfg.join_timeout_s)
                for q in (task_q, msg_q):
                    q.close()
                    q.cancel_join_thread()

        # Graceful degradation: finish the remainder in-process, without
        # fault injection (the faults model *worker* failures, and there
        # are no workers left to fail).
        if outstanding() > 0:
            for spec in specs:
                eid = spec.episode_id
                if eid in done or eid in quarantined:
                    continue
                payload = self.task.run_episode(context, spec, lambda: None)
                commit(eid, wrap_result(spec, payload))

        merged = merge_results(
            unwrap_result(done[eid]) for eid in sorted(done)
        )
        return RolloutReport(
            merged=merged,
            total=len(specs),
            completed=len(done),
            from_store=from_store,
            quarantined=tuple(
                quarantined[eid] for eid in sorted(quarantined)
            ),
            quarantined_ids=tuple(sorted(quarantined)),
            poison_dropped=poison_dropped,
            incidents=supervisor.incidents,
            incidents_dropped=supervisor.incidents_dropped,
            worker_deaths=supervisor.deaths,
            workers_spawned=workers_spawned,
            degraded=degraded,
            num_workers=cfg.num_workers,
        )


def _worker_entry(
    worker_id: int,
    task: "RolloutTask",
    context: Any,
    task_queue: Any,
    msg_queue: Any,
    injector: "WorkerFaultInjector | None",
    beat_interval_s: float,
    parent_pid: int,
) -> None:
    # Imported here so the module namespace forked into the child stays
    # minimal; the worker loop lives in its own module for testability.
    from repro.rollouts.workers import worker_main

    worker_main(
        worker_id,
        task,
        context,
        task_queue,
        msg_queue,
        injector,
        beat_interval_s,
        parent_pid,
    )


def run_rollouts_serial(
    task: "RolloutTask",
    specs: Iterable[EpisodeSpec],
    store: "RolloutStore | None" = None,
) -> RolloutReport:
    """The serial seed path: same episodes, same merge, one process.

    This is the reference every parallel run must match bit-for-bit; it
    shares the store format with the executor, so a campaign can even be
    started parallel and finished serial (or vice versa) without losing
    work.
    """
    specs = list(specs)
    _validate_specs(specs)
    context = task.build_context()
    done: dict[int, Any] = {}
    from_store = 0
    for spec in sorted(specs, key=lambda s: s.episode_id):
        envelope = store.get(spec) if store is not None else None
        if envelope is not None:
            from_store += 1
        else:
            payload = task.run_episode(context, spec, lambda: None)
            envelope = wrap_result(spec, payload)
            if store is not None:
                store.put(spec, envelope)
        done[spec.episode_id] = envelope
    merged = merge_results(unwrap_result(done[eid]) for eid in sorted(done))
    return RolloutReport(
        merged=merged,
        total=len(specs),
        completed=len(done),
        from_store=from_store,
        quarantined=(),
        quarantined_ids=(),
        poison_dropped=0,
        incidents=(),
        incidents_dropped=0,
        worker_deaths=0,
        workers_spawned=0,
        degraded=False,
        num_workers=1,
    )
