"""Composable, seeded fault models and the injection oracle.

Each fault family is a frozen dataclass of parameters implementing the
:class:`FaultModel` protocol: given a per-entity random generator and the
simulation window, it samples that entity's outage windows.  The
:class:`FaultInjector` answers the engine's point queries ("is team 7's
radio down at t?", "which extra segments are closed now?") from those
schedules.

Determinism is the load-bearing property.  Every random draw comes from a
generator keyed by ``(seed, family tag, entity id)``, so an entity's
schedule depends only on the seed — never on how many other entities
exist, which order queries arrive in, or what the dispatcher happens to
do.  Two runs with the same seed and profile see bit-identical faults.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

# Stream tags keep each family's random substream independent: the
# generator for (seed, tag, entity) never collides across families.
# All tags live in the central registry (repro.core.streams); the
# REP6xx project lint proves no other subsystem reuses them.
from repro.core.streams import (
    STREAM_FAULT_BREAKDOWN,
    STREAM_FAULT_CLOSURE,
    STREAM_FAULT_COMM,
    STREAM_FAULT_CORRUPT_RECORD,
    STREAM_FAULT_DISPATCHER,
    STREAM_FAULT_GPS,
    STREAM_FAULT_POLICY_LATENCY,
    STREAM_FAULT_PREDICTOR,
    STREAM_SHARD_KILL,
    STREAM_SHARD_SKEW,
    STREAM_SHARD_STALL,
    STREAM_TRAIN_CKPT_BITROT,
    STREAM_TRAIN_CORRUPT_REPLAY,
    STREAM_TRAIN_NAN_GRAD,
    STREAM_TRAIN_REWARD_SPIKE,
    STREAM_WORKER_CORRUPT,
    STREAM_WORKER_CRASH,
    STREAM_WORKER_STALL,
)

if TYPE_CHECKING:
    from repro.faults.profiles import FaultProfile

logger = logging.getLogger("repro.faults")


class InjectedDispatcherFault(RuntimeError):
    """Raised (conceptually) by a failing dispatch center; the engine's
    guard converts it into a fallback activation."""


class InjectedPredictorFault(RuntimeError):
    """Raised by a chaos-injected prediction-stage failure; the service's
    predictor breaker converts it into a last-known-good fallback."""


@dataclass(frozen=True)
class OutageWindow:
    """One half-open fault interval ``[start_s, end_s)``."""

    start_s: float
    end_s: float

    def covers(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s


def _merge(spans: list[tuple[float, float]]) -> tuple[OutageWindow, ...]:
    """Sort and coalesce overlapping spans into disjoint windows."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(OutageWindow(s, e) for s, e in merged)


def sample_windows(
    rng: np.random.Generator,
    t0_s: float,
    t1_s: float,
    p_affected: float,
    events_per_entity: float,
    mean_duration_s: float,
) -> tuple[OutageWindow, ...]:
    """Sample one entity's outage windows over ``[t0, t1]``.

    With probability ``p_affected`` the entity suffers at least one
    outage; the outage count is Poisson around ``events_per_entity`` and
    each duration is exponential around ``mean_duration_s``, clipped to
    the window.  Overlaps are merged.
    """
    if p_affected <= 0.0 or rng.random() >= p_affected:
        return ()
    n = max(1, int(rng.poisson(max(events_per_entity, 1e-9))))
    spans = []
    for _ in range(n):
        start = float(rng.uniform(t0_s, t1_s))
        duration = float(rng.exponential(mean_duration_s))
        spans.append((start, min(t1_s, start + duration)))
    return _merge(spans)


@runtime_checkable
class FaultModel(Protocol):
    """One composable fault family.

    ``enabled`` lets the injector skip a family entirely (the ``none``
    profile must be zero-cost); ``windows_for`` samples one entity's
    outage schedule from a generator private to that entity.
    """

    @property
    def enabled(self) -> bool: ...

    def windows_for(
        self, rng: np.random.Generator, t0_s: float, t1_s: float
    ) -> tuple[OutageWindow, ...]: ...


@dataclass(frozen=True)
class GpsDropoutFault:
    """A fraction of the population loses GPS fixes for sampled windows.

    While a person is inside an outage window the dispatch center sees no
    fresh fix for them: the position feed falls back to their historical
    hour-of-day estimate (Section IV-C5) when available, or withholds the
    person entirely.
    """

    p_affected: float = 0.0
    outages_per_person: float = 1.0
    mean_outage_s: float = 4 * 3_600.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng, t0_s, t1_s, self.p_affected, self.outages_per_person, self.mean_outage_s
        )


@dataclass(frozen=True)
class CommLossFault:
    """Dispatch commands to a team are lost during radio outages.

    A command whose apply time falls inside an affected team's outage
    window never reaches the vehicle: the team keeps executing its last
    command (or holds position).  ``extra_latency_s`` additionally delays
    *every* command's application, modelling a congested disaster
    network.
    """

    p_affected: float = 0.0
    outages_per_team: float = 1.0
    mean_outage_s: float = 2 * 3_600.0
    extra_latency_s: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 or self.extra_latency_s > 0.0

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng, t0_s, t1_s, self.p_affected, self.outages_per_team, self.mean_outage_s
        )


@dataclass(frozen=True)
class TeamBreakdownFault:
    """A team becomes inoperable mid-leg for a repair duration.

    The vehicle stops where it is; onboard passengers are stranded until
    the repair completes, after which the team resumes (delivering
    passengers first if it carries any).
    """

    p_affected: float = 0.0
    breakdowns_per_team: float = 1.0
    mean_repair_s: float = 1 * 3_600.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng, t0_s, t1_s, self.p_affected, self.breakdowns_per_team, self.mean_repair_s
        )


@dataclass(frozen=True)
class RoadClosureFault:
    """Operable segments close beyond the flood model (debris, collapse).

    Affected segments are treated exactly like flooded ones: routing
    avoids them, teams driving into one detour, pending requests anchored
    on one are re-anchored to the water's edge.
    """

    p_affected: float = 0.0
    closures_per_segment: float = 1.0
    mean_closure_s: float = 6 * 3_600.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng, t0_s, t1_s, self.p_affected, self.closures_per_segment, self.mean_closure_s
        )


@dataclass(frozen=True)
class DispatcherFailureFault:
    """The dispatch software fails on a fraction of cycles.

    A failing cycle behaves as if the dispatcher raised: the engine's
    guard activates the fallback policy (teams retain their current
    commands; idle teams hold position) and records the incident.
    """

    p_fail_per_cycle: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.p_fail_per_cycle > 0.0

    def windows_for(self, rng, t0_s, t1_s):  # pragma: no cover - not window-based
        return ()

    def fails(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.p_fail_per_cycle)


@dataclass(frozen=True)
class PredictorExceptionFault:
    """The SVM prediction stage raises on a fraction of cycles.

    Models a diverged or crashing learned component; the service's
    predictor breaker converts the exception into a fallback to the
    last-known-good ``ñ_e``.
    """

    p_fail_per_cycle: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.p_fail_per_cycle > 0.0

    def fails(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.p_fail_per_cycle)


@dataclass(frozen=True)
class PolicyLatencyFault:
    """The RL policy's decision latency spikes on a fraction of cycles.

    A spike adds ``spike_s`` to the policy stage's apparent compute time
    — enough to blow its deadline slice and trip the policy breaker onto
    the nearest-team heuristic.  Under the service's deterministic clock
    the spike advances simulated compute time; no real sleeping happens.
    """

    p_spike_per_cycle: float = 0.0
    spike_s: float = 10.0

    @property
    def enabled(self) -> bool:
        return self.p_spike_per_cycle > 0.0 and self.spike_s > 0.0

    def spike(self, rng: np.random.Generator) -> float:
        return self.spike_s if rng.random() < self.p_spike_per_cycle else 0.0


@dataclass(frozen=True)
class CorruptRecordFault:
    """Bursts of malformed GPS records hit the ingest stage.

    During a storm cycle, ``corrupt_fraction`` of the incoming fixes are
    corrupted (NaN coordinates, bogus timestamps, unknown person ids).
    The ingest guard must quarantine every one of them; none may reach
    the predictor.
    """

    p_storm_per_cycle: float = 0.0
    corrupt_fraction: float = 0.25

    @property
    def enabled(self) -> bool:
        return self.p_storm_per_cycle > 0.0 and self.corrupt_fraction > 0.0

    def storm_fraction(self, rng: np.random.Generator) -> float:
        return self.corrupt_fraction if rng.random() < self.p_storm_per_cycle else 0.0


@dataclass(frozen=True)
class ComponentFaultProfile:
    """One parameterisation of the service-level component faults."""

    name: str
    predictor: PredictorExceptionFault = PredictorExceptionFault()
    policy_latency: PolicyLatencyFault = PolicyLatencyFault()
    corrupt_records: CorruptRecordFault = CorruptRecordFault()

    @property
    def is_null(self) -> bool:
        return not (
            self.predictor.enabled
            or self.policy_latency.enabled
            or self.corrupt_records.enabled
        )


class ComponentFaultInjector:
    """Deterministic per-cycle oracle for component-level faults.

    Keyed exactly like :class:`FaultInjector`: every draw comes from a
    generator seeded ``(seed, family tag, cycle index)``, so a cycle's
    faults depend only on the seed — never on query order or on which
    other faults fired.
    """

    def __init__(self, profile: ComponentFaultProfile, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.profile = profile
        self.seed = int(seed)

    def _rng(self, tag: int, cycle_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag, int(cycle_index)])

    @property
    def is_null(self) -> bool:
        return self.profile.is_null

    def predictor_fails(self, cycle_index: int) -> bool:
        model = self.profile.predictor
        if not model.enabled:
            return False
        return model.fails(self._rng(STREAM_FAULT_PREDICTOR, cycle_index))

    def policy_spike_s(self, cycle_index: int) -> float:
        model = self.profile.policy_latency
        if not model.enabled:
            return 0.0
        return model.spike(self._rng(STREAM_FAULT_POLICY_LATENCY, cycle_index))

    def corrupt_fraction(self, cycle_index: int) -> float:
        model = self.profile.corrupt_records
        if not model.enabled:
            return 0.0
        return model.storm_fraction(self._rng(STREAM_FAULT_CORRUPT_RECORD, cycle_index))

    def mutation_rng(self, cycle_index: int) -> np.random.Generator:
        """Generator for *which* records a storm corrupts and *how*.

        A separate substream from the storm draw itself, so adding a
        mutation never shifts whether the storm fires.
        """
        return np.random.default_rng(
            [self.seed, STREAM_FAULT_CORRUPT_RECORD, int(cycle_index), 1]
        )


@dataclass(frozen=True)
class ShardKillFault:
    """An ingest shard's process dies for sampled windows.

    While dead the shard accepts nothing, drains nothing, and stamps no
    heartbeat; whatever it had queued is lost with the process.  The
    supervisor must detect the missing beats and fail the shard's
    keyspace over to a neighbour.
    """

    p_affected: float = 0.0
    kills_per_shard: float = 1.0
    mean_dead_s: float = 1_800.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng, t0_s, t1_s, self.p_affected, self.kills_per_shard, self.mean_dead_s
        )


@dataclass(frozen=True)
class ShardStallFault:
    """An ingest shard beats late (GC pauses, hot locks) for windows.

    The shard stays alive and keeps draining, but every heartbeat inside
    a stall window carries ``stall_s`` of delay.  Sustained stalls past
    the supervisor's tolerance trigger a failover *with* queue transfer
    — the process is reachable, so its backlog moves with the keyspace.
    """

    p_affected: float = 0.0
    stalls_per_shard: float = 1.0
    mean_stall_window_s: float = 1_800.0
    stall_s: float = 30.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 and self.stall_s > 0.0

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng,
            t0_s,
            t1_s,
            self.p_affected,
            self.stalls_per_shard,
            self.mean_stall_window_s,
        )


@dataclass(frozen=True)
class HotShardSkewFault:
    """One region runs hot: a shard's effective queue capacity shrinks.

    Models skewed load (an evacuation corridor funnelling a city into
    one geohash): during a skew window the shard's usable queue is
    ``max_queue // capacity_divisor``, so sustained pressure must shed
    oldest-first — never raise, never stop beating.
    """

    p_affected: float = 0.0
    skews_per_shard: float = 1.0
    mean_skew_s: float = 3_600.0
    capacity_divisor: int = 8

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 and self.capacity_divisor > 1

    def windows_for(self, rng, t0_s, t1_s):
        return sample_windows(
            rng, t0_s, t1_s, self.p_affected, self.skews_per_shard, self.mean_skew_s
        )


@dataclass(frozen=True)
class ShardFaultProfile:
    """One parameterisation of the shard-level fault families."""

    name: str
    kill: ShardKillFault = ShardKillFault()
    stall: ShardStallFault = ShardStallFault()
    skew: HotShardSkewFault = HotShardSkewFault()

    @property
    def is_null(self) -> bool:
        return not (self.kill.enabled or self.stall.enabled or self.skew.enabled)


class ShardFaultInjector:
    """Deterministic per-shard oracle for kill / stall / skew faults.

    Keyed exactly like :class:`FaultInjector`: each shard's schedule for
    each family comes from a generator seeded ``(seed, family tag,
    shard id)``, sampled lazily and cached, so a shard's faults depend
    only on the seed — never on how many shards exist or in which order
    they are queried.
    """

    def __init__(
        self, profile: ShardFaultProfile, t0_s: float, t1_s: float, seed: int = 0
    ) -> None:
        if t1_s <= t0_s:
            raise ValueError("need t0 < t1")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.profile = profile
        self.t0_s = float(t0_s)
        self.t1_s = float(t1_s)
        self.seed = int(seed)
        self._kill: dict[int, tuple[OutageWindow, ...]] = {}
        self._stall: dict[int, tuple[OutageWindow, ...]] = {}
        self._skew: dict[int, tuple[OutageWindow, ...]] = {}

    def _rng(self, tag: int, shard_id: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag, int(shard_id)])

    def _windows(
        self,
        model: FaultModel,
        tag: int,
        shard_id: int,
        cache: dict[int, tuple[OutageWindow, ...]],
    ) -> tuple[OutageWindow, ...]:
        if not model.enabled:
            return ()
        if shard_id not in cache:
            cache[shard_id] = model.windows_for(
                self._rng(tag, shard_id), self.t0_s, self.t1_s
            )
        return cache[shard_id]

    @property
    def is_null(self) -> bool:
        return self.profile.is_null

    def killed(self, shard_id: int, t_s: float) -> bool:
        windows = self._windows(
            self.profile.kill, STREAM_SHARD_KILL, shard_id, self._kill
        )
        return any(w.covers(t_s) for w in windows)

    def stall_s(self, shard_id: int, t_s: float) -> float:
        windows = self._windows(
            self.profile.stall, STREAM_SHARD_STALL, shard_id, self._stall
        )
        if any(w.covers(t_s) for w in windows):
            return self.profile.stall.stall_s
        return 0.0

    def capacity_divisor(self, shard_id: int, t_s: float) -> int:
        windows = self._windows(
            self.profile.skew, STREAM_SHARD_SKEW, shard_id, self._skew
        )
        if any(w.covers(t_s) for w in windows):
            return self.profile.skew.capacity_divisor
        return 1


class FaultInjector:
    """Deterministic fault oracle for one simulation window.

    Built from a :class:`~repro.faults.profiles.FaultProfile`, a seed and
    the window ``[t0, t1]``.  Per-entity schedules are sampled lazily and
    cached; closure schedules are sampled eagerly when the engine binds
    the segment universe via :meth:`bind_segments`.
    """

    def __init__(
        self, profile: "FaultProfile", t0_s: float, t1_s: float, seed: int = 0
    ) -> None:
        if t1_s <= t0_s:
            raise ValueError("need t0 < t1")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.profile = profile
        self.t0_s = float(t0_s)
        self.t1_s = float(t1_s)
        self.seed = int(seed)
        self._gps: dict[int, tuple[OutageWindow, ...]] = {}
        self._comm: dict[int, tuple[OutageWindow, ...]] = {}
        self._breakdown: dict[int, tuple[OutageWindow, ...]] = {}
        #: segment -> closure windows; populated by :meth:`bind_segments`.
        self._closures: dict[int, tuple[OutageWindow, ...]] = {}
        self._segments_bound = False

    # -- plumbing -----------------------------------------------------------

    def _rng(self, tag: int, entity: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag, int(entity)])

    def _windows(
        self,
        model: FaultModel,
        tag: int,
        entity: int,
        cache: dict[int, tuple[OutageWindow, ...]],
    ) -> tuple[OutageWindow, ...]:
        if not model.enabled:
            return ()
        if entity not in cache:
            cache[entity] = model.windows_for(self._rng(tag, entity), self.t0_s, self.t1_s)
        return cache[entity]

    @staticmethod
    def _covering(windows: tuple[OutageWindow, ...], t_s: float) -> OutageWindow | None:
        for w in windows:
            if w.covers(t_s):
                return w
        return None

    @property
    def is_null(self) -> bool:
        """True when no fault family is active (the ``none`` profile)."""
        return self.profile.is_null

    # -- GPS ----------------------------------------------------------------

    def gps_stale(self, person_id: int, t_s: float) -> bool:
        """Is this person's GPS fix unavailable right now?"""
        return self._covering(self.gps_windows(person_id), t_s) is not None

    def gps_windows(self, person_id: int) -> tuple[OutageWindow, ...]:
        """This person's full GPS outage schedule (sorted, disjoint), from
        the same lazily-sampled cache :meth:`gps_stale` reads."""
        return self._windows(self.profile.gps, STREAM_FAULT_GPS, person_id, self._gps)

    # -- communication ------------------------------------------------------

    def comm_blocked(self, team_id: int, t_s: float) -> bool:
        """Is this team's radio link down right now?"""
        windows = self._windows(self.profile.comm, STREAM_FAULT_COMM, team_id, self._comm)
        return self._covering(windows, t_s) is not None

    @property
    def comm_latency_s(self) -> float:
        """Extra network latency applied to every command's apply time."""
        return self.profile.comm.extra_latency_s

    # -- breakdowns ---------------------------------------------------------

    def breakdown_window(self, team_id: int, t_s: float) -> OutageWindow | None:
        """The breakdown window covering ``t``, if the team is broken down."""
        return self._covering(self.breakdown_windows(team_id), t_s)

    def breakdown_windows(self, team_id: int) -> tuple[OutageWindow, ...]:
        """This team's full breakdown schedule (sorted, disjoint windows).

        The same lazily-sampled cache :meth:`breakdown_window` reads, so an
        event-driven consumer that schedules from the whole list sees
        exactly the windows a per-tick poller would."""
        return self._windows(
            self.profile.breakdown, STREAM_FAULT_BREAKDOWN, team_id, self._breakdown
        )

    # -- road closures ------------------------------------------------------

    def bind_segments(self, segment_ids: list[int]) -> None:
        """Sample the closure schedule over the network's segments.

        Idempotent; called once by the engine.  Per-segment schedules are
        keyed by segment id, so they do not depend on the list's order.
        """
        if self._segments_bound or not self.profile.closure.enabled:
            self._segments_bound = True
            return
        model = self.profile.closure
        for seg in segment_ids:
            windows = model.windows_for(self._rng(STREAM_FAULT_CLOSURE, seg), self.t0_s, self.t1_s)
            if windows:
                self._closures[int(seg)] = windows
        self._segments_bound = True
        logger.info(
            "fault closures bound: %d/%d segments affected",
            len(self._closures),
            len(segment_ids),
        )

    def closure_windows(self) -> dict[int, tuple[OutageWindow, ...]]:
        """Segment -> closure windows, for event-driven closure tracking.

        Valid after :meth:`bind_segments`; the same eager cache
        :meth:`closed_segments` polls, exposed so a consumer can recompute
        the closed set only when ``t`` crosses a window boundary."""
        return self._closures

    def closed_segments(self, t_s: float) -> frozenset[int]:
        """Extra segments closed by injected faults at ``t`` (beyond flood)."""
        if not self._closures:
            return frozenset()
        return frozenset(
            seg
            for seg, windows in self._closures.items()
            if self._covering(windows, t_s) is not None
        )

    # -- dispatcher ---------------------------------------------------------

    def dispatcher_fails(self, cycle_index: int) -> bool:
        """Does the dispatch software fail on this cycle?"""
        model = self.profile.dispatcher
        if not model.enabled:
            return False
        return model.fails(self._rng(STREAM_FAULT_DISPATCHER, cycle_index))


# -- rollout worker faults ----------------------------------------------------


@dataclass(frozen=True)
class WorkerCrashFault:
    """A rollout worker process dies mid-episode (real process death).

    ``p_affected`` episodes crash the worker on their first
    ``max_crashes`` attempts and then succeed; ``p_poison`` episodes
    crash on *every* attempt — the executor must quarantine them after
    two kills instead of burning its retry budget.  The crash fires
    after a per-episode number of in-episode heartbeats (uniform in
    ``[0, crash_after_beats]``), so the death lands genuinely
    mid-episode, not at the dispatch boundary.
    """

    p_affected: float = 0.0
    max_crashes: int = 1
    p_poison: float = 0.0
    crash_after_beats: int = 3

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 or self.p_poison > 0.0


@dataclass(frozen=True)
class WorkerStallFault:
    """A rollout worker stops heartbeating (GC pause, livelock, swap).

    Affected episodes make the worker sleep ``stall_s`` of real time
    before running, on their first ``max_stalls`` attempts.  A stall
    longer than the supervisor's heartbeat timeout is indistinguishable
    from death: the coordinator must kill the worker and requeue the
    episode.
    """

    p_affected: float = 0.0
    max_stalls: int = 1
    stall_s: float = 3.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 and self.stall_s > 0.0


@dataclass(frozen=True)
class WorkerCorruptResultFault:
    """A worker returns a bit-flipped result payload.

    Affected episodes have their result envelope's payload mutated
    after the checksum is computed, on their first ``max_corruptions``
    attempts.  The coordinator must detect the digest mismatch, discard
    the result, and re-run the episode — never merge it.
    """

    p_affected: float = 0.0
    max_corruptions: int = 1

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0


@dataclass(frozen=True)
class WorkerFaultProfile:
    """One parameterisation of the rollout-worker fault families."""

    name: str
    crash: WorkerCrashFault = WorkerCrashFault()
    stall: WorkerStallFault = WorkerStallFault()
    corrupt: WorkerCorruptResultFault = WorkerCorruptResultFault()

    @property
    def is_null(self) -> bool:
        return not (
            self.crash.enabled or self.stall.enabled or self.corrupt.enabled
        )


@dataclass(frozen=True)
class WorkerFaultPlan:
    """What the injector orders a worker to do for one episode attempt.

    Precedence when several families hit the same attempt: a stall wins
    (the supervisor kills the worker before the episode runs), then a
    crash, then a corrupt result.  The plan is a pure function of
    ``(seed, episode id, attempt)`` — never of the worker that happens
    to run the attempt.
    """

    crash_after_beats: int | None = None
    stall_s: float = 0.0
    corrupt_result: bool = False
    poisoned: bool = False

    @property
    def is_null(self) -> bool:
        return (
            self.crash_after_beats is None
            and self.stall_s <= 0.0
            and not self.corrupt_result
        )


#: The do-nothing plan, shared so the hot worker loop allocates nothing.
NULL_WORKER_PLAN = WorkerFaultPlan()


class WorkerFaultInjector:
    """Deterministic per-episode oracle for rollout-worker faults.

    Keyed exactly like :class:`FaultInjector`: each episode's fate for
    each family comes from a generator seeded ``(seed, family tag,
    episode id)``, sampled lazily and cached — so an episode's faults
    depend only on the seed and its id, never on which worker runs it,
    in which order episodes are queried, or how many attempts other
    episodes needed.
    """

    def __init__(self, profile: WorkerFaultProfile, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.profile = profile
        self.seed = int(seed)
        #: episode id -> (n_crash_attempts, poisoned, crash_after_beats)
        self._crash: dict[int, tuple[int, bool, int]] = {}
        #: episode id -> n_stall_attempts
        self._stall: dict[int, int] = {}
        #: episode id -> n_corrupt_attempts
        self._corrupt: dict[int, int] = {}

    @property
    def is_null(self) -> bool:
        return self.profile.is_null

    def _rng(self, tag: int, episode_id: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag, int(episode_id)])

    def _crash_fate(self, episode_id: int) -> tuple[int, bool, int]:
        model = self.profile.crash
        if not model.enabled:
            return (0, False, 0)
        if episode_id not in self._crash:
            rng = self._rng(STREAM_WORKER_CRASH, episode_id)
            affected = bool(rng.random() < model.p_affected)
            poisoned = bool(rng.random() < model.p_poison)
            beats = int(rng.integers(0, model.crash_after_beats + 1))
            n = model.max_crashes if affected else 0
            self._crash[episode_id] = (n, poisoned, beats)
        return self._crash[episode_id]

    def _stall_fate(self, episode_id: int) -> int:
        model = self.profile.stall
        if not model.enabled:
            return 0
        if episode_id not in self._stall:
            rng = self._rng(STREAM_WORKER_STALL, episode_id)
            affected = bool(rng.random() < model.p_affected)
            self._stall[episode_id] = model.max_stalls if affected else 0
        return self._stall[episode_id]

    def _corrupt_fate(self, episode_id: int) -> int:
        model = self.profile.corrupt
        if not model.enabled:
            return 0
        if episode_id not in self._corrupt:
            rng = self._rng(STREAM_WORKER_CORRUPT, episode_id)
            affected = bool(rng.random() < model.p_affected)
            self._corrupt[episode_id] = model.max_corruptions if affected else 0
        return self._corrupt[episode_id]

    def poisoned(self, episode_id: int) -> bool:
        """Does this episode crash its worker on every attempt?"""
        return self._crash_fate(episode_id)[1]

    def plan(self, episode_id: int, attempt: int) -> WorkerFaultPlan:
        """The fault plan for one ``(episode, attempt)`` pair."""
        if self.profile.is_null:
            return NULL_WORKER_PLAN
        n_crash, poisoned, beats = self._crash_fate(episode_id)
        n_stall = self._stall_fate(episode_id)
        n_corrupt = self._corrupt_fate(episode_id)
        stall_s = 0.0
        crash_after: int | None = None
        # Stalls occupy the earliest attempts, crashes the next ones:
        # disjoint attempt ranges keep every planned fault observable and
        # the per-episode kill count an exact, predictable function of
        # the plan (stall-kills + crash-kills).
        if attempt < n_stall:
            stall_s = self.profile.stall.stall_s
        elif poisoned or attempt < n_stall + n_crash:
            crash_after = beats
        corrupt = not poisoned and (
            n_stall + n_crash <= attempt < n_stall + n_crash + n_corrupt
        )
        if stall_s <= 0.0 and crash_after is None and not corrupt:
            return NULL_WORKER_PLAN if not poisoned else WorkerFaultPlan()
        return WorkerFaultPlan(
            crash_after_beats=crash_after,
            stall_s=stall_s,
            corrupt_result=corrupt,
            poisoned=poisoned,
        )

    def faulted_attempts(self, episode_id: int) -> int:
        """Attempts this episode sacrifices to non-poison faults.

        The executor's retry budget must exceed this for the episode to
        complete; the chaos harness uses it to prove zero episodes are
        lost by construction, not luck.
        """
        n_crash, poisoned, _ = self._crash_fate(episode_id)
        if poisoned:
            return -1
        return self._stall_fate(episode_id) + n_crash + self._corrupt_fate(episode_id)


# -- training faults ----------------------------------------------------------


@dataclass(frozen=True)
class NaNGradientFault:
    """A numeric blow-up poisons the Q-network mid-episode.

    Affected episodes have one weight component of the online network
    overwritten with NaN at a sampled learn step, on their first
    ``max_attempts`` recovery attempts (``persistent`` episodes blow up
    on *every* attempt — the sentinel must eventually abort rather than
    retry forever).  NaN then propagates through every subsequent
    forward pass, exactly like a real fp overflow in the optimizer.
    """

    p_affected: float = 0.0
    max_attempts: int = 1
    persistent: bool = False
    #: Faults fire at a learn step uniform in ``[1, max_step]``.
    max_step: int = 40

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0


@dataclass(frozen=True)
class CorruptReplaySampleFault:
    """Replay-buffer rows are overwritten with NaN garbage (bad memory,
    a torn write in a future mmap'd buffer).  The sentinel's replay
    integrity screen must catch it before the episode commits."""

    p_affected: float = 0.0
    max_attempts: int = 1
    rows: int = 4
    max_step: int = 40

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 and self.rows > 0


@dataclass(frozen=True)
class RewardSpikeFault:
    """Stored rewards are corrupted to an absurd magnitude (sensor glitch,
    unit mix-up) — the classic silent divergence seed: Q-targets explode
    a few steps later."""

    p_affected: float = 0.0
    max_attempts: int = 1
    rows: int = 2
    magnitude: float = 1.0e6
    max_step: int = 40

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0 and self.rows > 0


@dataclass(frozen=True)
class CheckpointBitrotFault:
    """A committed checkpoint rots on disk (cosmic ray, bad sector).

    Affected episodes have one byte of their committed ``state.npz``
    flipped after the commit.  Detection happens where it matters: the
    manifest verification in ``find_latest_valid_checkpoint`` must
    quarantine the rotten checkpoint during rollback, or the final
    integrity sweep must flag it — either way it never restores.
    """

    p_affected: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.p_affected > 0.0


@dataclass(frozen=True)
class TrainingFaultProfile:
    """One parameterisation of the training fault families."""

    name: str
    nan_gradient: NaNGradientFault = NaNGradientFault()
    corrupt_replay: CorruptReplaySampleFault = CorruptReplaySampleFault()
    reward_spike: RewardSpikeFault = RewardSpikeFault()
    checkpoint_bitrot: CheckpointBitrotFault = CheckpointBitrotFault()

    @property
    def is_null(self) -> bool:
        return not (
            self.nan_gradient.enabled
            or self.corrupt_replay.enabled
            or self.reward_spike.enabled
            or self.checkpoint_bitrot.enabled
        )


@dataclass(frozen=True)
class TrainingFaultPlan:
    """What the injector does to one ``(episode, attempt)`` of training.

    Each field is the learn step at which that family fires (``None``
    when it does not).  The plan is a pure function of ``(seed, episode
    id, attempt)``: recovery attempts beyond a family's ``max_attempts``
    get a clean plan, which is exactly what lets a rollback-and-replay
    converge — unless the episode is ``persistent``, in which case the
    sentinel's ladder must end in an abort.
    """

    nan_at_step: int | None = None
    corrupt_replay_at_step: int | None = None
    corrupt_rows: int = 0
    reward_spike_at_step: int | None = None
    spike_rows: int = 0
    spike_magnitude: float = 0.0
    persistent: bool = False

    @property
    def is_null(self) -> bool:
        return (
            self.nan_at_step is None
            and self.corrupt_replay_at_step is None
            and self.reward_spike_at_step is None
        )


#: The do-nothing plan, shared so the learn-step tap allocates nothing.
NULL_TRAINING_PLAN = TrainingFaultPlan()


class TrainingFaultInjector:
    """Deterministic per-episode oracle for training faults.

    Keyed exactly like :class:`WorkerFaultInjector`: each episode's fate
    for each family comes from a generator seeded ``(seed, family tag,
    episode id)``, sampled lazily and cached — independent of query
    order and of how many recovery attempts the sentinel makes.
    """

    def __init__(self, profile: TrainingFaultProfile, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.profile = profile
        self.seed = int(seed)
        #: episode id -> (n_faulted_attempts, persistent, learn step)
        self._nan: dict[int, tuple[int, bool, int]] = {}
        #: episode id -> (n_faulted_attempts, learn step)
        self._replay: dict[int, tuple[int, int]] = {}
        self._spike: dict[int, tuple[int, int]] = {}
        #: episode id -> rots?
        self._bitrot: dict[int, bool] = {}

    @property
    def is_null(self) -> bool:
        return self.profile.is_null

    def _rng(self, tag: int, episode_id: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag, int(episode_id)])

    def _nan_fate(self, episode_id: int) -> tuple[int, bool, int]:
        model = self.profile.nan_gradient
        if not model.enabled:
            return (0, False, 0)
        if episode_id not in self._nan:
            rng = self._rng(STREAM_TRAIN_NAN_GRAD, episode_id)
            affected = bool(rng.random() < model.p_affected)
            step = int(rng.integers(1, model.max_step + 1))
            n = model.max_attempts if affected else 0
            self._nan[episode_id] = (n, model.persistent and affected, step)
        return self._nan[episode_id]

    def _replay_fate(self, episode_id: int) -> tuple[int, int]:
        model = self.profile.corrupt_replay
        if not model.enabled:
            return (0, 0)
        if episode_id not in self._replay:
            rng = self._rng(STREAM_TRAIN_CORRUPT_REPLAY, episode_id)
            affected = bool(rng.random() < model.p_affected)
            step = int(rng.integers(1, model.max_step + 1))
            self._replay[episode_id] = (model.max_attempts if affected else 0, step)
        return self._replay[episode_id]

    def _spike_fate(self, episode_id: int) -> tuple[int, int]:
        model = self.profile.reward_spike
        if not model.enabled:
            return (0, 0)
        if episode_id not in self._spike:
            rng = self._rng(STREAM_TRAIN_REWARD_SPIKE, episode_id)
            affected = bool(rng.random() < model.p_affected)
            step = int(rng.integers(1, model.max_step + 1))
            self._spike[episode_id] = (model.max_attempts if affected else 0, step)
        return self._spike[episode_id]

    def persistent(self, episode_id: int) -> bool:
        """Does this episode blow up on every recovery attempt?"""
        return self._nan_fate(episode_id)[1]

    def plan(self, episode_id: int, attempt: int) -> TrainingFaultPlan:
        """The training fault plan for one ``(episode, attempt)`` pair."""
        if self.profile.is_null:
            return NULL_TRAINING_PLAN
        n_nan, persistent, nan_step = self._nan_fate(episode_id)
        n_replay, replay_step = self._replay_fate(episode_id)
        n_spike, spike_step = self._spike_fate(episode_id)
        nan_at = nan_step if (persistent or attempt < n_nan) else None
        replay_at = replay_step if attempt < n_replay else None
        spike_at = spike_step if attempt < n_spike else None
        if nan_at is None and replay_at is None and spike_at is None:
            return NULL_TRAINING_PLAN
        return TrainingFaultPlan(
            nan_at_step=nan_at,
            corrupt_replay_at_step=replay_at,
            corrupt_rows=self.profile.corrupt_replay.rows,
            reward_spike_at_step=spike_at,
            spike_rows=self.profile.reward_spike.rows,
            spike_magnitude=self.profile.reward_spike.magnitude,
            persistent=persistent,
        )

    def bitrot(self, episode_id: int) -> bool:
        """Does the checkpoint committed for this episode rot on disk?"""
        model = self.profile.checkpoint_bitrot
        if not model.enabled:
            return False
        if episode_id not in self._bitrot:
            rng = self._rng(STREAM_TRAIN_CKPT_BITROT, episode_id)
            self._bitrot[episode_id] = bool(rng.random() < model.p_affected)
        return self._bitrot[episode_id]

    def faulted_attempts(self, episode_id: int) -> int:
        """Recovery attempts this episode sacrifices to transient faults
        (-1 when persistent: no retry budget ever suffices)."""
        n_nan, persistent, _ = self._nan_fate(episode_id)
        if persistent:
            return -1
        return max(n_nan, self._replay_fate(episode_id)[0], self._spike_fate(episode_id)[0])
