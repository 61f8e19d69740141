"""Map matching: GPS fixes -> trajectories in landmarks (paper Def. 1).

Each cleaned fix is snapped to its nearest road-network landmark; a
person's trajectory is then the time-ordered landmark sequence with
consecutive repeats collapsed.  Road-segment traversals are reconstructed
by routing between consecutive distinct landmarks that are close in time —
this is what turns sparse cellphone fixes into the per-segment vehicle flow
rates of Section III.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mobility.cleaning import validate_trace
from repro.mobility.routes import RouteCache
from repro.mobility.trace import GpsTrace, TraversalLog
from repro.roadnet.graph import RoadNetwork


@dataclass
class MatchedTrajectories:
    """Per-person landmark trajectories.

    ``trajectories`` maps person_id -> (times, node_ids) arrays, both
    time-ordered, with consecutive duplicate nodes collapsed.
    """

    trajectories: dict[int, tuple[np.ndarray, np.ndarray]]
    dropped_far_fixes: int
    #: Flat query index, built by the first :meth:`nodes_at_time`.
    _flat: "_FlatIndex | None" = field(default=None, init=False, repr=False, compare=False)

    def persons(self) -> list[int]:
        return sorted(self.trajectories)

    def nodes_at_time(self, t_seconds: float) -> dict[int, int]:
        """Last-known landmark of every person at time ``t``.

        People whose first fix is later than ``t`` are absent from the
        result — the dispatch center cannot see them yet.  Keys come in
        ``trajectories`` order.

        One comparison over every person's concatenated times and one
        segmented count answer the query: a person's last fix at or before
        ``t`` sits ``count - 1`` rows past their start, the row the
        per-person ``searchsorted(ts, t, side="right") - 1`` finds.
        """
        flat = self._flat
        if flat is None:
            flat = self._flat = _FlatIndex.build(self.trajectories)
        if not len(flat.pids):
            return {}
        later = np.add.reduceat(flat.times > t_seconds, flat.starts, dtype=np.int64)
        seen = flat.lengths - later
        known = seen > 0
        rows = flat.starts[known] + seen[known] - 1
        return dict(zip(flat.pids[known].tolist(), flat.nodes[rows].tolist()))


@dataclass(frozen=True)
class _FlatIndex:
    """Every non-empty trajectory concatenated, in ``trajectories`` order."""

    pids: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    times: np.ndarray
    nodes: np.ndarray

    @classmethod
    def build(cls, trajectories: dict[int, tuple[np.ndarray, np.ndarray]]) -> "_FlatIndex":
        # Empty trajectories never answer a query, and reduceat cannot
        # express an empty segment, so they stay out of the index.
        kept = [(pid, ts, nodes) for pid, (ts, nodes) in trajectories.items() if len(ts)]
        if not kept:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty, empty, empty, np.zeros(0), empty)
        lengths = np.array([len(ts) for _, ts, _ in kept], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        return cls(
            pids=np.array([pid for pid, _, _ in kept], dtype=np.int64),
            starts=starts,
            lengths=lengths,
            times=np.concatenate([ts for _, ts, _ in kept]),
            nodes=np.concatenate([nodes for _, _, nodes in kept]).astype(np.int64, copy=False),
        )


def map_match(
    trace: GpsTrace,
    network: RoadNetwork,
    max_snap_m: float = 2_500.0,
) -> MatchedTrajectories:
    """Snap a cleaned, sorted trace onto the landmark graph.

    The input contract is a *cleaned* trace: finite values and per-person
    monotonic timestamps.  Violations raise
    :class:`~repro.mobility.cleaning.MalformedTraceError` here rather
    than silently producing scrambled trajectories — corruption must not
    propagate past the stage that can still name the offending record.
    """
    if len(trace) == 0:
        return MatchedTrajectories({}, 0)
    validate_trace(trace, require_monotonic=True)
    node_ids = np.array(network.landmark_ids())
    from scipy.spatial import cKDTree

    tree = cKDTree(np.array([network.landmark(int(n)).xy for n in node_ids]))
    pts = np.column_stack([trace.x.astype(np.float64), trace.y.astype(np.float64)])
    dist, idx = tree.query(pts)
    ok = dist <= max_snap_m
    dropped = int((~ok).sum())

    pid = trace.person_id[ok]
    ts = trace.t[ok]
    nodes = node_ids[idx[ok]]

    order = np.lexsort((ts, pid))
    pid, ts, nodes = pid[order], ts[order], nodes[order]

    trajectories: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if len(pid):
        boundaries = np.nonzero(np.diff(pid))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(pid)]])
        for s, e in zip(starts, ends):
            p_ts, p_nodes = ts[s:e], nodes[s:e]
            keep = np.ones(len(p_nodes), dtype=bool)
            keep[1:] = p_nodes[1:] != p_nodes[:-1]
            trajectories[int(pid[s])] = (p_ts[keep], p_nodes[keep])
    return MatchedTrajectories(trajectories, dropped)


def reconstruct_traversals(
    matched: MatchedTrajectories,
    network: RoadNetwork,
    max_gap_s: float = 1_800.0,
    route_cache: RouteCache | None = None,
) -> TraversalLog:
    """Infer road-segment traversal events from landmark trajectories.

    Consecutive distinct landmarks observed within ``max_gap_s`` are assumed
    connected by the shortest route; traversal times are spread across that
    route proportionally to segment free-flow times.
    """
    cache = route_cache or RouteCache(network)
    ts_parts: list[np.ndarray] = []
    seg_parts: list[np.ndarray] = []
    for _, (ts, nodes) in sorted(matched.trajectories.items()):
        for i in range(len(nodes) - 1):
            dt = ts[i + 1] - ts[i]
            if dt > max_gap_s or dt <= 0:
                continue
            route = cache.route(int(nodes[i]), int(nodes[i + 1]))
            if route is None or route.is_trivial:
                continue
            seg_times = np.array(
                [network.segment(s).free_flow_time_s for s in route.segment_ids]
            )
            total = seg_times.sum()
            if total <= 0:
                continue
            offsets = np.concatenate([[0.0], np.cumsum(seg_times)[:-1]]) / total
            ts_parts.append(ts[i] + offsets * dt)
            seg_parts.append(np.array(route.segment_ids, dtype=np.int32))
    if not ts_parts:
        return TraversalLog.empty()
    return TraversalLog(np.concatenate(ts_parts), np.concatenate(seg_parts))
