"""Directed landmark/road-segment graph (paper Section III-A, Def. 1).

``RoadNetwork`` is immutable once frozen: the disaster never changes the
graph structure, only which segments are *operable*.  Operability is
expressed as a set of closed segment ids, derived from the flood model; the
remaining available network G̃ of the paper is then ``(network, closed)``
pairs threaded through routing and dispatching.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar, cast

import numpy as np
from scipy.spatial import cKDTree

_E = TypeVar("_E")


@dataclass(frozen=True)
class Landmark:
    """A road-network vertex: an intersection or turning point."""

    node_id: int
    x: float
    y: float

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class RoadSegment:
    """A directed road segment ``e_i`` between two landmarks.

    ``length_m`` is the driving length and ``speed_limit_mps`` the free-flow
    speed limit; together they give the segment's free-flow traversal time,
    the ``l_e / v_e`` term of the paper's driving-delay metric.
    """

    segment_id: int
    u: int
    v: int
    length_m: float
    speed_limit_mps: float
    region_id: int

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError(f"segment {self.segment_id}: length must be positive")
        if self.speed_limit_mps <= 0:
            raise ValueError(f"segment {self.segment_id}: speed limit must be positive")
        if self.u == self.v:
            raise ValueError(f"segment {self.segment_id}: self-loops are not allowed")

    @property
    def free_flow_time_s(self) -> float:
        """Traversal time at the speed limit, seconds."""
        return self.length_m / self.speed_limit_mps


class RoadNetwork:
    """Directed road network G = (E, V) with spatial indexing.

    Build with :meth:`add_landmark` / :meth:`add_segment`, then call
    :meth:`freeze` before running queries; freezing builds the KD-tree and
    adjacency caches and makes the topology immutable.
    """

    def __init__(self) -> None:
        self._landmarks: dict[int, Landmark] = {}
        self._segments: dict[int, RoadSegment] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._by_endpoints: dict[tuple[int, int], int] = {}
        self._frozen = False
        self._kdtree: cKDTree | None = None
        self._node_ids_sorted: np.ndarray | None = None
        self._midpoint_tree: cKDTree | None = None
        self._segment_ids_sorted: np.ndarray | None = None
        self._midpoints_sorted: np.ndarray | None = None
        #: Dense-index adjacency for the Dijkstra loops; rebuilt lazily after
        #: topology changes so routing never pays per-call RoadSegment lookups.
        self._routing_index: RoutingIndex | None = None
        #: Engines derived from the topology (the routing engine, the
        #: travel-time oracle), keyed by name; see :meth:`engine`.
        self._engines: dict[str, object] = {}

    def __getstate__(self) -> dict[str, object]:
        # Engines are rebuilt on demand, never carried into a pickle or copy.
        state = self.__dict__.copy()
        state["_engines"] = {}
        return state

    # -- construction -----------------------------------------------------

    def add_landmark(self, landmark: Landmark) -> None:
        self._require_mutable()
        if landmark.node_id in self._landmarks:
            raise ValueError(f"duplicate landmark id {landmark.node_id}")
        self._landmarks[landmark.node_id] = landmark
        self._out[landmark.node_id] = []
        self._in[landmark.node_id] = []
        self._routing_index = None
        self._engines.clear()

    def add_segment(self, segment: RoadSegment) -> None:
        self._require_mutable()
        if segment.segment_id in self._segments:
            raise ValueError(f"duplicate segment id {segment.segment_id}")
        if segment.u not in self._landmarks or segment.v not in self._landmarks:
            raise ValueError(
                f"segment {segment.segment_id} references unknown landmark(s)"
            )
        if (segment.u, segment.v) in self._by_endpoints:
            raise ValueError(
                f"parallel segment between {segment.u} and {segment.v} not supported"
            )
        self._segments[segment.segment_id] = segment
        self._out[segment.u].append(segment.segment_id)
        self._in[segment.v].append(segment.segment_id)
        self._by_endpoints[(segment.u, segment.v)] = segment.segment_id
        self._routing_index = None
        self._engines.clear()

    def freeze(self) -> "RoadNetwork":
        """Finalize construction and build spatial indexes."""
        if self._frozen:
            return self
        if not self._landmarks:
            raise ValueError("cannot freeze an empty road network")
        node_ids = sorted(self._landmarks)
        pts = np.array([self._landmarks[i].xy for i in node_ids])
        self._kdtree = cKDTree(pts)
        self._node_ids_sorted = np.array(node_ids)
        if self._segments:
            seg_ids = sorted(self._segments)
            mids = np.array([self.segment_midpoint(s) for s in seg_ids])
            self._midpoint_tree = cKDTree(mids)
            self._segment_ids_sorted = np.array(seg_ids)
            self._midpoints_sorted = mids
        self._frozen = True
        return self

    def _require_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("road network is frozen; topology is immutable")

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise RuntimeError("freeze() the road network before spatial queries")

    # -- basic accessors ---------------------------------------------------

    @property
    def num_landmarks(self) -> int:
        return len(self._landmarks)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def landmark(self, node_id: int) -> Landmark:
        try:
            return self._landmarks[node_id]
        except KeyError:
            raise KeyError(f"unknown landmark id {node_id}") from None

    def segment(self, segment_id: int) -> RoadSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise KeyError(f"unknown segment id {segment_id}") from None

    def landmark_ids(self) -> list[int]:
        return sorted(self._landmarks)

    def segment_ids(self) -> list[int]:
        return sorted(self._segments)

    def segments(self) -> list[RoadSegment]:
        return [self._segments[i] for i in self.segment_ids()]

    def out_segments(self, node_id: int) -> list[RoadSegment]:
        return [self._segments[s] for s in self._out[node_id]]

    def in_segments(self, node_id: int) -> list[RoadSegment]:
        return [self._segments[s] for s in self._in[node_id]]

    def segment_between(self, u: int, v: int) -> RoadSegment | None:
        sid = self._by_endpoints.get((u, v))
        return None if sid is None else self._segments[sid]

    # -- routing adjacency ---------------------------------------------------

    def routing_index(self) -> "RoutingIndex":
        """The dense-index adjacency of the routing loops.  Treat the returned
        structure as read-only."""
        if self._routing_index is None:
            self._routing_index = RoutingIndex(self)
        return self._routing_index

    def engine(self, name: str, build: Callable[["RoadNetwork"], _E]) -> _E:
        """The network's ``name`` engine, built as ``build(self)`` on first
        use and kept exactly as long as the network."""
        found = self._engines.get(name)
        if found is None:
            found = self._engines[name] = build(self)
        return cast(_E, found)

    # -- geometry ----------------------------------------------------------

    def segment_midpoint(self, segment_id: int) -> tuple[float, float]:
        seg = self.segment(segment_id)
        a, b = self._landmarks[seg.u], self._landmarks[seg.v]
        return ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)

    def nearest_landmark(self, x: float, y: float) -> int:
        """Id of the landmark closest to a plane point."""
        self._require_frozen()
        assert self._kdtree is not None and self._node_ids_sorted is not None
        _, idx = self._kdtree.query([x, y])
        return int(self._node_ids_sorted[int(idx)])

    def nearest_segment(self, x: float, y: float) -> int:
        """Id of the segment whose midpoint is closest to a plane point."""
        self._require_frozen()
        if self._midpoint_tree is None or self._segment_ids_sorted is None:
            raise RuntimeError("network has no segments")
        _, idx = self._midpoint_tree.query([x, y])
        return int(self._segment_ids_sorted[int(idx)])

    def nearest_segments(self, x: float, y: float, k: int) -> list[int]:
        """Ids of the ``k`` segments with midpoints closest to a point,
        nearest first."""
        self._require_frozen()
        if self._midpoint_tree is None or self._segment_ids_sorted is None:
            raise RuntimeError("network has no segments")
        if k < 1:
            raise ValueError("k must be positive")
        k = min(k, len(self._segment_ids_sorted))
        _, idx = self._midpoint_tree.query([x, y], k=k)
        idx = np.atleast_1d(idx)
        return [int(self._segment_ids_sorted[int(i)]) for i in idx]

    def node_distance_m(self, a: int, b: int) -> float:
        la, lb = self.landmark(a), self.landmark(b)
        return math.hypot(la.x - lb.x, la.y - lb.y)

    # -- region / operability ----------------------------------------------

    def segments_in_region(self, region_id: int) -> list[RoadSegment]:
        return [s for s in self.segments() if s.region_id == region_id]

    def closed_segments(self, flood_model, t_seconds: float) -> frozenset[int]:
        """Segment ids destroyed/submerged at time ``t``.

        A directed segment is closed when its midpoint lies in a flood zone
        — the satellite-imaging crop of the paper's remaining available
        network G̃.
        """
        if self._midpoints_sorted is not None and self._segment_ids_sorted is not None:
            mids = self._midpoints_sorted
            ids = self._segment_ids_sorted
        else:
            mids = np.array([self.segment_midpoint(s) for s in self.segment_ids()])
            ids = np.array(self.segment_ids())
        flooded = flood_model.is_flooded_many(mids, t_seconds)
        return frozenset(int(i) for i in ids[flooded])


#: One dense-index adjacency row: (segment index, other node index, cost).
IndexRow = tuple[int, int, float]


class RoutingIndex:
    """Dense-index adjacency of a :class:`RoadNetwork`.

    Landmarks are numbered ``0..n-1`` in sorted-id order and segments
    ``0..m-1`` likewise.  The numbering is monotone in the ids, so a
    ``(cost, node)`` heap breaks ties on indices exactly as it does on ids.
    ``rows[(reverse, weight)][i]`` lists node ``i``'s rows in the order of
    :meth:`RoadNetwork.out_segments` (``in_segments`` when ``reverse``): the
    segment's index, the index of its other end, and its ``weight``
    (``"time"``: free-flow seconds, ``"length"``: metres) as the cost.
    """

    __slots__ = (
        "node_ids", "index_of", "segment_ids", "segment_index_of",
        "seg_u", "seg_v", "seg_time_s", "seg_length_m", "rows",
    )

    def __init__(self, network: RoadNetwork) -> None:
        self.node_ids = network.landmark_ids()
        self.index_of = {node: i for i, node in enumerate(self.node_ids)}
        self.segment_ids = network.segment_ids()
        self.segment_index_of = {s: k for k, s in enumerate(self.segment_ids)}
        segs = network.segments()
        index_of, seg_index_of = self.index_of, self.segment_index_of
        self.seg_u = [index_of[s.u] for s in segs]
        self.seg_v = [index_of[s.v] for s in segs]
        self.seg_time_s = [s.free_flow_time_s for s in segs]
        self.seg_length_m = [s.length_m for s in segs]
        self.rows: dict[tuple[bool, str], list[list[IndexRow]]] = {}
        for reverse, adjacent, ends in (
            (False, network.out_segments, self.seg_v),
            (True, network.in_segments, self.seg_u),
        ):
            per_node = [[seg_index_of[s.segment_id] for s in adjacent(n)] for n in self.node_ids]
            for weight, cost in (("time", self.seg_time_s), ("length", self.seg_length_m)):
                self.rows[(reverse, weight)] = [
                    [(k, ends[k], cost[k]) for k in ks] for ks in per_node
                ]


@dataclass
class NetworkStats:
    """Summary statistics of a road network (used by docs/examples)."""

    num_landmarks: int
    num_segments: int
    total_length_km: float
    mean_segment_length_m: float
    segments_per_region: dict[int, int] = field(default_factory=dict)


def network_stats(network: RoadNetwork) -> NetworkStats:
    segs = network.segments()
    per_region: dict[int, int] = {}
    for s in segs:
        per_region[s.region_id] = per_region.get(s.region_id, 0) + 1
    total = sum(s.length_m for s in segs)
    return NetworkStats(
        num_landmarks=network.num_landmarks,
        num_segments=len(segs),
        total_length_km=total / 1000.0,
        mean_segment_length_m=total / len(segs) if segs else 0.0,
        segments_per_region=dict(sorted(per_region.items())),
    )
