"""Shortest-path routing on the road network.

The paper routes rescue teams with "an existing routing algorithm (e.g.,
the Dijkstra algorithm)" over the remaining available network G̃ (Section
IV-C3).  ``closed`` carries G̃: any segment in that set is skipped.  Costs
are free-flow traversal times by default (``weight='time'``), which is what
the driving-delay metric sums, or segment lengths (``weight='length'``).

All public entry points (:func:`shortest_path`, :func:`shortest_time_from`,
:func:`shortest_time_to`, :func:`route_to_segment`) share one internal
Dijkstra, :func:`dijkstra_tree`: the seed loop, on landmark ids with a
per-row closed test, whose labels and tie-breaks the routing engine in
``repro.perf.routing_cache`` rebuilds from scipy's csgraph, and the
reference its results are checked against bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.roadnet.graph import RoadNetwork

_WEIGHTS = ("time", "length")


@dataclass(frozen=True)
class Route:
    """A drivable route: the paper's Φ_kj = {p_mk, ..., e_j}."""

    nodes: tuple[int, ...]
    segment_ids: tuple[int, ...]
    travel_time_s: float
    length_m: float

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.segment_ids) + 1:
            raise ValueError("route must have exactly one more node than segments")

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]

    @property
    def is_trivial(self) -> bool:
        return not self.segment_ids


def dijkstra_tree(
    network: RoadNetwork,
    root: int,
    closed: frozenset[int] = frozenset(),
    weight: str = "time",
    *,
    reverse: bool = False,
    target: int | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """One Dijkstra pass over the operable network.

    Returns ``(dist, prev_seg)``: cost from ``root`` to every settled node
    (from every node *to* ``root`` when ``reverse``), and the segment id
    through which each node's best path arrives.  With ``target`` the search
    stops as soon as the target is popped; the entries computed up to that
    point — in particular everything on the shortest ``root``→``target``
    path — are identical to a full run, because settled labels are final
    and later relaxations only update on a strict improvement.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"weight must be one of {_WEIGHTS}")
    network.landmark(root)
    index = network.routing_index()
    rows, index_of = index.rows[(reverse, weight)], index.index_of
    node_ids, segment_ids = index.node_ids, index.segment_ids
    dist: dict[int, float] = {root: 0.0}
    prev_seg: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, root)]
    inf = float("inf")
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if target is not None and node == target:
            break
        done.add(node)
        for k, o, w in rows[index_of[node]]:
            sid = segment_ids[k]
            if sid in closed:
                continue
            nd = d + w
            other = node_ids[o]
            if nd < dist.get(other, inf):
                dist[other] = nd
                prev_seg[other] = sid
                heapq.heappush(heap, (nd, other))
    return dist, prev_seg


def route_from_tree(
    network: RoadNetwork, src: int, dst: int, prev_seg: dict[int, int]
) -> Route | None:
    """Reconstruct the ``src``→``dst`` route from a *forward* Dijkstra tree
    rooted at ``src``.  ``None`` when ``dst`` was never reached."""
    if src == dst:
        return Route((src,), (), 0.0, 0.0)
    if dst not in prev_seg:
        return None
    seg_ids: list[int] = []
    node = dst
    while node != src:
        sid = prev_seg[node]
        seg_ids.append(sid)
        node = network.segment(sid).u
    seg_ids.reverse()
    return route_from_segments(network, src, seg_ids)


def shortest_path(
    network: RoadNetwork,
    src: int,
    dst: int,
    closed: frozenset[int] = frozenset(),
    weight: str = "time",
) -> Route | None:
    """Dijkstra shortest path from node ``src`` to node ``dst``.

    Returns ``None`` when ``dst`` is unreachable through operable segments.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"weight must be one of {_WEIGHTS}")
    network.landmark(src)
    network.landmark(dst)
    if src == dst:
        return Route((src,), (), 0.0, 0.0)
    _, prev_seg = dijkstra_tree(network, src, closed, weight, target=dst)
    return route_from_tree(network, src, dst, prev_seg)


def route_from_segments(network: RoadNetwork, src: int, seg_ids: list[int]) -> Route:
    """Build a :class:`Route` from a contiguous segment sequence.

    Travel time and length are re-summed from the segment records, so a
    route built from any search's segment walk carries exactly the floats
    a direct construction would.
    """
    nodes = [src]
    time_s = 0.0
    length = 0.0
    for sid in seg_ids:
        seg = network.segment(sid)
        if seg.u != nodes[-1]:
            raise ValueError("discontinuous segment sequence")
        nodes.append(seg.v)
        time_s += seg.free_flow_time_s
        length += seg.length_m
    return Route(tuple(nodes), tuple(seg_ids), time_s, length)


def append_segment(network: RoadNetwork, head: Route, segment_id: int) -> Route:
    """Extend a route that ends at a segment's head landmark with the
    segment itself (the paper's route-to-``e_j`` destination semantics).
    ``head``'s sums are :func:`route_from_segments`' left fold, so one more
    term gives the floats a re-sum of the whole sequence would."""
    seg = network.segment(segment_id)
    if seg.u != head.dst:
        raise ValueError("discontinuous segment sequence")
    time_s, length = head.travel_time_s + seg.free_flow_time_s, head.length_m + seg.length_m
    return Route(head.nodes + (seg.v,), head.segment_ids + (segment_id,), time_s, length)


def shortest_time_from(
    network: RoadNetwork,
    src: int,
    closed: frozenset[int] = frozenset(),
    weight: str = "time",
) -> dict[int, float]:
    """Single-source Dijkstra: cost from ``src`` to every reachable node.

    Used by the integer-programming baselines, which need full cost rows for
    their assignment matrices.
    """
    dist, _ = dijkstra_tree(network, src, closed, weight)
    return dist


def shortest_time_to(
    network: RoadNetwork,
    dst: int,
    closed: frozenset[int] = frozenset(),
    weight: str = "time",
) -> dict[int, float]:
    """Single-destination Dijkstra: cost from every node *to* ``dst``.

    Runs Dijkstra over reversed edges; used to build cost columns for
    team-to-request matching without one search per team.
    """
    dist, _ = dijkstra_tree(network, dst, closed, weight, reverse=True)
    return dist


def route_to_segment(
    network: RoadNetwork,
    src: int,
    segment_id: int,
    closed: frozenset[int] = frozenset(),
    weight: str = "time",
) -> Route | None:
    """Route from node ``src`` to the *end* of a destination segment.

    The paper dispatches a team to road segment e_j and measures delay to
    the end of e_j; the returned route therefore terminates with e_j itself
    (route to e_j's head landmark, then traverse e_j).  ``None`` if e_j is
    closed or unreachable.
    """
    seg = network.segment(segment_id)
    if segment_id in closed:
        return None
    head = shortest_path(network, src, seg.u, closed=closed, weight=weight)
    if head is None:
        return None
    return append_segment(network, head, segment_id)
