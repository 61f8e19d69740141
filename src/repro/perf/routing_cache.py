"""One closure-aware routing engine per road network.

Every caller that routes on a network — the event kernel, the MobiRescue
matcher, the hospital selector and the mobility generator — uses the
network's one :class:`RoutingCache` (:func:`routing_cache`), which:

* **searches on dense node indices** (:class:`~repro.roadnet.graph.RoutingIndex`,
  numbered in sorted-id order, so ``(cost, node)`` heap ties pop as they do
  on ids).  Rows keep the seed's order and relaxation keeps the strict
  ``<``, so every label and tie-break equals
  :func:`repro.roadnet.routing.dijkstra_tree`'s.  A closed set re-filters
  only the rows of nodes that hold a closed segment
  (:func:`filtered_adjacency`): dropping rows the seed loop skips leaves
  its relax sequence unchanged;
* **stores full trees compactly** — a float64 ``dist`` and an int32
  prev-segment array (:class:`Tree`) — in one LRU with filtered rows and
  hospital fields, bounded by one byte budget;
* **shares them across simulations**: keys carry the ``closed`` frozenset,
  so equal closed sets hit the same entries and a moved flood front ages
  out of the LRU.

Every query is answered from a stored full tree: a route walks its root's
tree and a cost row or column is the tree itself.  Team positions, trip
anchors and hospitals recur within and across simulations, so nearly every
root is asked about again and one full search on the first query costs
less than the seed's target-pruned search per query.  Pruned and full runs
agree on every settled label, and routes are re-summed from the segment
walk, so every answer is bit-identical to :class:`DirectRouter`'s.

Bookkeeping tolerates concurrent callers (a timed-out training attempt can
be abandoned while it still simulates beside the next one) without a lock,
which the rollout workers' fork closure forbids: every LRU step is one
atomic dict call, an entry is counted only by the caller that inserted it
and uncounted only by the one that evicted it, and the byte count's ``+=``
runs no Python code the interpreter could switch threads in.  No step
raises when another thread evicts the entry it touches, and answers stay
exact.  Returned trees and fields are the cache's own: treat them as
read-only.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from collections import OrderedDict
from collections.abc import Iterator, Mapping, Sequence
from typing import cast

from repro.roadnet.graph import IndexRow, RoadNetwork, RoutingIndex
from repro.roadnet.routing import (
    Route,
    route_to_segment,
    shortest_path,
    shortest_time_from,
    shortest_time_to,
)

_WEIGHTS = ("time", "length")
_INF = float("inf")
_EMPTY: frozenset[int] = frozenset()

#: Default byte budget of one network's cache: room for about 4,300 full
#: trees of the 484-landmark Charlotte network.
DEFAULT_MAX_BYTES = 32 * 1024 * 1024

#: Distinct closed sets remembered for identity interning before the
#: memo restarts (interning affects lookup speed, never answers).
_MAX_CLOSURES = 1024

#: Per-node dense-index rows: ``rows[i] = [(segment, other node, cost), ...]``.
Rows = list[list[IndexRow]]

#: LRU keys: ``(kind, closed, ...)`` for kinds "rows", "tree" and "field".
_Key = tuple[object, ...]


def filtered_adjacency(
    network: RoadNetwork,
    closed: frozenset[int],
    reverse: bool = False,
    weight: str = "time",
) -> Rows:
    """The network's index rows with closed segments dropped, row order kept.
    Only nodes that hold a closed segment get a new row list; the others
    share the base rows, which are returned as they are when nothing is
    closed."""
    if weight not in _WEIGHTS:
        raise ValueError(f"weight must be one of {_WEIGHTS}")
    index = network.routing_index()
    base = index.rows[(reverse, weight)]
    if not closed:
        return base
    seg_index_of = index.segment_index_of
    dead = {seg_index_of[s] for s in closed if s in seg_index_of}
    ends = index.seg_v if reverse else index.seg_u
    rows = list(base)
    for node in {ends[k] for k in dead}:
        rows[node] = [row for row in base[node] if row[0] not in dead]
    return rows


def _search(rows: Rows, root: int) -> tuple[list[float], list[int], list[int]]:
    """The seed ``dijkstra_tree`` loop on dense indices: ``(dist, prev,
    order)`` with ``inf`` / -1 for unreached nodes, ``prev`` as segment
    indices and ``order`` the reached nodes in the order the seed's ``dist``
    dict gains them.  Pushes per node strictly decrease, so an entry is
    stale exactly when its cost exceeds the label: the seed's ``done`` set.
    """
    inf = _INF
    dist = [inf] * len(rows)
    prev = [-1] * len(rows)
    dist[root] = 0.0
    order = [root]
    heap = [(0.0, root)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        for k, other, w in rows[node]:
            nd = d + w
            if nd < dist[other]:
                if dist[other] == inf:
                    order.append(other)
                dist[other] = nd
                prev[other] = k
                push(heap, (nd, other))
    return dist, prev, order


def _route(index: RoutingIndex, src: int, walk: list[int]) -> Route:
    """The :class:`Route` along segment indices ``walk`` from node ``src``,
    summed left to right as :func:`~repro.roadnet.routing.route_from_segments`
    sums."""
    ids, seg_v = index.node_ids, index.seg_v
    times, lengths = index.seg_time_s, index.seg_length_m
    nodes = [ids[src]]
    time_s = 0.0
    length = 0.0
    for k in walk:
        nodes.append(ids[seg_v[k]])
        time_s += times[k]
        length += lengths[k]
    seg_ids = index.segment_ids
    return Route(tuple(nodes), tuple([seg_ids[k] for k in walk]), time_s, length)


def _chain(links: Sequence[int], ends: list[int], start: int, stop: int) -> list[int]:
    """The segment indices met following ``links`` (one segment per node)
    from ``start`` to ``stop``, each step moving to the segment's end in
    ``ends``."""
    chain: list[int] = []
    node = start
    while node != stop:
        k = links[node]
        chain.append(k)
        node = ends[k]
    return chain


class Tree(Mapping[int, float]):
    """One stored full Dijkstra tree, read as ``landmark -> cost``.

    Unreached landmarks are absent, and iteration follows ``order``, the
    order in which the seed's ``dist`` dict gains its keys, so the mapping
    equals that dict entry for entry and in order.
    """

    __slots__ = ("dist", "prev", "order", "_index")

    def __init__(
        self, index: RoutingIndex, dist: list[float], prev: list[int], order: list[int]
    ) -> None:
        self._index = index
        self.dist = array("d", dist)
        self.prev = array("i", prev)
        self.order = array("i", order)

    @property
    def nbytes(self) -> int:
        dist, prev, order = self.dist, self.prev, self.order
        return memoryview(dist).nbytes + memoryview(prev).nbytes + memoryview(order).nbytes

    def __getitem__(self, node: int) -> float:
        d = self.dist[self._index.index_of[node]]
        if d == _INF:
            raise KeyError(node)
        return d

    def get(  # type: ignore[override]
        self, node: int, default: float | None = None
    ) -> float | None:
        i = self._index.index_of.get(node)
        if i is None:
            return default
        d = self.dist[i]
        return default if d == _INF else d

    def __iter__(self) -> Iterator[int]:
        ids = self._index.node_ids
        return (ids[i] for i in self.order)

    def __len__(self) -> int:
        return len(self.order)


class HospitalField:
    """Nearest-hospital assignment for every node under one closed set.

    One multi-source reverse Dijkstra answers every nearest-hospital query
    and every route-to-hospital for the whole fleet, where the seed runs
    one full forward tree per querying team.  The heap orders by
    ``(distance, hospital list index, node)`` and relaxation prefers the
    earlier-listed hospital on exact distance ties — the seed argmin's
    first-minimum-wins scan — so the selected hospital and the path match
    the seed's forward search wherever shortest paths are unique (path
    costs are sums of continuous random segment times, so cross-path float
    ties do not occur in generated scenarios; the golden-equivalence suite
    pins this empirically).
    """

    __slots__ = ("hospital_nodes", "_index", "_nearest", "_next")

    def __init__(
        self,
        network: RoadNetwork,
        hospital_nodes: tuple[int, ...] | list[int],
        closed: frozenset[int],
        rows: Rows | None = None,
    ) -> None:
        index = network.routing_index()
        if rows is None:
            rows = filtered_adjacency(network, closed, reverse=True)
        self.hospital_nodes = tuple(hospital_nodes)
        self._index = index
        n = len(index.node_ids)
        dist = [_INF] * n
        order_of = [-1] * n
        nearest = [-1] * n
        next_seg = [-1] * n
        heap: list[tuple[float, int, int]] = []
        for order, h in enumerate(self.hospital_nodes):
            i = index.index_of[h]
            if dist[i] == _INF or order < order_of[i]:
                dist[i] = 0.0
                order_of[i] = order
                heapq.heappush(heap, (0.0, order, i))
        done = bytearray(n)
        while heap:
            d, order, node = heapq.heappop(heap)
            if done[node]:
                continue
            done[node] = 1
            nearest[node] = order
            for k, other, w in rows[node]:
                nd = d + w
                cur = dist[other]
                if nd < cur or (nd == cur and order < order_of[other]):
                    dist[other] = nd
                    order_of[other] = order
                    next_seg[other] = k
                    heapq.heappush(heap, (nd, order, other))
        #: Per node: list index of its nearest hospital (-1: none reachable).
        self._nearest = array("i", nearest)
        #: Per node: segment index of the first step toward that hospital.
        self._next = array("i", next_seg)

    @property
    def nbytes(self) -> int:
        return memoryview(self._nearest).nbytes + memoryview(self._next).nbytes

    def nearest_hospital(self, node: int) -> int | None:
        """Landmark id of ``node``'s nearest hospital (None: marooned)."""
        i = self._index.index_of.get(node)
        if i is None or self._nearest[i] < 0:
            return None
        return self.hospital_nodes[self._nearest[i]]

    def route(self, src: int) -> Route | None:
        """The ``src`` → nearest-hospital route, or None when marooned.

        Times and lengths are summed from the segment sequence, as the seed
        does, so no search-accumulated float reaches a recorded result.
        """
        target = self.nearest_hospital(src)
        if target is None:
            return None
        if target == src:
            return Route((src,), (), 0.0, 0.0)
        index = self._index
        start, stop = index.index_of[src], index.index_of[target]
        return _route(index, start, _chain(self._next, index.seg_v, start, stop))


class DirectRouter:
    """Per-call seed Dijkstra behind the :class:`RoutingCache` queries."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def route(
        self, src: int, dst: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> Route | None:
        return shortest_path(self.network, src, dst, closed=closed, weight=weight)

    def route_to_segment(
        self, src: int, segment_id: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> Route | None:
        return route_to_segment(self.network, src, segment_id, closed=closed, weight=weight)

    def time_from(
        self, src: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> dict[int, float]:
        return shortest_time_from(self.network, src, closed=closed, weight=weight)

    def time_to(
        self, dst: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> dict[int, float]:
        return shortest_time_to(self.network, dst, closed=closed, weight=weight)


class RoutingCache:
    """The routing engine of one road network (see module docstring).

    ``max_bytes`` bounds the stored trees, filtered rows and hospital
    fields together; the least recently used entry is evicted first.
    ``stored_bytes`` counts their array and row-list bytes.
    """

    def __init__(self, network: RoadNetwork, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError("the byte budget must be positive")
        self.network = network
        self.index = network.routing_index()
        self.max_bytes = int(max_bytes)
        self.stored_bytes = 0
        self._lru: OrderedDict[_Key, tuple[object, int]] = OrderedDict()
        self._closures: dict[frozenset[int], frozenset[int]] = {}
        #: ``(closed as passed, its interned object)`` of the last lookup.
        self._last_closed: tuple[object, frozenset[int]] = (_EMPTY, _EMPTY)
        self.hits = 0
        self.misses = 0

    # -- store ----------------------------------------------------------------

    def _intern(self, closed: frozenset[int]) -> frozenset[int]:
        """One object per distinct closed set, so keys compare by identity."""
        last = self._last_closed
        if last[0] is closed:
            return last[1]
        if not closed:
            return _EMPTY
        canon = self._closures.get(closed)
        if canon is None:
            if len(self._closures) >= _MAX_CLOSURES:
                self._closures.clear()
            canon = self._closures.setdefault(closed, closed)
        self._last_closed = (closed, canon)
        return canon

    def _get(self, key: _Key) -> object | None:
        entry = self._lru.get(key)
        if entry is None:
            return None
        try:
            self._lru.move_to_end(key)
        except KeyError:
            pass  # evicted meanwhile by a concurrent caller
        return entry[0]

    def _put(self, key: _Key, value: object, nbytes: int) -> None:
        lru = self._lru
        if lru.setdefault(key, (value, nbytes))[0] is not value:
            return  # a concurrent caller stored an equal entry first
        self.stored_bytes += nbytes
        while self.stored_bytes > self.max_bytes:
            try:
                _, (_, freed) = lru.popitem(last=False)
            except KeyError:
                break
            self.stored_bytes -= freed

    def _rows(self, closed: frozenset[int], reverse: bool, weight: str) -> Rows:
        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        if not closed:
            return self.index.rows[(reverse, weight)]
        key = ("rows", closed, reverse, weight)
        cached = self._get(key)
        if cached is not None:
            return cast(Rows, cached)
        rows = filtered_adjacency(self.network, closed, reverse, weight)
        base = self.index.rows[(reverse, weight)]
        nbytes = sys.getsizeof(rows) + sum(
            sys.getsizeof(r) for r, b in zip(rows, base) if r is not b
        )
        self._put(key, rows, nbytes)
        return rows

    def _node(self, node: int) -> int:
        try:
            return self.index.index_of[node]
        except KeyError:
            raise KeyError(f"unknown landmark id {node}") from None

    def _tree(self, root: int, closed: frozenset[int], weight: str, reverse: bool) -> Tree:
        """The full tree of dense ``root`` under interned ``closed``."""
        key = ("tree", closed, weight, reverse, root)
        cached = self._get(key)
        if cached is not None:
            self.hits += 1
            return cast(Tree, cached)
        self.misses += 1
        rows = self._rows(closed, reverse, weight)
        built = Tree(self.index, *_search(rows, root))
        self._put(key, built, built.nbytes)
        return built

    def _path(self, src: int, dst: int, closed: frozenset[int], weight: str) -> list[int] | None:
        """Segment-index walk ``src`` → ``dst`` (dense, ``src != dst``)."""
        prev = self._tree(src, self._intern(closed), weight, False).prev
        if prev[dst] < 0:
            return None
        walk = _chain(prev, self.index.seg_u, dst, src)
        walk.reverse()
        return walk

    def hospital_field(
        self, hospital_nodes: tuple[int, ...], closed: frozenset[int]
    ) -> HospitalField:
        """The :class:`HospitalField` of ``hospital_nodes`` under ``closed``."""
        closed = self._intern(closed)
        key = ("field", closed, hospital_nodes)
        cached = self._get(key)
        if cached is not None:
            return cast(HospitalField, cached)
        field = HospitalField(
            self.network, hospital_nodes, closed, self._rows(closed, True, "time")
        )
        self._put(key, field, field.nbytes)
        return field

    def clear(self) -> None:
        self._lru.clear()
        self._closures.clear()
        self.stored_bytes = 0

    @property
    def num_trees(self) -> int:
        return sum(1 for key in list(self._lru) if key[0] == "tree")

    # -- routing interface (shared with DirectRouter) ---------------------------

    def route(
        self, src: int, dst: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> Route | None:
        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        s, d = self._node(src), self._node(dst)
        if s == d:
            return Route((src,), (), 0.0, 0.0)
        walk = self._path(s, d, closed, weight)
        return None if walk is None else _route(self.index, s, walk)

    def route_to_segment(
        self, src: int, segment_id: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> Route | None:
        """The route to ``segment_id``'s head landmark and then along the
        segment, built in one pass (``None`` if closed or unreachable)."""
        self.network.segment(segment_id)
        if segment_id in closed:
            return None
        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        index = self.index
        k = index.segment_index_of[segment_id]
        s, u = self._node(src), index.seg_u[k]
        walk = [] if s == u else self._path(s, u, closed, weight)
        if walk is None:
            return None
        walk.append(k)
        return _route(index, s, walk)

    def time_from(
        self, src: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> Tree:
        return self._tree(self._node(src), self._intern(closed), weight, False)

    def time_to(
        self, dst: int, closed: frozenset[int] = _EMPTY, weight: str = "time"
    ) -> Tree:
        return self._tree(self._node(dst), self._intern(closed), weight, True)


#: What the simulators route with: the engine, or the seed reference.
Router = RoutingCache | DirectRouter


def routing_cache(network: RoadNetwork) -> RoutingCache:
    """The network's one routing engine, kept for the network's lifetime."""
    return network.engine("routing", RoutingCache)
