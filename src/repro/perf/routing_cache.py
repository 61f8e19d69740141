"""Closure-aware routing cache over the landmark road network.

The simulation engine re-ran single-source Dijkstra for every team event:
one full search to find the nearest hospital, another to route there, one
more per dispatch command.  Within one dispatch cycle those searches repeat
the same ``(source, closed-set)`` pairs over and over, and across cycles
the closed set only changes when the flood front moves.

:class:`RoutingCache` memoizes whole Dijkstra *trees* — the ``(dist,
prev_seg)`` pair of :func:`repro.roadnet.routing.dijkstra_tree` — keyed by
``(closed-set, weight)`` and then by ``(root, direction)``.  Every query
kind (point-to-point route, route to a segment end, full cost row/column)
is answered from the same tree, so:

* a nearest-hospital scan followed by the route to that hospital costs one
  search instead of two;
* N teams at the same landmark share one tree;
* an unchanged flood front makes entire dispatch cycles allocation-free.

**Bit-identical by construction.**  Searches run the seed
``dijkstra_tree`` loop on adjacency prefiltered once per closed set
(:func:`filtered_adjacency`): dropping the rows the seed loop
``continue``s over leaves its relax sequence, and so every label and
tie-break, unchanged.  Routes are rebuilt with the seed tree-walk.
Early-terminated and full runs agree on every settled label because
Dijkstra labels are final when popped and later relaxations only replace
on strict improvement — the property the golden-equivalence suite locks
in against :class:`DirectRouter`.

**Invalidation.**  Keys carry the ``closed`` frozenset, so a moved flood
front is automatically a different cache line; stale trees and filtered
adjacencies age out of bounded LRUs (no explicit invalidation hooks to
forget).  Returned mappings are the cache's own structures: treat them as
read-only.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Protocol

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import (
    Route,
    append_segment,
    route_from_tree,
    route_to_segment,
    shortest_path,
    shortest_time_from,
    shortest_time_to,
)

_WEIGHTS = ("time", "length")

#: (dist, prev_seg) of one Dijkstra pass.
Tree = tuple[dict[int, float], dict[int, int]]

#: Adjacency with closed rows removed: node -> ((segment, other, time, length), ...).
Adjacency = dict[int, list[tuple[int, int, float, float]]]


def filtered_adjacency(
    network: RoadNetwork, closed: frozenset[int], reverse: bool = False
) -> Adjacency:
    """Adjacency rows with closed segments dropped (relax order preserved).

    With nothing closed this is the network's own adjacency object.
    """
    adj = network.in_adjacency() if reverse else network.out_adjacency()
    if not closed:
        return adj
    return {
        node: [row for row in rows if row[0] not in closed]
        for node, rows in adj.items()
    }


class _ClosureLine:
    """Trees cached under one ``(closed, weight)`` snapshot.

    ``seen`` remembers roots that were queried once already: a root's
    first point-to-point query runs the same target-pruned search the seed
    path runs (a full tree would be pure overhead for a root never asked
    about again — team positions drift every tick), and only the second
    touch promotes the root to a cached full tree.
    """

    __slots__ = ("trees", "seen")

    def __init__(self) -> None:
        self.trees: OrderedDict[tuple[int, bool], Tree] = OrderedDict()
        self.seen: set[tuple[int, bool]] = set()


class Router(Protocol):
    """The routing interface consumed by the engine and dispatchers.

    Implemented by :class:`RoutingCache` (memoized) and
    :class:`DirectRouter` (per-call seed Dijkstra, the golden reference).
    """

    def route(
        self,
        src: int,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None: ...

    def route_to_segment(
        self,
        src: int,
        segment_id: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None: ...

    def time_from(
        self,
        src: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> dict[int, float]: ...

    def time_to(
        self,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> dict[int, float]: ...


class DirectRouter:
    """Per-call seed Dijkstra — zero caching, the equivalence baseline."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def route(
        self,
        src: int,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None:
        return shortest_path(self.network, src, dst, closed=closed, weight=weight)

    def route_to_segment(
        self,
        src: int,
        segment_id: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None:
        return route_to_segment(
            self.network, src, segment_id, closed=closed, weight=weight
        )

    def time_from(
        self,
        src: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> dict[int, float]:
        return shortest_time_from(self.network, src, closed=closed, weight=weight)

    def time_to(
        self,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> dict[int, float]:
        return shortest_time_to(self.network, dst, closed=closed, weight=weight)


class RoutingCache:
    """Memoized Dijkstra trees for one road network (see module docstring).

    ``max_closure_sets`` bounds how many distinct ``(closed, weight)``
    snapshots stay warm (the flood front plus the flood-unaware planners'
    empty set comfortably fit), and as many filtered adjacencies per
    search direction; ``max_trees_per_closure`` bounds roots per snapshot
    (team positions + hospitals + trip anchors).  All evict LRU.
    """

    def __init__(
        self,
        network: RoadNetwork,
        max_closure_sets: int = 16,
        max_trees_per_closure: int = 8192,
    ) -> None:
        if max_closure_sets < 1 or max_trees_per_closure < 1:
            raise ValueError("cache bounds must be positive")
        self.network = network
        self.max_closure_sets = int(max_closure_sets)
        self.max_trees_per_closure = int(max_trees_per_closure)
        self._closures: OrderedDict[
            tuple[frozenset[int], str], _ClosureLine
        ] = OrderedDict()
        self._adjacencies: OrderedDict[tuple[frozenset[int], bool], Adjacency] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    # -- tree store ---------------------------------------------------------

    def _line(self, closed: frozenset[int], weight: str) -> _ClosureLine:
        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        ckey = (closed, weight)
        line = self._closures.get(ckey)
        if line is None:
            line = _ClosureLine()
            self._closures[ckey] = line
            while len(self._closures) > self.max_closure_sets:
                self._closures.popitem(last=False)
        else:
            self._closures.move_to_end(ckey)
        return line

    def _store(self, line: _ClosureLine, tkey: tuple[int, bool], tree: Tree) -> None:
        line.trees[tkey] = tree
        while len(line.trees) > self.max_trees_per_closure:
            line.trees.popitem(last=False)
        if len(line.seen) > 4 * self.max_trees_per_closure:
            line.seen.clear()

    def adjacency(self, closed: frozenset[int], reverse: bool = False) -> Adjacency:
        """:func:`filtered_adjacency` for ``closed``, memoized per direction."""
        key = (closed, reverse)
        cached = self._adjacencies.get(key)
        if cached is not None:
            self._adjacencies.move_to_end(key)
            return cached
        built = filtered_adjacency(self.network, closed, reverse)
        self._adjacencies[key] = built
        while len(self._adjacencies) > self.max_closure_sets:
            self._adjacencies.popitem(last=False)
        return built

    def _search(
        self,
        root: int,
        closed: frozenset[int],
        weight: str,
        reverse: bool = False,
        target: int | None = None,
    ) -> Tree:
        """The seed ``dijkstra_tree`` loop minus the per-edge closed test."""
        self.network.landmark(root)
        adj = self.adjacency(closed, reverse)
        wi = 2 if weight == "time" else 3
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
            for row in adj[node]:
                nd = d + row[wi]
                other = row[1]
                if nd < dist.get(other, inf):
                    dist[other] = nd
                    prev_seg[other] = row[0]
                    heapq.heappush(heap, (nd, other))
        return dist, prev_seg

    def _tree(
        self, root: int, closed: frozenset[int], weight: str, reverse: bool
    ) -> Tree:
        """Full tree for ``root``, cached unconditionally."""
        line = self._line(closed, weight)
        tkey = (root, reverse)
        tree = line.trees.get(tkey)
        if tree is None:
            self.misses += 1
            tree = self._search(root, closed, weight, reverse=reverse)
            self._store(line, tkey, tree)
        else:
            self.hits += 1
            line.trees.move_to_end(tkey)
        return tree

    def clear(self) -> None:
        self._closures.clear()
        self._adjacencies.clear()

    @property
    def num_trees(self) -> int:
        return sum(len(line.trees) for line in self._closures.values())

    # -- Router interface ---------------------------------------------------

    def route(
        self,
        src: int,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None:
        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        self.network.landmark(src)
        self.network.landmark(dst)
        if src == dst:
            return Route((src,), (), 0.0, 0.0)
        line = self._line(closed, weight)
        tkey = (src, False)
        if tkey in line.trees or tkey in line.seen:
            # A cached tree, or the second touch of this root, which
            # ``_tree`` promotes to a cached full tree.
            tree = self._tree(src, closed, weight, False)
        else:
            # First touch: the same target-pruned search the seed path
            # runs.  Settled labels of pruned and full runs are identical,
            # so the reconstructed route is bit-identical either way.
            line.seen.add(tkey)
            self.misses += 1
            tree = self._search(src, closed, weight, target=dst)
        return route_from_tree(self.network, src, dst, tree[1])

    def route_to_segment(
        self,
        src: int,
        segment_id: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None:
        seg = self.network.segment(segment_id)
        if segment_id in closed:
            return None
        head = self.route(src, seg.u, closed=closed, weight=weight)
        if head is None:
            return None
        return append_segment(self.network, head, segment_id)

    def time_from(
        self,
        src: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> dict[int, float]:
        return self._tree(src, closed, weight, False)[0]

    def time_to(
        self,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> dict[int, float]:
        return self._tree(dst, closed, weight, True)[0]


# -- process-wide wiring -----------------------------------------------------

_CACHES: dict[int, RoutingCache] = {}


def routing_cache(network: RoadNetwork) -> RoutingCache:
    """Per-network memoized cache (same lifetime contract as
    :func:`repro.roadnet.matrix.travel_time_oracle`)."""
    key = id(network)
    cache = _CACHES.get(key)
    if cache is None or cache.network is not network:
        cache = RoutingCache(network)
        _CACHES[key] = cache  # repro: allow-fork-unsafe -- per-process memo; affects speed, never results
    return cache


def clear_routing_caches() -> None:
    """Drop every per-network cache (tests and long-lived processes)."""
    _CACHES.clear()  # repro: allow-fork-unsafe -- per-process memo; affects speed, never results
