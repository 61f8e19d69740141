"""Hospital routing and flood-closure indexes for the event kernel.

Point-to-point searches go through the kernel's per-simulation
:class:`~repro.perf.routing_cache.RoutingCache`.  Two structures here
remove the rest of the seed engine's per-query cost without changing a
single answer:

* :class:`HospitalField` — one multi-source reverse Dijkstra per closed
  set answers every nearest-hospital query and every route-to-hospital
  for the whole fleet.  The seed path runs one full forward tree per
  querying team (team positions drift every tick, so the routing cache's
  trees rarely hit); the field replaces ~one tree per team-event with one
  search per flood front.  Settled labels are final when popped, and the
  heap orders ties by ``(distance, hospital list order)`` — exactly the
  seed argmin's first-minimum-wins scan — so the selected hospital and
  the reconstructed path match the seed's forward search wherever
  shortest paths are unique (path costs are sums of continuous random
  segment times, so cross-path float ties do not occur in generated
  scenarios; the golden-equivalence suite pins this empirically).

* :class:`FloodClosureIndex` — the flood's closed-segment set recomputed
  without re-deriving static geometry.  Midpoint altitudes and region
  memberships never change; only the per-region waterline moves.  The
  index gathers the flood's memoized ``waterlines`` vector, bit for bit
  the ``waterline_m`` floats the seed calls, and compares against the
  precomputed altitudes, producing the identical frozenset — the very
  same object for as long as the flooded mask does not change (a closure
  epoch).

The field searches the reverse filtered adjacency the kernel's router
already holds for the closed set (:meth:`RoutingCache.adjacency`).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.perf.routing_cache import Adjacency, filtered_adjacency
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import Route, route_from_segments


class HospitalField:
    """Nearest-hospital assignment for every node under one closed set."""

    __slots__ = ("network", "hospital_nodes", "nearest", "next_seg")

    def __init__(
        self,
        network: RoadNetwork,
        hospital_nodes: list[int],
        closed: frozenset[int],
        adjacency: Adjacency | None = None,
    ) -> None:
        self.network = network
        self.hospital_nodes = hospital_nodes
        #: node -> nearest hospital node (absent: no hospital reachable).
        self.nearest: dict[int, int] = {}
        #: node -> first segment of the node's best path to its hospital.
        self.next_seg: dict[int, int] = {}
        self._build(closed, adjacency)

    def _build(self, closed: frozenset[int], adjacency: Adjacency | None) -> None:
        import heapq

        adj = (
            adjacency
            if adjacency is not None
            else filtered_adjacency(self.network, closed, reverse=True)
        )
        # Multi-source Dijkstra over reversed edges: dist[n] is the cost of
        # n's cheapest path *to* any hospital.  The heap orders by
        # (distance, hospital list index, node), and relaxation prefers the
        # earlier-listed hospital on exact distance ties — the seed's
        # first-minimum-wins argmin over the hospital list.
        dist: dict[int, float] = {}
        order_of: dict[int, int] = {}
        heap: list[tuple[float, int, int]] = []
        for order, h in enumerate(self.hospital_nodes):
            if h not in dist or order < order_of[h]:
                dist[h] = 0.0
                order_of[h] = order
                heapq.heappush(heap, (0.0, order, h))
        done: set[int] = set()
        inf = float("inf")
        nearest = self.nearest
        next_seg = self.next_seg
        hospitals = self.hospital_nodes
        while heap:
            d, order, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            nearest[node] = hospitals[order]
            for row in adj[node]:
                nd = d + row[2]
                other = row[1]
                cur = dist.get(other, inf)
                if nd < cur or (nd == cur and order < order_of[other]):
                    dist[other] = nd
                    order_of[other] = order
                    next_seg[other] = row[0]
                    heapq.heappush(heap, (nd, order, other))

    def route(self, src: int) -> Route | None:
        """The ``src`` → nearest-hospital route, or None when marooned.

        Route times/lengths are re-summed from the segment sequence (the
        seed's ``_route_from_segments``), so no search-accumulated float
        ever reaches a recorded result.
        """
        target = self.nearest.get(src)
        if target is None:
            return None
        if target == src:
            return Route((src,), (), 0.0, 0.0)
        seg_ids: list[int] = []
        node = src
        network = self.network
        while node != target:
            sid = self.next_seg[node]
            seg_ids.append(sid)
            node = network.segment(sid).v
        return route_from_segments(network, src, seg_ids)


class HospitalFieldCache:
    """Per-closed-set :class:`HospitalField` store (LRU, like the tree cache)."""

    def __init__(
        self, network: RoadNetwork, hospital_nodes: list[int], max_sets: int = 16
    ) -> None:
        if max_sets < 1:
            raise ValueError("cache bound must be positive")
        self.network = network
        self.hospital_nodes = list(hospital_nodes)
        self.max_sets = int(max_sets)
        self._fields: OrderedDict[frozenset[int], HospitalField] = OrderedDict()

    def field(
        self, closed: frozenset[int], adjacency: Adjacency | None = None
    ) -> HospitalField:
        cached = self._fields.get(closed)
        if cached is not None:
            self._fields.move_to_end(closed)
            return cached
        built = HospitalField(self.network, self.hospital_nodes, closed, adjacency)
        self._fields[closed] = built
        while len(self._fields) > self.max_sets:
            self._fields.popitem(last=False)
        return built


class FloodClosureIndex:
    """Vectorized ``network.closed_segments(flood, t)`` over static geometry.

    ``flood`` is any object with the :class:`repro.geo.flood.FloodModel`
    surface (``terrain``, ``partition``, ``waterlines``).

    Closure epochs: the flooded mask is compared with the previous query's,
    and while it is unchanged :meth:`closed_at` returns the previous
    ``frozenset`` *object*.  Most 300 s dispatch cycles leave the mask
    unchanged, so every cache keyed on the closed set (routing trees,
    hospital fields, the dispatcher's operable anchors) hits by identity.
    """

    def __init__(self, network: RoadNetwork, flood: object) -> None:
        self.flood = flood
        seg_ids = sorted(network.segment_ids())
        mids = np.array([network.segment_midpoint(s) for s in seg_ids])
        self._seg_ids = np.array(seg_ids)
        # Static per-midpoint geometry: the seed recomputes these on every
        # flood query; they depend only on the frozen network.
        self._alts = flood.terrain.altitude_many(mids)  # type: ignore[attr-defined]
        self._region_slot = flood.partition.region_slot_many(mids)  # type: ignore[attr-defined]
        self._mask: np.ndarray | None = None
        self._closed: frozenset[int] = frozenset()

    def closed_at(self, t_s: float) -> frozenset[int]:
        """Flood-closed segment ids at ``t`` — same frozenset as the seed.

        Gathers the flood's region waterlines (the seed's own
        ``waterline_m`` floats) over precomputed altitudes;
        ``alts <= waterline`` is the seed comparison elementwise.
        """
        wl = self.flood.waterlines(t_s)  # type: ignore[attr-defined]
        flooded = self._alts <= wl[self._region_slot]
        if self._mask is None or not np.array_equal(flooded, self._mask):
            self._mask = flooded
            self._closed = frozenset(int(i) for i in self._seg_ids[flooded])
        return self._closed

