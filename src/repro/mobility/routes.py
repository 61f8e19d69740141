"""Route cache for trip generation.

Hundreds of thousands of trips flow between a much smaller set of anchor
pairs (homes, work places, a shared POI pool), so shortest-path routes are
memoized by (src, dst).  Routes are computed on the full network: people
plan with their normal mental map, and disaster slowdowns are applied at
traversal time, not at planning time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.routing_cache import routing_cache
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import Route


@dataclass(frozen=True)
class RouteArrays:
    """A non-trivial route as the per-segment arrays a drive needs.

    ``node_x``/``node_y`` hold the landmark coordinates of ``route.nodes``
    (one more entry than there are segments).
    """

    route: Route
    segment_ids: np.ndarray
    free_flow_time_s: np.ndarray
    speed_limit_mps: np.ndarray
    node_x: np.ndarray
    node_y: np.ndarray

    @classmethod
    def of(cls, route: Route, network: RoadNetwork) -> "RouteArrays":
        """Gather the columns of the network's routing index along the
        route's dense segment walk."""
        index = network.routing_index()
        seg_index_of = index.segment_index_of
        walk = np.array([seg_index_of[s] for s in route.segment_ids], dtype=np.intp)
        nodes = np.array([index.index_of[n] for n in route.nodes], dtype=np.intp)
        return cls(
            route=route,
            segment_ids=np.array(route.segment_ids, dtype=np.int32),
            free_flow_time_s=index.costs["time"][walk],
            speed_limit_mps=index.speed_mps[walk],
            node_x=index.node_x[nodes],
            node_y=index.node_y[nodes],
        )


class RouteCache:
    """Memoized shortest-path lookup, keyed by (src, dst).

    Misses are resolved through :func:`repro.perf.routing_cache
    .routing_cache`, so many destinations reached from one anchor (a home,
    a workplace) share a single Dijkstra tree instead of one search each.
    ``hits``/``misses`` count :meth:`route` lookups.
    """

    def __init__(self, network: RoadNetwork, weight: str = "time") -> None:
        self.network = network
        self.weight = weight
        self._cache: dict[tuple[int, int], Route | None] = {}
        self._arrays: dict[tuple[int, int], RouteArrays | None] = {}
        self.hits = 0
        self.misses = 0

    def route(self, src: int, dst: int) -> Route | None:
        key = (src, dst)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        r = routing_cache(self.network).route(src, dst, weight=self.weight)
        self._cache[key] = r
        return r

    def arrays(self, src: int, dst: int) -> RouteArrays | None:
        """The (src, dst) route as :class:`RouteArrays`; ``None`` when there
        is no route or it has no segments."""
        key = (src, dst)
        try:
            return self._arrays[key]
        except KeyError:
            pass
        r = self.route(src, dst)
        arrays = None if r is None or r.is_trivial else RouteArrays.of(r, self.network)
        self._arrays[key] = arrays
        return arrays

    def __len__(self) -> int:
        return len(self._cache)
