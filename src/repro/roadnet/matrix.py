"""All-pairs free-flow travel times.

Dispatchers need many travel-time *estimates* per cycle (cost matrices for
the IP baselines, candidate features for the RL policy).  Computing them
on demand would dominate runtime, so the full node-to-node matrix is built
once per network with scipy's sparse Dijkstra.  Actual driving in the
simulator still uses exact per-leg routing on the operable network — the
matrix is only the planners' mental map, which (deliberately, for the
flood-unaware baselines) ignores closures.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

from repro.roadnet.graph import RoadNetwork


class TravelTimeOracle:
    """Dense free-flow travel-time lookups between landmarks."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network
        index = network.routing_index()
        self._index = index.index_of
        n = len(index.node_ids)
        graph = csr_matrix((index.seg_time_s, (index.seg_u, index.seg_v)), shape=(n, n))
        self._times = sparse_dijkstra(graph, directed=True).astype(np.float32)
        # Segment-end lookup: travel time to the end of segment e is time to
        # e.u plus e's own traversal time.
        self._seg_index = index.segment_index_of
        self._seg_u = np.array(index.seg_u)
        self._seg_time = np.array(index.seg_time_s, dtype=np.float32)

    def node_to_node_s(self, src: int, dst: int) -> float:
        """Free-flow travel time between two landmarks, seconds."""
        return float(self._times[self._index[src], self._index[dst]])

    def node_to_segment_end_s(self, src: int, segment_id: int) -> float:
        """Free-flow time from a landmark to the *end* of a segment (the
        paper's dispatch destination semantics)."""
        i = self._seg_index[segment_id]
        return float(self._times[self._index[src], self._seg_u[i]] + self._seg_time[i])

    def node_to_segments_s(self, src: int, segment_ids: list[int]) -> np.ndarray:
        """Vectorized :meth:`node_to_segment_end_s` for many segments."""
        idx = np.array([self._seg_index[s] for s in segment_ids])
        return self._times[self._index[src], self._seg_u[idx]] + self._seg_time[idx]

    def nodes_to_segments_s(
        self, srcs: list[int], segment_ids: list[int]
    ) -> np.ndarray:
        """:meth:`node_to_segments_s` for many sources in one gather:
        ``(len(srcs), len(segment_ids))``, row ``i`` equal to
        ``node_to_segments_s(srcs[i], segment_ids)``."""
        idx = np.array([self._seg_index[s] for s in segment_ids], dtype=np.intp)
        rows = np.array([self._index[n] for n in srcs], dtype=np.intp)
        return self._times[np.ix_(rows, self._seg_u[idx])] + self._seg_time[idx]


def travel_time_oracle(network: RoadNetwork) -> TravelTimeOracle:
    """The network's oracle, built once (the matrix takes ~a second) and
    kept for the network's lifetime."""
    return network.engine("travel_time_oracle", TravelTimeOracle)
