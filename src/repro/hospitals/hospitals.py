"""Hospital placement on the road network.

The paper fixes hospital locations to the existing Charlotte hospitals and
has every method deliver rescued people to the nearest one; rescue teams
(ambulances) are initially distributed among hospitals and return to their
nearest hospital between rescues (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.regions import RegionPartition
from repro.perf.routing_cache import routing_cache
from repro.roadnet.graph import RoadNetwork


@dataclass(frozen=True)
class Hospital:
    """A hospital anchored at a road-network landmark."""

    hospital_id: int
    node_id: int
    region_id: int


def place_hospitals(
    network: RoadNetwork,
    partition: RegionPartition,
    extra_downtown: int = 2,
    seed: int = 23,
) -> list[Hospital]:
    """Deterministically place hospitals: one near each region seed plus
    ``extra_downtown`` more in Region 3 (the downtown has several large
    hospitals in Charlotte)."""
    rng = np.random.default_rng(seed)
    hospitals: list[Hospital] = []
    used: set[int] = set()
    hid = 0
    for rid in partition.region_ids:
        sx, sy = partition.seed_xy(rid)
        node = network.nearest_landmark(sx, sy)
        if node in used:  # two seeds snapping to one landmark: nudge away
            node = network.nearest_landmark(sx + 500.0, sy + 500.0)
        used.add(node)
        hospitals.append(Hospital(hid, node, rid))
        hid += 1

    downtown_nodes = [
        n
        for n in network.landmark_ids()
        if partition.region_of(*network.landmark(n).xy) == 3 and n not in used
    ]
    for _ in range(extra_downtown):
        if not downtown_nodes:
            break
        node = int(rng.choice(downtown_nodes))
        downtown_nodes.remove(node)
        used.add(node)
        hospitals.append(Hospital(hid, node, 3))
        hid += 1
    return hospitals


def nearest_hospital(
    network: RoadNetwork,
    node: int,
    hospitals: list[Hospital],
    closed: frozenset[int] = frozenset(),
) -> tuple[Hospital | None, float]:
    """Hospital with the smallest driving time from ``node`` through the
    operable network, and that driving time in seconds.

    Returns ``(None, inf)`` when no hospital is reachable.
    """
    if not hospitals:
        raise ValueError("hospital list is empty")
    times = routing_cache(network).time_from(node, closed=closed)
    best: Hospital | None = None
    best_t = float("inf")
    for h in hospitals:
        t = times.get(h.node_id, float("inf"))
        if t < best_t:
            best, best_t = h, t
    return best, best_t
