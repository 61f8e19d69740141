"""Flood-closure index for the event kernel (routing itself goes through
the network's one :func:`~repro.perf.routing_cache.routing_cache`).

:class:`FloodClosureIndex` recomputes the flood's closed-segment set
without re-deriving static geometry: midpoint altitudes and region
memberships never change; only the per-region waterline moves.  It gathers
the flood's memoized ``waterlines`` vector, bit for bit the
``waterline_m`` floats the seed calls, and compares against the precomputed
altitudes, producing the identical frozenset — the very same object for as
long as the flooded mask does not change (a closure epoch).
"""

from __future__ import annotations

import numpy as np

from repro.roadnet.graph import RoadNetwork


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

