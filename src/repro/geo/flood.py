"""Flood-zone model — the stand-in for NWS satellite flood imaging.

The paper obtains flooded zones from National Weather Service satellite
imaging and uses them for three things: (a) deciding whether a person's
movement is flooding-affected (ground-truth rescue labels, Section III-B2),
(b) computing the remaining operable road network G̃, and (c) motivating the
severity analysis.  We reproduce the same interface from a physical proxy:
at disaster severity ``s`` in region ``R``, the lowest ``max_flood_fraction
* s`` share of R's terrain is underwater.

Severity is supplied per region as a function of time, so the same model
serves both the Florence evaluation storm and the Michael training storm.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.geo.terrain import TerrainField

#: ``severity_fn(region_id, t_seconds) -> float in [0, 1]``
SeverityFn = Callable[[int, float], float]


class FloodModel:
    """Terrain + severity -> time-varying flood zones.

    Per-region altitude quantiles are precomputed from a sampled grid, so
    flood queries are O(1) per point: a point is flooded at time ``t`` when
    its altitude is below the region's flood waterline, which is the
    ``max_flood_fraction * severity(region, t)`` quantile of the region's
    altitude distribution.
    """

    #: Times whose region waterline vector :meth:`waterlines` keeps: a
    #: day of 300 s dispatch cycles plus the predictor's 12 h forecast
    #: horizon is 432 times, so the vector one cycle computes for
    #: ``t + horizon`` is still here when the clock reaches it.  About
    #: 300 bytes an entry.
    WATERLINE_MEMO = 512

    def __init__(
        self,
        terrain: TerrainField,
        severity_fn: SeverityFn,
        max_flood_fraction: float = 0.30,
        grid_resolution: int = 80,
    ) -> None:
        if not (0.0 < max_flood_fraction <= 1.0):
            raise ValueError("max_flood_fraction must be in (0, 1]")
        if grid_resolution < 8:
            raise ValueError("grid_resolution too coarse to estimate quantiles")
        self.terrain = terrain
        self.partition = terrain.partition
        self.severity_fn = severity_fn
        self.max_flood_fraction = float(max_flood_fraction)
        self._region_alt_samples = self._sample_region_altitudes(grid_resolution)
        self._waterline_memo: OrderedDict[float, np.ndarray] = OrderedDict()

    def _sample_region_altitudes(self, n: int) -> dict[int, np.ndarray]:
        part = self.partition
        xs = np.linspace(0.0, part.width_m, n)
        ys = np.linspace(0.0, part.height_m, n)
        gx, gy = np.meshgrid(xs, ys)
        xy = np.column_stack([gx.ravel(), gy.ravel()])
        alts = self.terrain.altitude_many(xy)
        regions = part.region_of_many(xy)
        samples: dict[int, np.ndarray] = {}
        for rid in part.region_ids:
            vals = np.sort(alts[regions == rid])
            if vals.size == 0:
                # A seed so crowded no grid point lands in its cell; fall
                # back to the seed altitude so queries stay well-defined.
                vals = np.array([self.terrain.altitude(*part.seed_xy(rid))])
            samples[rid] = vals
        return samples

    def waterline_m(self, region_id: int, t_seconds: float) -> float:
        """Flood waterline altitude for a region at time ``t`` (meters).

        Terrain at or below the waterline is flooded.  Severity 0 puts the
        waterline below the region's minimum altitude (nothing flooded).
        """
        severity = float(np.clip(self.severity_fn(region_id, t_seconds), 0.0, 1.0))
        alts = self._region_alt_samples[region_id]
        if severity <= 0.0:
            return float(alts[0]) - 1.0
        frac = self.max_flood_fraction * severity
        return float(np.quantile(alts, frac))

    def waterline_table(self, severity: np.ndarray) -> np.ndarray:
        """:meth:`waterline_m` over a (regions, times) grid of severities.

        Row i of ``severity`` holds ``severity_fn(partition.region_ids[i], t)``
        at each time column; entry (i, j) of the result then equals
        ``waterline_m(region_ids[i], t_j)`` bit-for-bit, with one quantile
        call per region instead of one per entry.
        """
        severity = np.clip(np.asarray(severity, dtype=float), 0.0, 1.0)
        out = np.empty_like(severity)
        for i, rid in enumerate(self.partition.region_ids):
            alts = self._region_alt_samples[rid]
            row = np.quantile(alts, self.max_flood_fraction * severity[i])
            out[i] = np.where(severity[i] <= 0.0, float(alts[0]) - 1.0, row)
        return out

    def is_flooded(self, x: float, y: float, t_seconds: float) -> bool:
        """Whether a plane point is inside a flood zone at time ``t``."""
        rid = self.partition.region_of(x, y)
        return self.terrain.altitude(x, y) <= self.waterline_m(rid, t_seconds)

    def waterlines(self, t_seconds: float) -> np.ndarray:
        """:meth:`waterline_m` of every region at ``t``, in slot order.

        Entry i equals ``waterline_m(partition.region_ids[i], t)``
        bit-for-bit.  The vector is read-only and memoized per ``t`` (at
        most :attr:`WATERLINE_MEMO` times, least recently used dropped):
        the dispatch cycle asks for the same ``t`` from the closure index
        and the predictor's flood gate, and the gate's forecast time is a
        later cycle's ``t``.  ``severity_fn`` must be a pure function of
        ``(region, t)`` for the memo to hold.
        """
        key = float(t_seconds)
        memo = self._waterline_memo
        cached = memo.get(key)
        if cached is not None:
            memo.move_to_end(key)
            return cached
        vec = np.array(
            [self.waterline_m(rid, key) for rid in self.partition.region_ids]
        )
        vec.flags.writeable = False
        memo[key] = vec
        if len(memo) > self.WATERLINE_MEMO:
            memo.popitem(last=False)
        return vec

    def is_flooded_many(self, xy: np.ndarray, t_seconds: float) -> np.ndarray:
        """Vectorized flood query for an (N, 2) array of plane points."""
        xy = np.asarray(xy, dtype=float)
        alts = self.terrain.altitude_many(xy)
        slots = self.partition.region_slot_many(xy)
        return alts <= self.waterlines(t_seconds)[slots]

    def flooded_fraction(self, region_id: int, t_seconds: float) -> float:
        """Share of a region's terrain currently underwater, in [0, 1]."""
        alts = self._region_alt_samples[region_id]
        waterline = self.waterline_m(region_id, t_seconds)
        return float(np.mean(alts <= waterline))
