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


def _lerp_sorted(
    samples: np.ndarray,
    row: np.ndarray | int,
    last: np.ndarray | np.integer,
    q: np.ndarray | float,
) -> np.ndarray:
    """``np.quantile(alts, q)`` (its default ``linear`` method) of sorted rows.

    Row ``row`` of ``samples`` holds one region's altitudes in ascending
    order, then copies of its last one (real index ``last``) to the end of
    a row at least one longer.  ``row``, ``last`` and ``q`` broadcast
    together.  numpy's steps, without its sort: virtual index
    ``v = last * q``, ``prev = floor(v)``, ``gamma = v - prev``, the lerp
    ``a + (b - a) * gamma`` or ``b - (b - a) * (1 - gamma)`` where
    ``gamma >= 0.5``, and the last sample where ``v >= last`` (there the
    clamped pair is two copies of it).  A NaN fraction raises
    ``ValueError``, as ``np.quantile`` does.
    """
    q = np.asarray(q, dtype=float)
    if np.isnan(q).any():
        raise ValueError("Quantiles must be in the range [0, 1]")
    v = last * q
    prev = np.floor(v)
    gamma = v - prev
    i = np.minimum(prev, last).astype(np.intp)
    a = samples[row, i]
    b = samples[row, i + 1]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


class FloodModel:
    """Terrain + severity -> time-varying flood zones.

    Each region's altitudes are sampled once from a grid and kept sorted,
    so flood queries are O(1) per point: a point is flooded at time ``t``
    when its altitude is below the region's flood waterline, which is the
    ``max_flood_fraction * severity(region, t)`` quantile of the region's
    altitude samples, interpolated as ``np.quantile`` does by
    :func:`_lerp_sorted`.
    """

    #: Times whose region waterline vector :meth:`waterlines` keeps: a
    #: day of 300 s dispatch cycles plus the predictor's 12 h forecast
    #: horizon is 432 times, so the vector one cycle computes for
    #: ``t + horizon`` is still here when the clock reaches it.  A hit
    #: saves the miss's 7 ``severity_fn`` calls and about 20 small numpy
    #: calls; about 300 bytes an entry.
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
        ids = self.partition.region_ids
        self._slot = {rid: i for i, rid in enumerate(ids)}
        rows = [self._region_alt_samples[rid] for rid in ids]
        # Per-slot columns, broadcasting against (slots, times) severities.
        self._alt_slots = np.arange(len(ids))[:, None]
        #: Index of each region's last sample.
        self._alt_last = np.array([[r.size - 1] for r in rows])
        #: Slots x samples, each row padded with its last sample (at
        #: least once, so the pair at ``last`` reads two copies of it).
        width = int(self._alt_last.max()) + 2
        self._alt_rows = np.array([np.pad(r, (0, width - r.size), mode="edge") for r in rows])
        #: The waterline at severity 0: below each region's lowest sample.
        self._dry_waterline = self._alt_rows[:, :1] - 1.0
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
        slot = self._slot[region_id]
        severity = min(max(self.severity_fn(region_id, t_seconds), 0.0), 1.0)
        if severity <= 0.0:
            return float(self._dry_waterline[slot, 0])
        frac = self.max_flood_fraction * severity
        return float(_lerp_sorted(self._alt_rows, slot, self._alt_last[slot, 0], frac))

    def waterline_table(self, severity: np.ndarray) -> np.ndarray:
        """:meth:`waterline_m` over a (regions, times) grid of severities.

        Row i of ``severity`` holds ``severity_fn(partition.region_ids[i], t)``
        at each time column; entry (i, j) of the result then equals
        ``waterline_m(region_ids[i], t_j)`` bit-for-bit, from one
        interpolation over the whole grid.
        """
        return self._waterlines_of(np.asarray(severity, dtype=float))

    def _waterlines_of(self, severity: np.ndarray) -> np.ndarray:
        """Waterlines of a (slots, times) severity array: clipped to
        [0, 1] once, interpolated in one pass."""
        severity = np.clip(severity, 0.0, 1.0)
        wl = _lerp_sorted(
            self._alt_rows, self._alt_slots, self._alt_last, self.max_flood_fraction * severity
        )
        return np.where(severity <= 0.0, self._dry_waterline, wl)

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
        severity = [[self.severity_fn(rid, key)] for rid in self.partition.region_ids]
        vec = self._waterlines_of(np.array(severity)).ravel()
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
