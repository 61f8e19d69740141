"""Synthetic city-scale mobility trace generator.

Replaces the paper's proprietary X-Mode dataset.  For every person the
generator simulates a continuous timeline over the scenario window:

* stays at anchors, emitting GPS fixes at the person's 0.5-2 h interval;
* trips between anchors (commute/leisure, disaster-suppressed), emitting
  denser in-motion fixes plus ground-truth road-segment traversal events
  (the source of vehicle flow rates);
* the flooding ground-truth process: a person is trapped when the rising
  flood depth over their position first exceeds their personal depth
  tolerance; trapped people stop moving, raise a rescue request, and in
  the historical trace are delivered to the nearest hospital where they
  dwell for >= 2 h.

The depth-threshold form makes the rescue decision a (mostly)
deterministic function of position and regional weather — precisely the
structure the paper's SVM recovers from the factor vector (precipitation,
wind, altitude) — while the waterline's progression makes demand a moving
wave that defeats history-based prediction, the paper's Figs. 15-16 story.

Raw output is deliberately dirty (position noise, out-of-bbox outliers,
duplicated fixes) so the paper's Data Cleaning stage has real work to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geo.flood import FloodModel
from repro.geo.regions import RegionPartition
from repro.geo.terrain import TerrainField
from repro.hospitals.hospitals import Hospital
from repro.mobility.person import Person
from repro.mobility.routes import RouteArrays, RouteCache
from repro.mobility.trace import GpsTrace, RescueRecord, TraversalLog
from repro.mobility.trips import (
    NodeSeverityFn,
    PlannedTrip,
    TripModel,
    TripModelConfig,
    uniform,
)
from repro.roadnet.graph import RoadNetwork
from repro.weather.fields import RegionWeatherField
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class TraceConfig:
    """Tunables of the synthetic trace process."""

    #: GPS fix interval while driving, seconds.
    trip_fix_interval_s: float = 300.0
    gps_noise_sigma_m: float = 25.0
    altitude_noise_sigma_m: float = 3.0
    #: Fraction of fixes duplicated and fraction replaced far out of range —
    #: the dirt the cleaning stage removes.
    duplicate_rate: float = 0.004
    outlier_rate: float = 0.008
    #: Driving speed multiplier at full flood level (1 - slowdown).
    storm_slowdown: float = 0.5
    #: Trapping ground truth: a person is trapped when the flood depth at
    #: their position first exceeds their personal depth tolerance, drawn
    #: uniformly from ``depth_tolerance_range_m`` (people in sturdy or
    #: multi-storey housing tolerate more water).  At each hourly crossing
    #: check the trap fires with probability ``trap_probability`` (some
    #: people self-evacuate in time).  Because trapping tracks the rising
    #: waterline, requests form a progressive wave that peaks at the river
    #: crest (Sep 16, paper Section V-B) and never revisits a burned-out
    #: depth band — which is exactly why history-based demand prediction
    #: fails in the paper (Figs. 15-16) while factor-based prediction works.
    depth_tolerance_range_m: tuple[float, float] = (0.3, 2.5)
    trap_probability: float = 0.75
    request_delay_range_s: tuple[float, float] = (300.0, 2_400.0)
    delivery_delay_range_s: tuple[float, float] = (3_600.0, 6.0 * 3_600.0)
    hospital_stay_range_s: tuple[float, float] = (2.5 * 3_600.0, 20.0 * 3_600.0)
    #: Ordinary (non-rescue) hospital visits: per-person per-day probability
    #: and dwell range.  Some dwell longer than the 2 h detection threshold,
    #: exercising the rescued/not-rescued labeling.
    normal_hospital_visit_prob: float = 0.015
    normal_hospital_stay_range_s: tuple[float, float] = (1_800.0, 4.0 * 3_600.0)
    trip_model: TripModelConfig = field(default_factory=TripModelConfig)
    seed: int = 37

    def __post_init__(self) -> None:
        if self.trip_fix_interval_s <= 0:
            raise ValueError("trip_fix_interval_s must be positive")
        for name in ("gps_noise_sigma_m", "altitude_noise_sigma_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in (
            "duplicate_rate",
            "outlier_rate",
            "trap_probability",
            "normal_hospital_visit_prob",
        ):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in (
            "depth_tolerance_range_m",
            "request_delay_range_s",
            "delivery_delay_range_s",
            "hospital_stay_range_s",
            "normal_hospital_stay_range_s",
        ):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must satisfy lo <= hi")


@dataclass
class TraceBundle:
    """Everything the generator knows about the synthetic dataset.

    ``trace`` is the raw (noisy) GPS data handed to the stage-1 pipeline;
    ``traversals`` and ``rescues`` are ground truth used for calibration,
    evaluation and as the request stream of dispatching experiments.
    """

    trace: GpsTrace
    traversals: TraversalLog
    rescues: list[RescueRecord]
    persons: list[Person]

    def requests_on_day(self, day: int) -> list[RescueRecord]:
        """Rescue requests whose request time falls on a scenario day."""
        t0, t1 = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
        return [r for r in self.rescues if t0 <= r.request_time_s < t1]


#: Fix rows per sealed block.  Bounds the (rows, regions, 2) temporary of
#: :meth:`TerrainField.altitude_many` and the float64 work arrays of a
#: seal, at any population size.  Read when :class:`_Buffers` is built.
BLOCK_ROWS = 16_384

#: Speed-noise standard deviations of stay and drive fixes, m/s.
STAY_SPEED_SIGMA = 0.3
DRIVE_SPEED_SIGMA = 0.5

#: Fields of a recorded stay and of a recorded drive.
_STAY, _DRIVE = 7, 9


def _spans(row0: np.ndarray, n: np.ndarray):
    """Expand records of ``n`` rows each, starting at block row ``row0``:
    each row's record, its index inside the record, the record's offset
    in the concatenation of all records' rows, and its block row."""
    first = np.cumsum(n) - n
    owner = np.repeat(np.arange(n.size), n)
    local = np.arange(int(n.sum())) - first[owner]
    return owner, local, first[owner], row0[owner] + local


def _fix_times(t0: np.ndarray, step: np.ndarray, owner, local) -> np.ndarray:
    """Every record's ``np.arange(t0, t1, step)``: numpy fills element
    ``i`` as ``t0 + i * ((t0 + step) - t0)``."""
    return t0[owner] + local * ((t0 + step) - t0)[owner]


class _Buffers:
    """Deferred fix emission.

    The per-person loop only *records* each stay and drive: its first fix
    time, fix step and count, its one merged noise draw, and the anchor
    it stays at or the route and segment times it drives.  Once about
    ``BLOCK_ROWS`` rows are recorded the block is sealed, and all of it is
    computed at once: fix times, drive node times and traversals, stay
    positions, drive interpolation (one segmented ``searchsorted`` done
    as a ``lexsort``), speeds, move-fix altitude in one
    :meth:`TerrainField.altitude_many` call, and the dtype casts.  Each
    step reproduces, per element, the numpy call of the per-fix
    formulation (see ``docs/PERFORMANCE.md``, "Trace generation").
    """

    def __init__(self, terrain: TerrainField, config: TraceConfig) -> None:
        self.terrain = terrain
        self.block_rows = BLOCK_ROWS
        self.gps_sigma = config.gps_noise_sigma_m
        self.alt_sigma = config.altitude_noise_sigma_m
        self._blocks: list[GpsTrace] = []
        self._start_block()
        self.trav_t: list[np.ndarray] = []
        self.trav_seg: list[np.ndarray] = []

    def _start_block(self) -> None:
        # Records are flattened into one list per kind, ``_STAY`` or
        # ``_DRIVE`` fields each: a tuple per record would be one more
        # object for the garbage collector to track until the seal.
        self._stays: list = []
        self._drives: list = []
        self._rows = 0

    def add_stay(self, pid, t0, step, n, anchor, z) -> None:
        """Record ``n`` fixes at ``anchor`` = (x, y, altitude); ``z`` is the
        stay's ``standard_normal(4 * n)``: x, y, altitude, speed noise."""
        self._stays.extend((pid, self._rows, t0, step, n, anchor, z))
        self._rows += n
        if self._rows >= self.block_rows:
            self._seal_block()

    def add_drive(self, pid, t0, step, n, mult, seg_times, route, z) -> None:
        """Record a drive along ``route`` from ``t0``, taking ``seg_times``
        per segment at speed multiplier ``mult``; ``z`` is its
        ``standard_normal(3 * n)``: x, y, speed noise.  A drive with no
        fix (``n == 0``) is still recorded for its traversals."""
        self._drives.extend((pid, self._rows, t0, step, n, mult, seg_times, route, z))
        self._rows += n
        if self._rows >= self.block_rows:
            self._seal_block()

    def _seal_block(self) -> None:
        if not (self._stays or self._drives):
            return
        rows = self._rows
        cols = GpsTrace(
            np.empty(rows, np.int32),
            np.empty(rows),
            *(np.empty(rows, np.float32) for _ in range(4)),
        )
        if self._stays:
            self._seal_stays(cols)
        if self._drives:
            self._seal_drives(cols)
        self._blocks.append(cols)
        self._start_block()

    def _seal_stays(self, cols: GpsTrace) -> None:
        pid, row0, t0, step, n, anchor, z = (self._stays[i::_STAY] for i in range(_STAY))
        n = np.array(n)
        owner, local, first, at = _spans(np.array(row0), n)
        cols.person_id[at] = np.array(pid)[owner]
        cols.t[at] = _fix_times(np.array(t0), np.array(step), owner, local)
        anchor = np.array(anchor)[owner]
        z, iz, rn = np.concatenate(z), 4 * first + local, n[owner]
        # ``rng.normal(0, s, n)`` is ``0.0 + s * z`` per element.
        cols.x[at] = anchor[:, 0] + (0.0 + self.gps_sigma * z[iz])
        cols.y[at] = anchor[:, 1] + (0.0 + self.gps_sigma * z[iz + rn])
        cols.altitude[at] = anchor[:, 2] + (0.0 + self.alt_sigma * z[iz + 2 * rn])
        cols.speed[at] = np.abs(0.0 + STAY_SPEED_SIGMA * z[iz + 3 * rn])

    def _seal_drives(self, cols: GpsTrace) -> None:
        pid, row0, t0, step, n, mult, seg_times, routes, z = (
            self._drives[i::_DRIVE] for i in range(_DRIVE)
        )
        n, t0 = np.array(n), np.array(t0)
        owner, local, first, at = _spans(np.array(row0), n)
        cols.person_id[at] = np.array(pid)[owner]
        ft = _fix_times(t0, np.array(step), owner, local)
        cols.t[at] = ft

        # Node times ``t0 + [0, cumsum(seg_times)]`` of every drive, as one
        # row-wise cumsum over a zero-padded grid: an accumulation runs in
        # the same order as the per-drive 1-D cumsum.  The traversal log
        # takes each drive's node times but the last.
        k = np.array([a.size for a in seg_times])
        slot = np.arange(k.max() + 1)
        grid = np.zeros((k.size, slot.size))
        grid[:, 1:][slot[1:] <= k[:, None]] = np.concatenate(seg_times)
        np.cumsum(grid, axis=1, out=grid)
        grid += t0[:, None]
        self.trav_t.append(grid[slot < k[:, None]])
        self.trav_seg.append(np.concatenate([r.segment_ids for r in routes]))

        # Segmented ``searchsorted(node_times, ft, "right") - 1``: sort the
        # nodes and fixes of every drive by (drive, time), nodes first on
        # ties; a fix's count of nodes sorted before it is then one past
        # the global index of its node.
        nt = grid[slot <= k[:, None]]
        last = (np.cumsum(k + 1) - 1)[owner]
        drive = np.concatenate([np.repeat(np.arange(k.size), k + 1), owner])
        kind = np.concatenate([np.zeros(nt.size, bool), np.ones(ft.size, bool)])
        order = np.lexsort((kind, np.concatenate([nt, ft]), drive))
        is_fix = kind[order]
        j = np.empty(ft.size, np.intp)
        j[order[is_fix] - nt.size] = np.cumsum(~is_fix)[is_fix] - 1

        # ``np.interp``: the node's value on an exact hit or at or past the
        # last node, else ``slope * (x - xp[j]) + fp[j]``.
        inner = np.flatnonzero((j < last) & (nt[j] != ft))
        ji = j[inner]
        dt, span = ft[inner] - nt[ji], nt[ji + 1] - nt[ji]

        def interp(fp: np.ndarray) -> np.ndarray:
            v = fp[j]
            v[inner] = (fp[ji + 1] - fp[ji]) / span * dt + fp[ji]
            return v

        z = np.concatenate(z)
        iz, rn = 3 * first + local, n[owner]
        xy = np.column_stack(
            [
                interp(np.concatenate([r.node_x for r in routes]))
                + (0.0 + self.gps_sigma * z[iz]),
                interp(np.concatenate([r.node_y for r in routes]))
                + (0.0 + self.gps_sigma * z[iz + rn]),
            ]
        )
        cols.x[at] = xy[:, 0]
        cols.y[at] = xy[:, 1]
        cols.altitude[at] = self.terrain.altitude_many(xy)

        # Fixes past the cumsum's end keep the last segment.
        limit = np.concatenate([r.speed_limit_mps for r in routes])
        seg = np.minimum(j, last - 1) - owner
        speed = limit[seg] * np.array(mult)[owner] + (0.0 + DRIVE_SPEED_SIGMA * z[iz + 2 * rn])
        cols.speed[at] = np.abs(speed, out=speed)

    def trace(self) -> GpsTrace:
        self._seal_block()
        return GpsTrace.concatenate(self._blocks)

    def traversals(self) -> TraversalLog:
        self._seal_block()
        if not self.trav_t:
            return TraversalLog.empty()
        return TraversalLog(np.concatenate(self.trav_t), np.concatenate(self.trav_seg))


def _hourly_lookup(rows: dict[int, list[float]], hours: int) -> NodeSeverityFn:
    """``severity(node, t)`` from each landmark's hourly row.  A closure
    rather than a bound method: the trip model would otherwise hold its
    generator in a reference cycle, and a dropped generator, route cache
    and all, would stay in memory until a full garbage collection."""
    last = hours - 1

    def severity(node: int, t: float) -> float:
        return rows[node][min(last, max(0, int(t // SECONDS_PER_HOUR)))]

    return severity


class MobilityTraceGenerator:
    """Simulates the population over a storm scenario window."""

    def __init__(
        self,
        network: RoadNetwork,
        partition: RegionPartition,
        terrain: TerrainField,
        weather: RegionWeatherField,
        flood: FloodModel,
        hospitals: list[Hospital],
        config: TraceConfig | None = None,
    ) -> None:
        if not hospitals:
            raise ValueError("at least one hospital is required")
        if flood.severity_fn != weather.severity:
            raise ValueError("the flood model must be driven by the weather field's severity")
        self.network = network
        self.partition = partition
        self.terrain = terrain
        self.weather = weather
        self.flood = flood
        self.hospitals = hospitals
        self.config = config or TraceConfig()
        self.timeline = weather.timeline
        self.route_cache = RouteCache(network)
        self._precompute_tables()
        self.trip_model = TripModel(
            _hourly_lookup(self._node_hourly_severity, self._hours),
            self.config.trip_model,
            self.timeline.intensity,
        )

    # -- precomputed lookup tables ------------------------------------------

    def _precompute_tables(self) -> None:
        """Every quantity the per-person loop reads that draws no random
        number: landmark positions and regions, and the hourly weather,
        severity and flood-depth tables."""
        net = self.network
        node_ids = net.landmark_ids()
        self._node_index = {n: i for i, n in enumerate(node_ids)}
        self._node_xy = np.array([net.landmark(n).xy for n in node_ids])
        self._node_alt = self.terrain.altitude_many(self._node_xy)
        #: (x, y, altitude) of each landmark, keyed by landmark id.
        self._node_anchor = {
            n: (x, y, a)
            for n, (x, y), a in zip(node_ids, self._node_xy.tolist(), self._node_alt.tolist())
        }
        self._node_region = self.partition.region_of_many(self._node_xy)
        self._node_segment = np.array(
            [net.nearest_segment(*net.landmark(n).xy) for n in node_ids]
        )

        hours = int(self.timeline.total_days * 24) + 1
        times = np.arange(hours) * SECONDS_PER_HOUR
        rindex = {r: i for i, r in enumerate(self.partition.region_ids)}
        self._rindex = rindex
        self._precip = self.weather.factor_precipitation_table(times)
        self._wind = self.weather.factor_wind_table(times)
        severity = self.weather.severity_table(times)
        waterline = self.flood.waterline_table(severity)
        self._hours = hours

        node_r = np.array([rindex[int(r)] for r in self._node_region])
        rows = severity.tolist()
        #: Hourly severity of each landmark's region, keyed by landmark id.
        self._node_hourly_severity = {n: rows[r] for n, r in zip(node_ids, node_r)}
        flooded = waterline[node_r, :] >= self._node_alt[:, None]  # (nodes, hours)
        #: Water depth over each landmark per hour, meters (0 when dry).
        self._node_depth = np.maximum(0.0, waterline[node_r, :] - self._node_alt[:, None])
        self._node_ever_flooded = flooded.any(axis=1)
        any_flood_hours = np.nonzero(flooded.any(axis=0))[0]
        if any_flood_hours.size:
            self._flood_window = (
                float(any_flood_hours[0]) * SECONDS_PER_HOUR,
                float(any_flood_hours[-1] + 1) * SECONDS_PER_HOUR,
            )
        else:
            self._flood_window = (float("inf"), float("-inf"))

    def _hour(self, t: float) -> int:
        return min(self._hours - 1, max(0, int(t // SECONDS_PER_HOUR)))

    def node_factor_vector(self, node: int, t: float) -> tuple[float, float, float]:
        """Disaster-related factors (P, W, A) at a landmark and time."""
        i = self._node_index[node]
        r = self._rindex[int(self._node_region[i])]
        h = self._hour(t)
        return (
            float(self._precip[r, h]),
            float(self._wind[r, h]),
            float(self._node_alt[i]),
        )

    # -- emission helpers ----------------------------------------------------
    #
    # RNG contract: every draw is made in the order of the per-fix
    # formulation, and each stay or drive makes one merged draw:
    # ``standard_normal(4n)`` for a stay (x, y, altitude, speed noise) or
    # ``standard_normal(3n)`` for a drive (x, y, speed noise), which is
    # the same stream as its 4 or 3 ``rng.normal(0, sigma, n)`` calls.
    # ``n`` is computed as ``np.arange`` sizes its result.  Work that
    # draws nothing and that no control flow reads (node and fix times,
    # interpolation, move-fix altitude, dtype casts) is deferred to the
    # block seal in :class:`_Buffers`.

    def _emit_stay(
        self,
        pid: int,
        t0: float,
        t1: float,
        node: int,
        interval_s: float,
        rng: np.random.Generator,
        out: _Buffers,
    ) -> None:
        if t1 <= t0:
            return
        n = math.ceil((t1 - t0) / interval_s)
        out.add_stay(pid, t0, interval_s, n, self._node_anchor[node], rng.standard_normal(4 * n))

    def _speed_multiplier(self, t: float) -> float:
        return 1.0 - self.config.storm_slowdown * self.timeline.flood_level(t)

    def _emit_move(
        self,
        pid: int,
        t0: float,
        route: RouteArrays,
        rng: np.random.Generator,
        out: _Buffers,
    ) -> float:
        """Drive ``route`` starting at ``t0``; returns arrival time."""
        mult = max(0.2, self._speed_multiplier(t0))
        seg_times = route.free_flow_time_s / mult
        # A pairwise sum, which can differ from the sequential cumsum's end
        # that the seal computes the node times from.
        arrival = t0 + float(seg_times.sum())
        step = self.config.trip_fix_interval_s
        n = math.ceil((arrival - t0) / step)
        out.add_drive(pid, t0, step, n, mult, seg_times, route, rng.standard_normal(3 * n))
        return arrival

    # -- trapping ground truth -----------------------------------------------

    def _first_trap(
        self,
        node: int,
        t0: float,
        t1: float,
        depth_tolerance_m: float,
        rng: np.random.Generator,
    ) -> float | None:
        """First trapping time during a stay at ``node`` over [t0, t1].

        The person is trapped the first hour the flood depth over their
        position exceeds their personal tolerance (with escape probability
        ``1 - trap_probability`` per crossing hour).
        """
        w0, w1 = self._flood_window
        lo, hi = max(t0, w0), min(t1, w1)
        if hi <= lo:
            return None
        i = self._node_index[node]
        if not self._node_ever_flooded[i]:
            return None
        h0, h1 = int(lo // SECONDS_PER_HOUR), int(math.ceil(hi / SECONDS_PER_HOUR))
        for h in range(h0, min(h1, self._hours)):
            if self._node_depth[i, h] >= depth_tolerance_m:
                if rng.random() >= self.config.trap_probability:
                    continue  # got out in time this hour; water keeps rising
                trap = max(lo, h * SECONDS_PER_HOUR + uniform(rng, 0.0, SECONDS_PER_HOUR))
                if trap < hi:
                    return trap
        return None

    def _nearest_hospital_node(self, node: int) -> int:
        i = self._node_index[node]
        xy = self._node_xy[i]
        best, best_d = self.hospitals[0].node_id, float("inf")
        for h in self.hospitals:
            j = self._node_index[h.node_id]
            d = float(np.hypot(*(self._node_xy[j] - xy)))
            if d < best_d:
                best, best_d = h.node_id, d
        return best

    def _handle_rescue(
        self,
        person: Person,
        node: int,
        stay_start: float,
        trap_t: float,
        rng: np.random.Generator,
        out: _Buffers,
        rescues: list[RescueRecord],
    ) -> float:
        """Emit the trapped-stay / hospital-delivery / return-home sequence.

        Returns the time the person is back home (end of the sequence).
        """
        cfg = self.config
        pid = person.person_id
        request_t = trap_t + uniform(rng, *cfg.request_delay_range_s)
        delivery_target = request_t + uniform(rng, *cfg.delivery_delay_range_s)
        hosp_node = self._nearest_hospital_node(node)
        ride = self.route_cache.arrays(node, hosp_node)

        i = self._node_index[node]
        end = self.timeline.duration_s

        if ride is None:
            ride_depart = min(delivery_target, end)
            self._emit_stay(pid, stay_start, ride_depart, node, person.gps_interval_s, rng, out)
            delivered = ride_depart
        else:
            ride_depart = max(request_t, delivery_target - ride.route.travel_time_s)
            self._emit_stay(pid, stay_start, ride_depart, node, person.gps_interval_s, rng, out)
            delivered = self._emit_move(pid, ride_depart, ride, rng, out)

        rescues.append(
            RescueRecord(
                person_id=pid,
                trap_time_s=trap_t,
                request_time_s=request_t,
                trap_node=node,
                trap_segment=int(self._node_segment[i]),
                region_id=int(self._node_region[i]),
                factors=self.node_factor_vector(node, trap_t),
                hospital_node=hosp_node,
                delivery_time_s=delivered,
            )
        )

        discharge = min(delivered + uniform(rng, *cfg.hospital_stay_range_s), end)
        self._emit_stay(pid, delivered, discharge, hosp_node, person.gps_interval_s, rng, out)
        if discharge >= end:
            return end
        home_ride = self.route_cache.arrays(hosp_node, person.home_node)
        if home_ride is None:
            return discharge
        return self._emit_move(pid, discharge, home_ride, rng, out)

    # -- per-person simulation -------------------------------------------------

    def _plan_day(
        self, person: Person, day: int, rng: np.random.Generator
    ) -> list[PlannedTrip]:
        trips = self.trip_model.plan_day(person, day, rng)
        cfg = self.config
        if rng.random() < cfg.normal_hospital_visit_prob:
            depart = (day + uniform(rng, 18.0, 22.0) / 24.0) * SECONDS_PER_DAY
            hosp = self.hospitals[int(rng.integers(len(self.hospitals)))].node_id
            if hosp != person.home_node:
                stay = uniform(rng, *cfg.normal_hospital_stay_range_s)
                trips = trips + [
                    PlannedTrip(depart, person.home_node, hosp),
                    PlannedTrip(depart + stay, hosp, person.home_node),
                ]
        return trips

    def _simulate_person(
        self, person: Person, out: _Buffers, rescues: list[RescueRecord]
    ) -> None:
        # Pre-registry key layout, frozen for bit-compatibility: the
        # per-person stream keys (seed, person id) with no family tag.
        # repro: allow-stream-tag -- seed-era layout; retagging would reshuffle every golden trace
        rng = np.random.default_rng([self.config.seed, person.person_id])
        t = 0.0
        cur = person.home_node
        pid = person.person_id
        rescued = False
        end = self.timeline.duration_s
        tolerance = uniform(rng, *self.config.depth_tolerance_range_m)

        for day in range(self.timeline.total_days):
            for trip in self._plan_day(person, day, rng):
                if trip.depart_s <= t or trip.src != cur:
                    continue
                if not rescued:
                    trap_t = self._first_trap(cur, t, trip.depart_s, tolerance, rng)
                    if trap_t is not None:
                        t = self._handle_rescue(person, cur, t, trap_t, rng, out, rescues)
                        cur = person.home_node
                        rescued = True
                        continue
                self._emit_stay(pid, t, trip.depart_s, cur, person.gps_interval_s, rng, out)
                route = self.route_cache.arrays(trip.src, trip.dst)
                if route is None:
                    t = trip.depart_s
                    continue
                t = self._emit_move(pid, trip.depart_s, route, rng, out)
                cur = trip.dst

        if not rescued:
            trap_t = self._first_trap(cur, t, end - 12.0 * SECONDS_PER_HOUR, tolerance, rng)
            if trap_t is not None:
                self._handle_rescue(person, cur, t, trap_t, rng, out, rescues)
                return
        self._emit_stay(pid, t, end, cur, person.gps_interval_s, rng, out)

    # -- public API --------------------------------------------------------------

    def generate(self, persons: list[Person]) -> TraceBundle:
        """Simulate all persons and assemble the raw dataset."""
        out = _Buffers(self.terrain, self.config)
        rescues: list[RescueRecord] = []
        for person in persons:
            self._simulate_person(person, out, rescues)

        trace = self._dirty(out.trace())
        traversals = out.traversals()
        rescues.sort(key=lambda r: r.request_time_s)
        return TraceBundle(trace=trace, traversals=traversals, rescues=rescues, persons=persons)

    def _dirty(self, trace: GpsTrace) -> GpsTrace:
        """Inject duplicates and out-of-range outliers into a clean trace."""
        # Lazy: a module-level import of repro.core from here closes a
        # cycle (core.predictor -> data.charlotte -> this module).  The
        # mobility layer sits below core, so only this leaf constants
        # module may be reached, and only lazily.
        from repro.core.streams import STREAM_MOBILITY_DIRTY

        cfg = self.config
        n = len(trace)
        if n == 0:
            return trace
        rng = np.random.default_rng([cfg.seed, STREAM_MOBILITY_DIRTY])
        n_dup = int(cfg.duplicate_rate * n)
        n_out = int(cfg.outlier_rate * n)
        parts = [trace]
        if n_dup:
            idx = rng.integers(0, n, n_dup)
            parts.append(trace.select(idx))
        if n_out:
            idx = rng.integers(0, n, n_out)
            bad = trace.select(idx)
            width = self.partition.width_m
            bad = GpsTrace(
                bad.person_id,
                bad.t,
                bad.x + np.float32(3.0 * width),
                bad.y,
                bad.altitude,
                bad.speed,
            )
            parts.append(bad)
        return GpsTrace.concatenate(parts)
