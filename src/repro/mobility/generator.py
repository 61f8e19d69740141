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
from repro.mobility.trips import PlannedTrip, TripModel, TripModelConfig
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


#: Fix rows per assembly block.  Bounds the (rows, regions, 2) temporary of
#: :meth:`TerrainField.altitude_many` and the float64 chunks held before
#: they are cast, at any population size.
BLOCK_ROWS = 16_384


class _Buffers:
    """Column accumulators for fixes and traversals.

    Fix chunks are kept as drawn (float64) until a block of about
    ``block_rows`` rows has gathered.  The block is then sealed: the
    altitude of its move chunks, a function of their float64 coordinates
    only, is computed in one :meth:`TerrainField.altitude_many` call, and
    each column is cast and concatenated once.
    """

    def __init__(self, terrain: TerrainField, block_rows: int = BLOCK_ROWS) -> None:
        self.terrain = terrain
        self.block_rows = block_rows
        self._blocks: list[GpsTrace] = []
        self._start_block()
        self.trav_t: list[np.ndarray] = []
        self.trav_seg: list[np.ndarray] = []

    def _start_block(self) -> None:
        self._pid: list[int] = []
        self._n: list[int] = []
        self._t: list[np.ndarray] = []
        self._x: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._alt: list[np.ndarray | None] = []
        self._speed: list[np.ndarray] = []
        self._rows = 0

    def add_fixes(self, pid, t, x, y, speed, alt=None) -> None:
        """Append one chunk; ``alt=None`` defers its altitude to the terrain."""
        self._pid.append(pid)
        self._n.append(len(t))
        self._t.append(t)
        self._x.append(x)
        self._y.append(y)
        self._speed.append(speed)
        self._alt.append(alt)
        self._rows += len(t)
        if self._rows >= self.block_rows:
            self._seal_block()

    def _seal_block(self) -> None:
        if not self._rows:
            return
        moves = [i for i, a in enumerate(self._alt) if a is None]
        if moves:
            xy = np.column_stack(
                [
                    np.concatenate([self._x[i] for i in moves]),
                    np.concatenate([self._y[i] for i in moves]),
                ]
            )
            alt = self.terrain.altitude_many(xy)
            cuts = np.cumsum([self._n[i] for i in moves[:-1]])
            for i, chunk in zip(moves, np.split(alt, cuts)):
                self._alt[i] = chunk

        def f32(chunks):
            return np.concatenate(chunks, dtype=np.float32, casting="same_kind")

        self._blocks.append(
            GpsTrace(
                np.repeat(np.array(self._pid, dtype=np.int32), self._n),
                np.concatenate(self._t),
                f32(self._x),
                f32(self._y),
                f32(self._alt),
                f32(self._speed),
            )
        )
        self._start_block()

    def add_traversals(self, t, seg) -> None:
        self.trav_t.append(t)
        self.trav_seg.append(seg)

    def trace(self) -> GpsTrace:
        self._seal_block()
        return GpsTrace.concatenate(self._blocks)

    def traversals(self) -> TraversalLog:
        if not self.trav_t:
            return TraversalLog.empty()
        return TraversalLog(np.concatenate(self.trav_t), np.concatenate(self.trav_seg))


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
        self.trip_model = TripModel(
            self._node_severity, self.config.trip_model, self.timeline.intensity
        )
        self._precompute_tables()

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

    def _node_severity(self, node: int, t: float) -> float:
        return self._node_hourly_severity[node][self._hour(t)]

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
    # RNG contract: every random draw below is made in the order, and with
    # the arguments, of the per-fix formulation (x noise, y noise, then
    # altitude or speed noise, per stay or drive).  Work that draws nothing
    # (segment timing, interpolation, move-fix altitude, dtype casts) may be
    # hoisted or batched freely; draws may not be merged or reordered.

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
        ts = np.arange(t0, t1, interval_s)
        n = ts.size
        if n == 0:
            return
        i = self._node_index[node]
        cfg = self.config
        x = self._node_xy[i, 0] + rng.normal(0.0, cfg.gps_noise_sigma_m, n)
        y = self._node_xy[i, 1] + rng.normal(0.0, cfg.gps_noise_sigma_m, n)
        alt = self._node_alt[i] + rng.normal(0.0, cfg.altitude_noise_sigma_m, n)
        speed = np.abs(rng.normal(0.0, 0.3, n))
        out.add_fixes(pid, ts, x, y, speed, alt)

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
        k = seg_times.size
        node_times = np.empty(k + 1)
        node_times[0] = 0.0
        seg_times.cumsum(out=node_times[1:])
        node_times += t0
        # A pairwise sum, which can differ from the sequential cumsum's end.
        arrival = t0 + float(seg_times.sum())
        out.add_traversals(node_times[:-1], route.segment_ids)

        cfg = self.config
        ts = np.arange(t0, arrival, cfg.trip_fix_interval_s)
        n = ts.size
        if n:
            x = np.interp(ts, node_times, route.node_x) + rng.normal(
                0.0, cfg.gps_noise_sigma_m, n
            )
            y = np.interp(ts, node_times, route.node_y) + rng.normal(
                0.0, cfg.gps_noise_sigma_m, n
            )
            # Fixes past the cumsum's end (see ``arrival``) keep the last segment.
            idx = np.searchsorted(node_times, ts, side="right") - 1
            np.minimum(idx, k - 1, out=idx)
            speed = route.speed_limit_mps[idx] * mult + rng.normal(0.0, 0.5, n)
            out.add_fixes(pid, ts, x, y, np.abs(speed, out=speed))
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
                trap = max(lo, h * SECONDS_PER_HOUR + rng.uniform(0.0, SECONDS_PER_HOUR))
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
        request_t = trap_t + rng.uniform(*cfg.request_delay_range_s)
        delivery_target = request_t + rng.uniform(*cfg.delivery_delay_range_s)
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

        discharge = min(delivered + rng.uniform(*cfg.hospital_stay_range_s), end)
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
            depart = (day + rng.uniform(18.0, 22.0) / 24.0) * SECONDS_PER_DAY
            hosp = self.hospitals[int(rng.integers(len(self.hospitals)))].node_id
            if hosp != person.home_node:
                stay = rng.uniform(*cfg.normal_hospital_stay_range_s)
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
        tolerance = rng.uniform(*self.config.depth_tolerance_range_m)

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
        out = _Buffers(self.terrain)
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
