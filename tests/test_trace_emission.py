"""Property tests of deferred trace emission.

The generator records each stay and drive with one merged noise draw and
computes the fixes when a block is sealed.  That is bit-identical to the
per-fix formulation (``np.arange`` + one ``rng.normal`` per column +
``np.interp``) because of five rules of numpy, each tested here on random
inputs and edge cases:

1. ``rng.normal(0, s, n)`` is ``0.0 + s * z`` for the same stream of
   standard normals ``z``, so 4 (or 3) calls equal one merged
   ``standard_normal(4n)`` split in call order, and leave the same state;
2. ``np.arange(t0, t1, step)`` has ``ceil((t1 - t0) / step)`` elements
   and element ``i`` is ``t0 + i * ((t0 + step) - t0)``;
3. ``np.interp`` is ``slope * (x - xp[j]) + fp[j]`` with
   ``j = searchsorted(xp, x, "right") - 1``, ``fp[j]`` on an exact hit and
   ``fp[-1]`` at or past the end;
4. ``rng.choice(seq)`` draws ``seq[rng.integers(0, len(seq))]``;
5. ``rng.uniform(a, b)`` draws ``a + (b - a) * rng.random()``.

Rules 1-3 are checked through :class:`_Buffers` and the generator's own
emission methods against a verbatim copy of the per-fix code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.charlotte import build_charlotte_scenario
from repro.mobility import generator
from repro.mobility.generator import (
    DRIVE_SPEED_SIGMA,
    STAY_SPEED_SIGMA,
    MobilityTraceGenerator,
    TraceConfig,
    _Buffers,
    _fix_times,
    _spans,
)
from repro.mobility.routes import RouteCache
from repro.mobility.trips import uniform
from repro.roadnet.generator import RoadNetworkConfig
from repro.weather.storms import FLORENCE

CONFIGS = {
    "default": TraceConfig(),
    "alt": TraceConfig(
        gps_noise_sigma_m=40.0, altitude_noise_sigma_m=0.0, trip_fix_interval_s=120.0
    ),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the per-fix formulation, as it stood before emission was deferred --------


def reference_stay(rng, cfg, t0, t1, step, anchor):
    ts = np.arange(t0, t1, step)
    n = ts.size
    x = anchor[0] + rng.normal(0.0, cfg.gps_noise_sigma_m, n)
    y = anchor[1] + rng.normal(0.0, cfg.gps_noise_sigma_m, n)
    alt = anchor[2] + rng.normal(0.0, cfg.altitude_noise_sigma_m, n)
    speed = np.abs(rng.normal(0.0, STAY_SPEED_SIGMA, n))
    return ts, x, y, alt, speed


def reference_drive(rng, cfg, terrain, t0, t1, node_times, route, mult):
    k = node_times.size - 1
    ts = np.arange(t0, t1, cfg.trip_fix_interval_s)
    n = ts.size
    x = np.interp(ts, node_times, route.node_x) + rng.normal(0.0, cfg.gps_noise_sigma_m, n)
    y = np.interp(ts, node_times, route.node_y) + rng.normal(0.0, cfg.gps_noise_sigma_m, n)
    idx = np.searchsorted(node_times, ts, side="right") - 1
    np.minimum(idx, k - 1, out=idx)
    speed = route.speed_limit_mps[idx] * mult + rng.normal(0.0, DRIVE_SPEED_SIGMA, n)
    alt = terrain.altitude_many(np.column_stack([x, y]))
    return ts, x, y, alt, np.abs(speed)


def reference_node_times(t0, seg_times):
    node_times = np.empty(seg_times.size + 1)
    node_times[0] = 0.0
    seg_times.cumsum(out=node_times[1:])
    node_times += t0
    return node_times, t0 + float(seg_times.sum())


class Expected:
    """Reference columns gathered record by record."""

    def __init__(self) -> None:
        self.pid: list[np.ndarray] = []
        self.cols: list[tuple] = []

    def add(self, pid, cols) -> None:
        self.pid.append(np.full(cols[0].size, pid, np.int32))
        self.cols.append(cols)

    def check(self, trace) -> None:
        t, x, y, alt, speed = (np.concatenate(c) for c in zip(*self.cols))
        assert same_bits(trace.person_id, np.concatenate(self.pid))
        assert same_bits(trace.t, t)
        for got, want in zip(
            (trace.x, trace.y, trace.altitude, trace.speed), (x, y, alt, speed)
        ):
            assert same_bits(got, want.astype(np.float32))


@pytest.fixture(scope="module")
def city():
    return build_charlotte_scenario(FLORENCE, RoadNetworkConfig(grid_cols=8, grid_rows=8))


@pytest.fixture(scope="module")
def routes(city):
    cache = RouteCache(city.network)
    nodes = city.network.landmark_ids()
    rng = np.random.default_rng(0)
    found = []
    while len(found) < 40:
        a, b = (int(v) for v in rng.choice(nodes, 2, replace=False))
        r = cache.arrays(a, b)
        if r is not None:
            found.append(r)
    return found


# -- rule 1: merged normal draws ------------------------------------------------


def test_normal_is_shifted_scaled_standard_normal():
    rng = np.random.default_rng(1)
    for case in range(2_000):
        n = 1 if case % 10 == 0 else int(rng.integers(1, 40))
        sigmas = [float(rng.choice([0.0, 0.3, 0.5, 3.0, 25.0, rng.uniform(0, 100)]))
                  for _ in range(4)]
        seed = int(rng.integers(2**32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        calls = [a.normal(0.0, s, n) for s in sigmas]
        z = b.standard_normal(4 * n)
        for i, (s, got) in enumerate(zip(sigmas, calls)):
            assert same_bits(got, 0.0 + s * z[i * n:(i + 1) * n])
        assert a.random() == b.random()


# -- rule 2: arange -------------------------------------------------------------


def arange_by_rule(t0, t1, step):
    n = math.ceil((t1 - t0) / step)
    owner, local, _, _ = _spans(np.zeros(1, np.intp), np.array([max(n, 0)]))
    return _fix_times(np.array([t0]), np.array([step]), owner, local)


def test_arange_is_ceil_count_of_start_plus_i_delta():
    rng = np.random.default_rng(2)
    cases = [(0.0, 300.0, 300.0), (0.0, 900.0, 300.0), (7.25, 7.5, 300.0),
             (86_400.0, 87_300.0, 300.0), (1e6 + 0.1, 1e6 + 600.1, 120.0)]
    for _ in range(20_000):
        t0 = float(rng.choice([rng.uniform(0, 1e6), rng.uniform(0, 1), 0.0,
                               float(int(rng.uniform(0, 1e6)))]))
        step = float(rng.choice([300.0, 120.0, rng.uniform(1, 7_200), rng.uniform(1e-3, 10)]))
        # Below one step (n = 1), an exact multiple of it, or anything.
        t1 = float(rng.choice([t0 + rng.uniform(0, 1) * step, t0 + int(rng.integers(1, 30)) * step,
                               t0 + rng.uniform(0, 30) * step]))
        cases.append((t0, t1, step))
    for t0, t1, step in cases:
        assert same_bits(arange_by_rule(t0, t1, step), np.arange(t0, t1, step)), (t0, t1, step)


# -- rules 1-3 through the block seal --------------------------------------------


@pytest.mark.parametrize("block_rows", [64, generator.BLOCK_ROWS])
@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_seal_equals_per_fix_emission(city, routes, cfg, block_rows, monkeypatch):
    """Random stays and drives, sealed in blocks, equal the per-fix
    formulation column for column.  Drive node times are built so that
    fix times hit them exactly and so that fixes run past the last node."""
    monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    out = _Buffers(city.terrain, cfg)
    ref, mine = np.random.default_rng(3), np.random.default_rng(3)
    draws = np.random.default_rng(4)
    want, trav = Expected(), []
    step = cfg.trip_fix_interval_s
    hits = past = 0
    for pid in range(300):
        t0 = float(draws.choice([1_000.0 * pid, draws.uniform(0, 1e6)]))
        if pid % 2:
            interval = float(draws.choice([300.0, 1_800.0, draws.uniform(60, 7_200)]))
            # One fix, an exact multiple of the interval, or anything.
            t1 = t0 + interval * float(draws.choice([0.5, 4.0, draws.uniform(0, 12)]))
            anchor = tuple(draws.uniform(0, 1_000, 3))
            cols = reference_stay(ref, cfg, t0, t1, interval, anchor)
            n = math.ceil((t1 - t0) / interval)
            out.add_stay(pid, t0, interval, n, anchor, mine.standard_normal(4 * n))
        else:
            route = routes[pid % len(routes)]
            k = route.segment_ids.size
            if pid % 6 == 0:  # nodes on the half-step grid: exact hits
                seg = step * draws.integers(1, 4, k) / 2
            else:
                seg = draws.uniform(10, 400, k)
            node_times, _ = reference_node_times(t0, seg)
            # Fixes end at the last node, or run up to two steps past it.
            t1 = node_times[-1] + (2 * step * draws.random() if pid % 4 else 0.0)
            mult = draws.uniform(0.2, 1.0)
            cols = reference_drive(ref, cfg, city.terrain, t0, t1, node_times, route, mult)
            n = math.ceil((t1 - t0) / step)
            out.add_drive(pid, t0, step, n, mult, seg, route, mine.standard_normal(3 * n))
            trav.append((node_times[:-1], route.segment_ids))
            hits += np.isin(cols[0][1:], node_times).sum()
            past += (cols[0] > node_times[-1]).sum()
        assert cols[0].size == n
        want.add(pid, cols)
        assert ref.bit_generator.state == mine.bit_generator.state
        assert ref.random() == mine.random()
    assert hits > 100 and past > 20, (hits, past)
    trace = out.trace()
    assert len(out._blocks) > (20 if block_rows == 64 else 0)
    want.check(trace)
    log = out.traversals()
    assert same_bits(log.t, np.concatenate([t for t, _ in trav]))
    assert same_bits(log.segment_id, np.concatenate([s for _, s in trav]))


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_generator_emission_equals_per_fix_emission(city, routes, cfg, monkeypatch):
    """The generator's own ``_emit_stay``/``_emit_move`` draw the same
    stream and seal to the same fixes as the per-fix code."""
    monkeypatch.setattr(generator, "BLOCK_ROWS", 256)
    gen = MobilityTraceGenerator(
        city.network, city.partition, city.terrain, city.weather_field, city.flood,
        city.hospitals, cfg,
    )
    out = _Buffers(city.terrain, cfg)
    ref, mine = np.random.default_rng(4), np.random.default_rng(4)
    draws = np.random.default_rng(5)
    nodes = city.network.landmark_ids()
    want = Expected()
    for pid in range(400):
        t0 = float(draws.uniform(0, city.timeline.duration_s))
        if pid % 2:
            node = int(draws.choice(nodes))
            step = float(draws.choice([600.0, 1_800.0, 7_200.0]))
            t1 = t0 + step * float(draws.choice([0.25, 3.0, draws.uniform(0, 10)]))
            anchor = gen._node_anchor[node]
            want.add(pid, reference_stay(ref, cfg, t0, t1, step, anchor))
            gen._emit_stay(pid, t0, t1, node, step, mine, out)
        else:
            route = routes[pid % len(routes)]
            mult = max(0.2, gen._speed_multiplier(t0))
            node_times, arrival = reference_node_times(t0, route.free_flow_time_s / mult)
            want.add(pid, reference_drive(
                ref, cfg, city.terrain, t0, arrival, node_times, route, mult
            ))
            assert gen._emit_move(pid, t0, route, mine, out) == arrival
        assert ref.bit_generator.state == mine.bit_generator.state
        assert ref.random() == mine.random()
    want.check(out.trace())


# -- rules 4 and 5: trip planning draws -------------------------------------------


def test_choice_over_a_sequence_is_an_integer_index():
    for seed in range(3_000):
        for length in (1, 2, 3, 5, 8):
            seq = tuple(range(100, 100 + length))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert int(a.choice(seq)) == seq[int(b.integers(0, len(seq)))]
            assert a.random() == b.random()


def test_scalar_uniform_is_offset_scaled_random():
    bounds = np.random.default_rng(6)
    for seed in range(20_000):
        lo = float(bounds.choice([0.0, 1.0, 6.5, 300.0, bounds.uniform(-1e4, 1e4)]))
        hi = lo + float(bounds.choice([0.0, 2.0, 3_600.0, bounds.uniform(0, 1e5)]))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same_bits(a.uniform(lo, hi), uniform(b, lo, hi))
        assert a.random() == b.random()
