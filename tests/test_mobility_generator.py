"""Focused tests for the trace generator: pinned output, precomputed
tables and configuration knobs."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.data.charlotte import build_charlotte_scenario
from repro.geo.flood import FloodModel
from repro.mobility import generator
from repro.mobility.generator import MobilityTraceGenerator, TraceConfig, _Buffers
from repro.mobility.population import PopulationConfig, generate_population
from repro.mobility.routes import RouteCache
from repro.mobility.trace import GpsTrace, RescueRecord
from repro.roadnet.generator import RoadNetworkConfig
from repro.weather.storms import FLORENCE, MICHAEL, SECONDS_PER_DAY, SECONDS_PER_HOUR

#: SHA-256 of every output column of ``TraceConfig()`` over 200 people on
#: the 8x8 test city.  Any change to the generator's output — a reordered
#: draw, a different rounding — changes these.  RescueRecord fields are
#: hashed as float64, which holds every id exactly.
PINNED_DIGESTS = {
    "michael": {
        "trace.person_id": "3674e32dfc8290cc02799d59a7c8deebed0ce0794acd613776f2d251cdbf48e2",
        "trace.t": "0a6a51b17d21858176e58bfd13e6b4a14ffa9cb71447977e12c7472b5852699e",
        "trace.x": "8f16d9573106909456c8133a1fd0b1ee2536dab2cfe5c7b71b378d02aed61481",
        "trace.y": "006987ccbbc969769df69be0c569e18758ded8a001d8085950558030f41bb9e5",
        "trace.altitude": "9d4d5644286918f035cd1485cd4e462bd4b72f486a3f15d074754966e8d49bf3",
        "trace.speed": "010767691e1cc89fce3b186f719b1831c924669e4a1d9da352aae15c4d800210",
        "traversals.t": "249a2687be34474097521033a0b097deda3710497c632030ea7815017ef6eab3",
        "traversals.segment_id": "774a3f4e9645697e9f1e68f75202c941d51b67a59dcfb237436c574c647af195",
        "rescues.person_id": "22fcd3331dfbba1bc785c6fe3cfd80b781c060d1430969a451bf8d8d7da298ce",
        "rescues.trap_time_s": "58d4cc42865c20ad18dc84aafe3f82c309899f26073883dcad03dea587fc8d21",
        "rescues.request_time_s": "81e443df07290eb15bfce6f142ad3b136e1502e28405fcd8d8d0680d2d4e616d",
        "rescues.trap_node": "98f85eeb25cfcfea621eb5471a29a937dd79de184f20dc3f216dc8f57a7722ff",
        "rescues.trap_segment": "249be280258a9cb37607eafa3ea69f5512e780258ad3e72010f4382c79815d59",
        "rescues.region_id": "630e93643a0016afbeb5a8192ae75fc7842c86748b69364119bf91350114003c",
        "rescues.factors": "8b8b2d41b53c466e4c386b97455fd71261e8fb01974ff855ce0e0e4b1158207d",
        "rescues.hospital_node": "f0ab10ac8a76ada414bc4e3c72576d48ebdcb12d532c8a4da6d02fb43f5a0b03",
        "rescues.delivery_time_s": "6b6a3dbc13d68e32876fff37951ae4ebcc719d9f351b6481a75f04954db06d8c",
    },
    "florence": {
        "trace.person_id": "57cf8bd02b20c5f959c163856fabbfe8055a918fc492a3e57f9b82aae5032808",
        "trace.t": "85c3020dab5d1d0ed38449308c3bdedc0459cc099110351724981f55fd24946d",
        "trace.x": "7c2b33c12701aceadfe969079d7109bcde35b1a79276baed102be50c9305ec7a",
        "trace.y": "32e7880df7ced8cf17061d0de5ed8ddd02cd7e6e717352bd2ce001aace16857b",
        "trace.altitude": "b662c0f26af09a1883b46e3ebad14e4ee652e2b023067ba7cbe3bd43e0ccaa56",
        "trace.speed": "21998f09dd9e982eb97368a1c4888c4356cf3dcc1728c7457ca62f2da9f3a002",
        "traversals.t": "bd9c7404c84ecc5d0942c70678e9991dc71513cd2667872810e33391910ea898",
        "traversals.segment_id": "34bd9968e7c376e8067305e13e40f4b3650da2530d53ec52d0a911cfc296558f",
        "rescues.person_id": "9d94b28a0d0880c68f3a9c6f7de48dbb1a6ef5522390ee896a3478b766cd6289",
        "rescues.trap_time_s": "2d39fb212134155a6a2666f81781f5b28731889ca05b93a140a0e73b028e36fc",
        "rescues.request_time_s": "0bbe3f73ccfd432d8a892147671a5f8c6976588547c6a99e5b6d51e2cbca90de",
        "rescues.trap_node": "01fd85e63f2ab4eb21a936e9f9ed1d0266bd12086bdbc2ee5cd3ed8b20836523",
        "rescues.trap_segment": "bb5c9d6cc2d79fe6b46d474fc218b8f84e24f520b67eb221178487573b96bbdf",
        "rescues.region_id": "52bedcd038da8ecc787bd8c4bb3d9a822c47252d2ffe0ea59d7858a2886b7f07",
        "rescues.factors": "56b8db561cac3c8ac799dcca743ebc2d1c72d79ec15bb572f7788a531024f552",
        "rescues.hospital_node": "24e3112386bb6d0b6b649241bc106ad607d8601ca9509dcb54a67da7d6df0d38",
        "rescues.delivery_time_s": "5186687b90d67e8b98628259a1b7a05bc2b5ac5415d56a9fe4431f38d587202a",
    },
}


#: The same digests for a non-default configuration (every noise sigma,
#: the drive fix interval and the seed changed; zero altitude noise),
#: recorded with the per-fix emission path before it was deferred.
ALT_CONFIG = {
    "gps_noise_sigma_m": 40.0,
    "altitude_noise_sigma_m": 0.0,
    "trip_fix_interval_s": 120.0,
    "seed": 5,
}
PINNED_DIGESTS_ALT = {
    "michael": {
        "trace.person_id": "9bf03434a9e499d7e3f2bf8e60c3e11ec7ef9c413bcef1ab4bd71c5f95313875",
        "trace.t": "ec2aca8e3c5a09e34ec787cefabb8be3f9671b5cff58bea582d3976b1541d575",
        "trace.x": "f058d0676010ec31b4e852d70bf68c8b69ee532c5075aa80a917503b058e43e4",
        "trace.y": "ae154879214f7c931409b7c5fa96f9401d1be89c7e0d063f9426be2aa54692b2",
        "trace.altitude": "a986e6bf3efd3735a0eeff79c202be6ed602517d8fc7ad14309e785dfc172529",
        "trace.speed": "2c7b6d74386c16a922c0f6a57e85663027dc824ccedf27343b6ee0e7502763fd",
        "traversals.t": "f01041cd6fb566a19514448c40b0a206d764e9b8ac0259dde042807ede587f95",
        "traversals.segment_id": "99626ec0b4bc39e5b548746a406b3cd121dc1bea59caac798224688fff9da3c8",
        "rescues.person_id": "54d695954f136eb13d29a803554d56dda794927b8b49e627493e4e3abe207c77",
        "rescues.trap_time_s": "23032abc10c25467340f3f88e52bcf9a838e7c36f04c295b2c3f6363854e23b0",
        "rescues.request_time_s": "f7636ac493240c84902860ccc87a705faff7874323b228cb1659135e01cb95dd",
        "rescues.trap_node": "38d3d18c0cd1a36f6b850a4715eb198dd59da6c90dcffbc30d67962eb6920b13",
        "rescues.trap_segment": "fd686f0d23abe3841ea061a7b6182e243c7647c50bb1c40f7afddfd07f9b7e93",
        "rescues.region_id": "55e573163da8b8168a3a512042d0f093d33d73d8a4ba1094238573547f28e394",
        "rescues.factors": "efaad7583f8e14d3b10c5b89cffc4663b07145476497edd81dd154b95166f336",
        "rescues.hospital_node": "c34b419986a10fb35fa63b458974c1d309fcd31c7195a33fc4edbec02bdf0ba1",
        "rescues.delivery_time_s": "9f62e043c938b83b93da20787d652e3b923d99b838584ef8dfbc5aaac4107082",
    },
    "florence": {
        "trace.person_id": "ee23d6193e0314d914866e01ebe4a2acf71600f282253d6db65a687215435c1b",
        "trace.t": "a72e7917f09d7199c73a04431a15a04ae26c0cd4c39a4d441179eec0890dcece",
        "trace.x": "78fd27a294def9b2da9be7a183ed1d7a8738200643574375e95a7da098c0c828",
        "trace.y": "cbb88a666ccef9694c3c470f51d7d4b23da54c3f2f10c952d99214fc71f0085e",
        "trace.altitude": "6f459260d353dac9cd702745d5cdea4c339ba901ac3f4f5c28176f53fa36d64f",
        "trace.speed": "7e7fa5b99aae85c4062abf8ef13fa8c56b8b72f0efa19ac1ca21f74c66258ea7",
        "traversals.t": "a39002a9a03d4ad8a5655bc0752e5ed89e2507c221bc04ec86f4fbc9983785dc",
        "traversals.segment_id": "aa6b81dc9d8ae1d300a26631c812f08aaa132a3ec5bbd96f1eef5a2595a071f8",
        "rescues.person_id": "952e789f48350730853c9daa1bc0a4e7c44d5d75892b7fc7bf9fb3c0223cd6c2",
        "rescues.trap_time_s": "a62d0277b24b07efb878777ac5e3bca6787e2facce90ef2b8b144d3ddc9758c9",
        "rescues.request_time_s": "733beea773ba0a1e936df74df86073d251520b9aedf3758cd99581db603de1aa",
        "rescues.trap_node": "557cc99eaad4e1617a7f5d537fda394688d2f6b112164d30697b16c030ffde69",
        "rescues.trap_segment": "a83a60ed5a862ad24c7316b10b9000c3f6198814aed46ab5504ee28851eaf29b",
        "rescues.region_id": "909c961ce959d50a6c4bd707ce2736cdf4c90069c1914e36069f0aa45a85a063",
        "rescues.factors": "fa9e8ad86a5d9d0e76d7485edb09d727e832c8910762248d68cc55b754c78947",
        "rescues.hospital_node": "780fcfce161f16b4f2cd0097d943591d213188940c670c7167e56eeac158ae4d",
        "rescues.delivery_time_s": "cb06fd03ceb462fa0707f073aede065baa8e75a6501cd1ef71f2b8bf2a4dd003",
    },
}

def column_digests(bundle) -> dict[str, str]:
    cols = {f"trace.{c}": getattr(bundle.trace, c) for c in GpsTrace.COLUMNS}
    cols["traversals.t"] = bundle.traversals.t
    cols["traversals.segment_id"] = bundle.traversals.segment_id
    for f in dataclasses.fields(RescueRecord):
        cols[f"rescues.{f.name}"] = np.asarray(
            [getattr(r, f.name) for r in bundle.rescues], dtype=np.float64
        )
    return {
        name: hashlib.sha256(np.ascontiguousarray(col).tobytes()).hexdigest()
        for name, col in cols.items()
    }


def small_city(storm):
    return build_charlotte_scenario(storm, RoadNetworkConfig(grid_cols=8, grid_rows=8))


def people(scen, size):
    return generate_population(
        scen.network,
        scen.partition,
        PopulationConfig(size=size),
        excluded_nodes=frozenset(h.node_id for h in scen.hospitals),
    )


@pytest.fixture(scope="module")
def scen():
    return small_city(MICHAEL)


@pytest.fixture(scope="module")
def persons(scen):
    return people(scen, 80)


def make_generator(scen, **config_kwargs):
    return MobilityTraceGenerator(
        scen.network,
        scen.partition,
        scen.terrain,
        scen.weather_field,
        scen.flood,
        scen.hospitals,
        TraceConfig(**config_kwargs),
    )


STORMS = [MICHAEL, FLORENCE]


@pytest.fixture(scope="module")
def pinned_inputs():
    """The pinned builds' city and 200 people, per storm name."""
    out = {}
    for storm in STORMS:
        city = small_city(storm)
        out[storm.name.lower()] = (city, people(city, 200))
    return out


@pytest.mark.parametrize("storm", STORMS, ids=lambda s: s.name.lower())
def test_output_matches_pinned_digests(storm, pinned_inputs):
    """Bit-identity proof of the generator: every column and record field
    hashes to the value pinned before its emission path was batched."""
    city, persons = pinned_inputs[storm.name.lower()]
    bundle = make_generator(city).generate(persons)
    assert bundle.rescues, "the pinned build must exercise the rescue path"
    assert column_digests(bundle) == PINNED_DIGESTS[storm.name.lower()]


#: (pin, block rows) of every other build: both pins at 64, 1,000 and
#: the default rows per block.
BLOCK_CASES = [
    (pin, rows)
    for pin in ("default", "alt")
    for rows in (64, 1_000, generator.BLOCK_ROWS)
    if (pin, rows) != ("default", generator.BLOCK_ROWS)
]


@pytest.mark.parametrize(("pin", "block_rows"), BLOCK_CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("storm", STORMS, ids=lambda s: s.name.lower())
def test_pins_hold_at_every_block_size(storm, pin, block_rows, pinned_inputs, monkeypatch):
    """Both pins hold whatever the seal's block size: where a block ends
    changes no fix, and a non-default configuration reaches the seal."""
    monkeypatch.setattr(generator, "BLOCK_ROWS", block_rows)
    city, persons = pinned_inputs[storm.name.lower()]
    config, pinned = {"default": ({}, PINNED_DIGESTS), "alt": (ALT_CONFIG, PINNED_DIGESTS_ALT)}[pin]
    bundle = make_generator(city, **config).generate(persons)
    assert bundle.rescues
    assert column_digests(bundle) == pinned[storm.name.lower()]


class TestPrecomputedTables:
    def test_weather_and_flood_tables_match_scalar_calls(self, scen):
        field, flood = scen.weather_field, scen.flood
        times = np.arange(int(scen.timeline.total_days * 24) + 1) * SECONDS_PER_HOUR
        severity = field.severity_table(times)
        # Both waterline branches occur: dry hours and quantile hours.
        assert (severity <= 0.0).any() and (severity > 0.0).any()
        tables = {
            field.factor_precipitation_mm_per_h: field.factor_precipitation_table(times),
            field.factor_wind_mph: field.factor_wind_table(times),
            field.severity: severity,
            flood.waterline_m: flood.waterline_table(severity),
        }
        for scalar, table in tables.items():
            assert table.shape == (len(scen.partition.region_ids), times.size)
            expected = np.array(
                [[scalar(r, float(t)) for t in times] for r in scen.partition.region_ids]
            )
            # Bit-for-bit: compare the raw float64 patterns, not values.
            np.testing.assert_array_equal(table.view(np.int64), expected.view(np.int64))

    def test_block_batched_altitude_equals_per_move_calls(self, scen, monkeypatch):
        """Move-fix altitude computed a block of moves at a time equals one
        ``altitude_many`` call per move, bit-for-bit."""
        rng = np.random.default_rng(5)
        moves = [
            rng.uniform(0.0, 1.0, (size, 2)) * (scen.partition.width_m, scen.partition.height_m)
            for size in rng.integers(1, 40, 25)
        ]
        blocked = scen.terrain.altitude_many(np.concatenate(moves))
        per_move = np.concatenate([scen.terrain.altitude_many(xy) for xy in moves])
        np.testing.assert_array_equal(blocked.view(np.int64), per_move.view(np.int64))

        # The seal routes each drive's share of a block's altitude back to
        # its rows, across stays interleaved with drives and several sealed
        # blocks: each drive's rows get the altitude of its own fixes.
        monkeypatch.setattr(generator, "BLOCK_ROWS", 64)
        cfg = TraceConfig()
        out = _Buffers(scen.terrain, cfg)
        cache, nodes = RouteCache(scen.network), scen.network.landmark_ids()
        step = cfg.trip_fix_interval_s
        expected_alt, expected_pid = [], []
        pid = 0
        while pid < 25:
            route = cache.arrays(*(int(v) for v in rng.choice(nodes, 2, replace=False)))
            if route is None:
                continue
            n, t0 = int(rng.integers(1, 40)), float(rng.uniform(0.0, 1e5))
            if pid % 3 == 0:
                anchor, z = (100.0, 200.0, 150.0), rng.standard_normal(4 * n)
                out.add_stay(pid, t0, 600.0, n, anchor, z)
                expected_alt.append(anchor[2] + (0.0 + cfg.altitude_noise_sigma_m * z[2 * n:3 * n]))
                expected_pid += [pid] * n
            k = route.segment_ids.size
            seg_times = rng.uniform(0.0, 2.0 * n * step / k, k)
            node_times = t0 + np.concatenate([[0.0], np.cumsum(seg_times)])
            z = rng.standard_normal(3 * n)
            out.add_drive(pid, t0, step, n, 1.0, seg_times, route, z)
            ts = np.arange(t0, t0 + n * step - step / 2, step)
            xy = np.column_stack(
                [
                    np.interp(ts, node_times, route.node_x) + cfg.gps_noise_sigma_m * z[:n],
                    np.interp(ts, node_times, route.node_y) + cfg.gps_noise_sigma_m * z[n:2 * n],
                ]
            )
            expected_alt.append(scen.terrain.altitude_many(xy))
            expected_pid += [pid] * n
            pid += 1
        trace = out.trace()
        assert len(trace) > 3 * out.block_rows
        np.testing.assert_array_equal(
            trace.altitude, np.concatenate(expected_alt).astype(np.float32)
        )
        np.testing.assert_array_equal(trace.person_id, expected_pid)


class TestGeneratorConfig:
    def test_determinism(self, scen, persons):
        a = make_generator(scen, seed=11).generate(persons)
        b = make_generator(scen, seed=11).generate(persons)
        assert column_digests(a) == column_digests(b)
        for col in GpsTrace.COLUMNS:
            np.testing.assert_array_equal(getattr(a.trace, col), getattr(b.trace, col))
        np.testing.assert_array_equal(a.traversals.t, b.traversals.t)
        np.testing.assert_array_equal(a.traversals.segment_id, b.traversals.segment_id)
        assert a.rescues == b.rescues
        assert a.persons == b.persons

    @pytest.mark.parametrize(
        "bad",
        [
            {"trip_fix_interval_s": 0.0},
            {"trip_fix_interval_s": -60.0},
            {"gps_noise_sigma_m": -1.0},
            {"altitude_noise_sigma_m": -0.1},
            {"duplicate_rate": -0.01},
            {"outlier_rate": -0.01},
            {"outlier_rate": 1.5},
            {"trap_probability": 1.01},
            {"normal_hospital_visit_prob": -0.2},
            {"depth_tolerance_range_m": (2.5, 0.3)},
            {"request_delay_range_s": (600.0, 300.0)},
            {"delivery_delay_range_s": (7_200.0, 3_600.0)},
            {"hospital_stay_range_s": (3.0, 2.0)},
            {"normal_hospital_stay_range_s": (3.0, 2.0)},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_invalid_config_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TraceConfig(**bad)

    def test_flood_must_follow_weather_severity(self, scen):
        foreign = FloodModel(scen.terrain, lambda r, t: 0.5, grid_resolution=20)
        with pytest.raises(ValueError, match="severity"):
            MobilityTraceGenerator(
                scen.network,
                scen.partition,
                scen.terrain,
                scen.weather_field,
                foreign,
                scen.hospitals,
            )

    def test_seed_changes_outcome(self, scen, persons):
        a = make_generator(scen, seed=11).generate(persons)
        b = make_generator(scen, seed=12).generate(persons)
        assert len(a.trace) != len(b.trace) or len(a.rescues) != len(b.rescues)

    def test_zero_trap_probability_means_no_rescues(self, scen, persons):
        bundle = make_generator(scen, seed=2, trap_probability=0.0).generate(persons)
        assert bundle.rescues == []

    def test_huge_tolerance_means_no_rescues(self, scen, persons):
        bundle = make_generator(
            scen, seed=2, depth_tolerance_range_m=(500.0, 600.0)
        ).generate(persons)
        assert bundle.rescues == []

    def test_tiny_tolerance_means_more_rescues(self, scen, persons):
        few = make_generator(scen, seed=2, depth_tolerance_range_m=(3.0, 12.0))
        many = make_generator(scen, seed=2, depth_tolerance_range_m=(0.05, 0.5))
        assert len(many.generate(persons).rescues) > len(few.generate(persons).rescues)

    def test_clean_config_produces_clean_trace(self, scen, persons):
        bundle = make_generator(
            scen, seed=2, outlier_rate=0.0, duplicate_rate=0.0
        ).generate(persons)
        assert (bundle.trace.x <= scen.partition.width_m).all()
        assert (bundle.trace.x >= 0).all()

    def test_outlier_rate_respected(self, scen, persons):
        bundle = make_generator(scen, seed=2, outlier_rate=0.05).generate(persons)
        outside = (bundle.trace.x > scen.partition.width_m).mean()
        assert 0.02 < outside < 0.08

    def test_requests_on_day(self, scen, persons):
        bundle = make_generator(scen, seed=2).generate(persons)
        total = sum(
            len(bundle.requests_on_day(d)) for d in range(scen.timeline.total_days)
        )
        assert total == len(bundle.rescues)
        for d in range(scen.timeline.total_days):
            for r in bundle.requests_on_day(d):
                assert d * SECONDS_PER_DAY <= r.request_time_s < (d + 1) * SECONDS_PER_DAY

    def test_rescued_people_emit_hospital_fixes(self, scen, persons):
        """A rescued person's trace contains fixes near their delivery
        hospital after the delivery time."""
        bundle = make_generator(scen, seed=2).generate(persons)
        if not bundle.rescues:
            pytest.skip("no rescues at this scale/seed")
        r = bundle.rescues[0]
        hx, hy = scen.network.landmark(r.hospital_node).xy
        person_fixes = bundle.trace.person_slice(r.person_id)
        after = person_fixes.t >= r.delivery_time_s - 1.0
        d = np.hypot(
            person_fixes.x[after].astype(float) - hx,
            person_fixes.y[after].astype(float) - hy,
        )
        assert (d < 200.0).any()

    def test_fix_intervals_respect_person_rate(self, scen, persons):
        """Stationary-period fixes arrive no faster than the person's GPS
        interval (driving fixes are denser by design)."""
        bundle = make_generator(scen, seed=2, outlier_rate=0.0, duplicate_rate=0.0).generate(
            persons[:5]
        )
        for person in persons[:2]:
            fixes = bundle.trace.person_slice(person.person_id).sort()
            stationary = fixes.speed < 1.0
            ts = fixes.t[stationary]
            if len(ts) > 10:
                gaps = np.diff(ts)
                # Allow trip interruptions; the *typical* stationary gap is
                # the person's interval.
                assert np.median(gaps) >= 0.6 * person.gps_interval_s
