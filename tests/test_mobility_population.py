"""Tests for population generation, trips and route caching."""

import numpy as np
import pytest

from repro.geo.regions import charlotte_regions
from repro.mobility.person import Person
from repro.mobility.population import PopulationConfig, generate_population
from repro.mobility.routes import RouteCache
from repro.mobility.trips import PlannedTrip, TripModel, TripModelConfig, _dechain_conflicts
from repro.roadnet.generator import RoadNetworkConfig, generate_road_network

W, H = 70_000.0, 45_000.0


@pytest.fixture(scope="module")
def partition():
    return charlotte_regions(W, H)


@pytest.fixture(scope="module")
def network(partition):
    return generate_road_network(partition, RoadNetworkConfig(grid_cols=10, grid_rows=10))


@pytest.fixture(scope="module")
def population(network, partition):
    return generate_population(network, partition, PopulationConfig(size=300), seed=1)


class TestPerson:
    def test_anchors(self):
        p = Person(0, 1, 2, (3, 4), 3600.0)
        assert p.anchors == (1, 2, 3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Person(-1, 1, 2, (), 3600.0)
        with pytest.raises(ValueError):
            Person(0, 1, 2, (), 0.0)


class TestPopulation:
    def test_size_and_unique_ids(self, population):
        assert len(population) == 300
        assert len({p.person_id for p in population}) == 300

    def test_anchors_are_valid_landmarks(self, population, network):
        nodes = set(network.landmark_ids())
        for p in population:
            assert set(p.anchors) <= nodes

    def test_gps_interval_in_paper_range(self, population):
        for p in population:
            assert 1_800.0 <= p.gps_interval_s <= 7_200.0

    def test_deterministic(self, network, partition):
        cfg = PopulationConfig(size=50)
        a = generate_population(network, partition, cfg, seed=9)
        b = generate_population(network, partition, cfg, seed=9)
        assert [(p.home_node, p.work_node, p.poi_nodes) for p in a] == [
            (p.home_node, p.work_node, p.poi_nodes) for p in b
        ]

    def test_downtown_home_bias(self, network, partition):
        pop = generate_population(
            network, partition, PopulationConfig(size=2_000), seed=2
        )
        homes = np.array([network.landmark(p.home_node).xy for p in pop])
        regions = partition.region_of_many(homes)
        share_r3 = (regions == 3).mean()
        share_r6 = (regions == 6).mean()
        assert share_r3 > share_r6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(size=0)
        with pytest.raises(ValueError):
            PopulationConfig(downtown_work_share=1.5)
        with pytest.raises(ValueError):
            PopulationConfig(gps_interval_range_s=(0.0, 100.0))


class TestTripModel:
    @staticmethod
    def _model(sev: float = 0.0) -> TripModel:
        return TripModel(lambda node, t: sev, TripModelConfig(suppression=1.0))

    def test_trips_chain(self, population):
        model = self._model()
        rng = np.random.default_rng(0)
        for person in population[:50]:
            trips = model.plan_day(person, 3, rng)
            cur = person.home_node
            last_t = -1.0
            for tr in trips:
                assert tr.src == cur
                assert tr.depart_s > last_t
                cur = tr.dst
                last_t = tr.depart_s

    def test_full_severity_suppresses_everything(self, population):
        model = self._model(sev=1.0)
        rng = np.random.default_rng(0)
        total = sum(len(model.plan_day(p, 0, rng)) for p in population[:100])
        assert total == 0

    def test_zero_severity_produces_trips(self, population):
        model = self._model(sev=0.0)
        rng = np.random.default_rng(0)
        total = sum(len(model.plan_day(p, 0, rng)) for p in population[:100])
        assert total > 100

    def test_trips_within_day(self, population):
        model = self._model()
        rng = np.random.default_rng(1)
        for person in population[:30]:
            for tr in model.plan_day(person, 5, rng):
                assert 5 * 86_400.0 <= tr.depart_s < 6 * 86_400.0

    def test_dechain_drops_mismatched(self):
        trips = [
            PlannedTrip(100.0, 1, 2),
            PlannedTrip(200.0, 9, 3),  # person is at 2, not 9 -> dropped
            PlannedTrip(300.0, 2, 1),
        ]
        out = _dechain_conflicts(trips)
        assert [(t.src, t.dst) for t in out] == [(1, 2), (2, 1)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TripModelConfig(commute_probability=1.2)


class TestRouteCache:
    def test_cache_hits(self, network):
        cache = RouteCache(network)
        r1 = cache.route(0, 5)
        r2 = cache.route(0, 5)
        assert r1 is r2
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_distinct_keys(self, network):
        cache = RouteCache(network)
        cache.route(0, 5)
        cache.route(5, 0)
        assert len(cache) == 2

    def test_arrays_follow_the_route(self, network):
        cache = RouteCache(network)
        arrays = cache.arrays(0, 5)
        route = cache.route(0, 5)
        assert arrays.route is route
        assert arrays is cache.arrays(0, 5)
        assert arrays.segment_ids.tolist() == list(route.segment_ids)
        segments = [network.segment(s) for s in route.segment_ids]
        assert arrays.free_flow_time_s.tolist() == [s.free_flow_time_s for s in segments]
        assert arrays.speed_limit_mps.tolist() == [s.speed_limit_mps for s in segments]
        xy = [network.landmark(n).xy for n in route.nodes]
        assert list(zip(arrays.node_x.tolist(), arrays.node_y.tolist())) == xy

    def test_arrays_of_trivial_route_is_none(self, network):
        assert RouteCache(network).arrays(5, 5) is None
