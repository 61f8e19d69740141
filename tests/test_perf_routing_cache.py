"""Property-style randomized equivalence tests for the routing cache.

Core claim under test: for ANY ``(src, dst, closed-set)`` triple — random
closure sets of every density, disconnected pairs, the all-closed network —
the cache answers exactly what a fresh seed Dijkstra answers, and keeps
answering it across hits, promotions and LRU evictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.routing_cache import (
    DirectRouter,
    RoutingCache,
    clear_routing_caches,
    filtered_adjacency,
    routing_cache,
)
from repro.roadnet.routing import (
    dijkstra_tree,
    route_to_segment,
    shortest_path,
    shortest_time_from,
    shortest_time_to,
)
from repro.sim.kernel.routing import HospitalField

NUM_CASES = 200


@pytest.fixture(scope="module")
def net(florence_scenario):
    return florence_scenario.network


def _random_closed(rng, seg_ids, fraction):
    k = int(round(fraction * len(seg_ids)))
    if k == 0:
        return frozenset()
    return frozenset(int(s) for s in rng.choice(seg_ids, size=k, replace=False))


class TestRandomizedEquivalence:
    def test_cached_routes_match_fresh_dijkstra(self, net):
        """~NUM_CASES random (src, dst, closed) triples, mixed densities.

        Closure fractions include 0 (free network), mid densities that
        disconnect some pairs, and 1.0 (everything closed).  Every triple
        is queried three times so the first-touch (target-pruned),
        promotion (full-tree build) and hit paths all face the same oracle.
        """
        rng = np.random.default_rng(42)
        nodes = np.array(net.landmark_ids())
        seg_ids = np.array(net.segment_ids())
        cache = RoutingCache(net)
        fractions = [0.0, 0.02, 0.1, 0.35, 0.7, 1.0]
        cases = 0
        unreachable = 0
        for fraction in fractions:
            for _ in range(NUM_CASES // len(fractions) // 2 + 1):
                closed = _random_closed(rng, seg_ids, fraction)
                src, dst = (int(n) for n in rng.choice(nodes, size=2, replace=False))
                expected = shortest_path(net, src, dst, closed=closed)
                for _repeat in range(3):
                    cases += 1
                    got = cache.route(src, dst, closed=closed)
                    assert got == expected
                    if expected is None:
                        unreachable += 1
                    else:
                        # Exact float equality, not approx: same relaxation
                        # order, same accumulation.
                        assert got.travel_time_s == expected.travel_time_s
                        assert got.nodes == expected.nodes
                        assert got.segment_ids == expected.segment_ids
        assert cases >= NUM_CASES
        assert unreachable > 0, "closure densities must produce disconnected pairs"
        assert cache.hits > 0 and cache.misses > 0

    def test_cached_costs_match_fresh_dijkstra(self, net):
        rng = np.random.default_rng(43)
        nodes = np.array(net.landmark_ids())
        seg_ids = np.array(net.segment_ids())
        cache = RoutingCache(net)
        for fraction in (0.0, 0.15, 0.5, 1.0):
            closed = _random_closed(rng, seg_ids, fraction)
            for _ in range(6):
                root = int(rng.choice(nodes))
                assert cache.time_from(root, closed=closed) == shortest_time_from(
                    net, root, closed=closed
                )
                assert cache.time_to(root, closed=closed) == shortest_time_to(
                    net, root, closed=closed
                )

    def test_route_to_segment_matches_seed(self, net):
        rng = np.random.default_rng(44)
        nodes = np.array(net.landmark_ids())
        seg_ids = np.array(net.segment_ids())
        cache = RoutingCache(net)
        for fraction in (0.0, 0.2, 0.6):
            closed = _random_closed(rng, seg_ids, fraction)
            for _ in range(15):
                src = int(rng.choice(nodes))
                seg = int(rng.choice(seg_ids))
                expected = route_to_segment(net, src, seg, closed=closed)
                assert cache.route_to_segment(src, seg, closed=closed) == expected
        # A closed target segment is never routable.
        seg = int(seg_ids[0])
        assert cache.route_to_segment(int(nodes[0]), seg, closed=frozenset({seg})) is None

    def test_all_closed_network(self, net):
        closed = frozenset(int(s) for s in net.segment_ids())
        cache = RoutingCache(net)
        nodes = net.landmark_ids()
        src, dst = int(nodes[0]), int(nodes[1])
        assert cache.route(src, dst, closed=closed) is None
        assert cache.time_from(src, closed=closed) == {src: 0.0}
        assert cache.time_to(dst, closed=closed) == {dst: 0.0}
        # src == dst stays trivially routable even with everything closed.
        trivial = cache.route(src, src, closed=closed)
        assert trivial is not None and trivial.is_trivial


class TestCacheMechanics:
    def test_promotion_path_is_consistent(self, net):
        """First touch (target-pruned), second touch (full-tree build) and
        third touch (hit) of the same root must all agree."""
        nodes = net.landmark_ids()
        src, dst = int(nodes[3]), int(nodes[-5])
        cache = RoutingCache(net)
        first = cache.route(src, dst)
        assert cache.num_trees == 0  # pruned search, nothing cached yet
        second = cache.route(src, dst)
        assert cache.num_trees == 1  # promoted to a full tree
        hits_before = cache.hits
        third = cache.route(src, dst)
        assert cache.hits == hits_before + 1
        assert first == second == third == shortest_path(net, src, dst)

    def test_cost_row_then_route_is_a_hit(self, net):
        """The engine's nearest-hospital pattern: one SSSP serves both."""
        nodes = net.landmark_ids()
        src, dst = int(nodes[0]), int(nodes[7])
        cache = RoutingCache(net)
        cache.time_from(src)
        assert (cache.misses, cache.hits) == (1, 0)
        route = cache.route(src, dst)
        assert (cache.misses, cache.hits) == (1, 1)
        assert route == shortest_path(net, src, dst)

    def test_lru_eviction_keeps_answers_correct(self, net):
        rng = np.random.default_rng(45)
        nodes = np.array(net.landmark_ids())
        cache = RoutingCache(net, max_closure_sets=2, max_trees_per_closure=4)
        seg_ids = np.array(net.segment_ids())
        closures = [_random_closed(rng, seg_ids, f) for f in (0.0, 0.1, 0.3)]
        for _ in range(40):
            closed = closures[int(rng.integers(len(closures)))]
            root = int(rng.choice(nodes))
            assert cache.time_from(root, closed=closed) == shortest_time_from(
                net, root, closed=closed
            )
            assert len(cache._closures) <= 2
            assert all(len(line.trees) <= 4 for line in cache._closures.values())

    def test_adjacency_lru_bounded_and_cleared(self, net):
        rng = np.random.default_rng(47)
        seg_ids = np.array(net.segment_ids())
        cache = RoutingCache(net, max_closure_sets=2)
        closures = [_random_closed(rng, seg_ids, f) for f in (0.05, 0.1, 0.3)]
        for closed in closures:
            for reverse in (False, True):
                adj = cache.adjacency(closed, reverse=reverse)
                assert cache.adjacency(closed, reverse=reverse) is adj
                assert len(cache._adjacencies) <= 2
        assert set(cache._adjacencies) == {(closures[-1], False), (closures[-1], True)}
        cache.route(int(net.landmark_ids()[0]), int(net.landmark_ids()[1]))
        cache.clear()
        assert not cache._adjacencies
        assert cache.num_trees == 0

    def test_invalid_weight_rejected(self, net):
        cache = RoutingCache(net)
        nodes = net.landmark_ids()
        with pytest.raises(ValueError):
            cache.route(int(nodes[0]), int(nodes[1]), weight="fuel")
        with pytest.raises(ValueError):
            cache.time_from(int(nodes[0]), weight="fuel")
        with pytest.raises(ValueError):
            RoutingCache(net, max_closure_sets=0)

    def test_unknown_landmark_rejected(self, net):
        cache = RoutingCache(net)
        with pytest.raises(KeyError):
            cache.route(-1, int(net.landmark_ids()[0]))

    def test_weight_length_cached_separately(self, net):
        nodes = net.landmark_ids()
        src, dst = int(nodes[2]), int(nodes[-2])
        cache = RoutingCache(net)
        by_time = cache.time_from(src, weight="time")
        by_length = cache.time_from(src, weight="length")
        assert by_time == shortest_time_from(net, src, weight="time")
        assert by_length == shortest_time_from(net, src, weight="length")
        r = cache.route(src, dst, weight="length")
        assert r == shortest_path(net, src, dst, weight="length")


class TestProcessWideWiring:
    def test_cache_is_per_network_and_reused(self, net):
        clear_routing_caches()
        try:
            a = routing_cache(net)
            assert routing_cache(net) is a
        finally:
            clear_routing_caches()

    def test_direct_router_matches_seed_functions(self, net):
        nodes = net.landmark_ids()
        src, dst = int(nodes[1]), int(nodes[-1])
        router = DirectRouter(net)
        assert router.route(src, dst) == shortest_path(net, src, dst)
        assert router.time_from(src) == shortest_time_from(net, src)
        assert router.time_to(dst) == shortest_time_to(net, dst)
        seg = int(net.segment_ids()[5])
        assert router.route_to_segment(src, seg) == route_to_segment(net, src, seg)


class TestFilteredAdjacency:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_drops_exactly_closed_rows_in_order(self, net, reverse):
        rng = np.random.default_rng(48)
        seg_ids = np.array(net.segment_ids())
        base = net.in_adjacency() if reverse else net.out_adjacency()
        for fraction in (0.02, 0.3, 1.0):
            closed = _random_closed(rng, seg_ids, fraction)
            adj = filtered_adjacency(net, closed, reverse=reverse)
            assert list(adj) == list(base)
            for node, rows in base.items():
                assert adj[node] == [row for row in rows if row[0] not in closed]

    def test_empty_closed_set_is_base_adjacency(self, net):
        assert filtered_adjacency(net, frozenset()) is net.out_adjacency()
        assert filtered_adjacency(net, frozenset(), reverse=True) is net.in_adjacency()


class TestHospitalField:
    def test_matches_argmin_over_direct_router(self, florence_scenario):
        """Nearest hospital and the route to it equal a first-minimum argmin
        over seed forward searches.  Nodes whose two best hospitals tie
        exactly in float are skipped: the reverse search sums segment times
        in the opposite order, so the tie-break there is not comparable."""
        net = florence_scenario.network
        hospitals = [h.node_id for h in florence_scenario.hospitals]
        router = DirectRouter(net)
        rng = np.random.default_rng(49)
        nodes = np.array(net.landmark_ids())
        seg_ids = np.array(net.segment_ids())
        checked = unreachable = 0
        for fraction in (0.0, 0.05, 0.2, 0.5):
            closed = _random_closed(rng, seg_ids, fraction)
            field = HospitalField(net, hospitals, closed)
            for node in rng.choice(nodes, size=25, replace=False):
                node = int(node)
                times = router.time_from(node, closed=closed)
                costs = [times.get(h, float("inf")) for h in hospitals]
                best = min(costs)
                if best == float("inf"):
                    unreachable += 1
                    assert node not in field.nearest
                    assert field.route(node) is None
                    continue
                if costs.count(best) > 1:
                    continue
                target = hospitals[costs.index(best)]
                checked += 1
                assert field.nearest[node] == target
                assert field.route(node) == router.route(node, target, closed=closed)
        assert checked > 50
        assert unreachable > 0, "closure densities must maroon some nodes"


class TestPrunedTreeProperty:
    def test_pruned_and_full_trees_agree_on_settled_labels(self, net):
        """The invariant the first-touch optimization rests on: a run that
        stops at ``target`` has settled exactly the labels the full run
        settles, with identical distances and predecessors."""
        rng = np.random.default_rng(46)
        nodes = np.array(net.landmark_ids())
        for _ in range(20):
            root, target = (int(n) for n in rng.choice(nodes, size=2, replace=False))
            full_dist, full_prev = dijkstra_tree(net, root)
            dist, prev = dijkstra_tree(net, root, target=target)
            # The target and its whole predecessor chain are settled when
            # the pruned run stops: labels and predecessors are final and
            # identical to the full run.
            node = target
            while node != root:
                assert dist[node] == full_dist[node]
                assert prev[node] == full_prev[node]
                node = net.segment(prev[node]).u
            # Frontier nodes only ever hold *tentative* labels, which can
            # overestimate but never undercut the final label.
            for other, d in dist.items():
                assert d >= full_dist[other]


def test_dotted_import_binds_the_module():
    """``repro.perf`` does not shadow its submodule with the factory of the
    same name, so a dotted import reaches the module's other names."""
    import repro.perf
    import repro.perf.routing_cache as rc

    assert rc.__name__ == "repro.perf.routing_cache"
    assert rc.filtered_adjacency is filtered_adjacency
    assert rc.routing_cache is routing_cache
    assert repro.perf.routing_cache is rc
