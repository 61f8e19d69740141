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
    HospitalField,
    RoutingCache,
    filtered_adjacency,
    routing_cache,
)
from repro.roadnet.graph import Landmark, RoadNetwork, RoadSegment
from repro.roadnet.routing import (
    dijkstra_tree,
    route_to_segment,
    shortest_path,
    shortest_time_from,
    shortest_time_to,
)

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
        is queried three times so the tree-building and hit paths all face
        the same oracle.
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


def _uniform_grid(k):
    """A ``k`` x ``k`` grid of two-way 100 m streets at 10 m/s, where nearly
    every node is reached by several equal-cost paths.  Landmark ids step by
    three and segment ids are a shuffled range, so neither equals its dense
    index nor its row position."""
    net = RoadNetwork()
    for i in range(k * k):
        net.add_landmark(Landmark(3 * i, float(i % k) * 100.0, float(i // k) * 100.0))
    ends = []
    for i in range(k * k):
        r, c = divmod(i, k)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            if 0 <= r + dr < k and 0 <= c + dc < k:
                ends.append((3 * i, 3 * ((r + dr) * k + c + dc)))
    seg_ids = np.random.default_rng(52).permutation(len(ends))
    for sid, (u, v) in zip(seg_ids, ends):
        net.add_segment(RoadSegment(int(sid), u, v, 100.0, 10.0, 0))
    return net.freeze()


def _tied_heads(net, dist, closed, weight):
    """Nodes of a forward seed tree with more than one open in-segment that
    attains their label."""
    cost = "length_m" if weight == "length" else "free_flow_time_s"
    return sum(
        sum(
            dist.get(s.u, float("inf")) + getattr(s, cost) == d
            for s in net.in_segments(node)
            if s.segment_id not in closed
        )
        > 1
        for node, d in dist.items()
    )


class TestTieHeavyEquivalence:
    """Every tree of a tie-dense grid equals the seed's, label for label.

    On a uniform grid almost every node has several tight in-arcs, so the
    prev segment is decided by the seed's tie rule alone.  The closed sets
    cut nodes off, and the corner cut keeps open arcs between unreached
    nodes, whose sums are ``inf`` like the unreached labels.  Each tree is
    checked before any route walks it.
    """

    K = 12

    def test_every_tree_route_and_leg_matches_seed(self):
        net = _uniform_grid(self.K)
        nodes = net.landmark_ids()
        seg_ids = np.array(net.segment_ids())
        corner = {nodes[0], nodes[1], nodes[self.K], nodes[self.K + 1]}
        # Every arc into the 2 x 2 corner: the block's own arcs stay open,
        # between nodes no outside root reaches.
        cut = frozenset(
            s.segment_id for s in net.segments() if s.v in corner and s.u not in corner
        )
        rng = np.random.default_rng(53)
        closures = [frozenset(), cut] + [_random_closed(rng, seg_ids, f) for f in (0.1, 0.3)]
        cache = RoutingCache(net)
        direct = DirectRouter(net)
        unreached = ties = 0
        for closed in closures:
            for weight in ("time", "length"):
                for reverse in (False, True):
                    for root in nodes:
                        dist, prev = dijkstra_tree(net, root, closed, weight, reverse=reverse)
                        tree = (cache.time_to if reverse else cache.time_from)(
                            root, closed, weight
                        )
                        got = {
                            nodes[i]: int(seg_ids[k]) for i, k in enumerate(tree.prev) if k >= 0
                        }
                        assert got == prev, (root, weight, reverse)
                        assert list(tree.items()) == list(dist.items())
                        assert len(tree) == len(dist)
                        unreached += len(nodes) - len(dist)
                        if reverse:
                            continue
                        ties += _tied_heads(net, dist, closed, weight)
                        for dst in rng.choice(nodes, size=3):
                            dst = int(dst)
                            assert cache.route(root, dst, closed, weight) == direct.route(
                                root, dst, closed, weight
                            )
                        for seg in rng.choice(seg_ids, size=2):
                            seg = int(seg)
                            assert cache.route_to_segment(
                                root, seg, closed, weight
                            ) == direct.route_to_segment(root, seg, closed, weight)
        assert unreached > 0, "the closed sets must cut nodes off"
        assert ties > 0, "the grid must tie"


class TestCacheMechanics:
    def test_promotion_path_is_consistent(self, net):
        """First touch (full-tree build) and later touches (hits) of the
        same root must all agree with the seed's target-pruned search."""
        nodes = net.landmark_ids()
        src, dst = int(nodes[3]), int(nodes[-5])
        cache = RoutingCache(net)
        first = cache.route(src, dst)
        assert cache.num_trees == 1 and (cache.misses, cache.hits) == (1, 0)
        second = cache.route(src, dst)
        third = cache.route(src, dst)
        assert cache.num_trees == 1 and (cache.misses, cache.hits) == (1, 2)
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
        # Room for about four full trees plus the filtered rows.
        cache = RoutingCache(net, max_bytes=64 * net.num_landmarks)
        seg_ids = np.array(net.segment_ids())
        closures = [_random_closed(rng, seg_ids, f) for f in (0.0, 0.1, 0.3)]
        for _ in range(40):
            closed = closures[int(rng.integers(len(closures)))]
            root = int(rng.choice(nodes))
            assert cache.time_from(root, closed=closed) == shortest_time_from(
                net, root, closed=closed
            )
            assert cache.stored_bytes <= cache.max_bytes
            assert cache.num_trees <= 4

    def test_adjacency_lru_bounded_and_cleared(self, net):
        rng = np.random.default_rng(47)
        seg_ids = np.array(net.segment_ids())
        closures = [_random_closed(rng, seg_ids, f) for f in (0.05, 0.1, 0.3)]
        last = [("rows", closures[-1], reverse, "time") for reverse in (False, True)]
        sizing = RoutingCache(net)
        for reverse in (False, True):
            sizing._rows(closures[-1], reverse, "time")
        # A budget that holds exactly the last closure's two row sets.
        cache = RoutingCache(net, max_bytes=sum(sizing._lru[k][1] for k in last))
        for closed in closures:
            for reverse in (False, True):
                rows = cache._rows(closed, reverse, "time")
                assert rows == filtered_adjacency(net, closed, reverse)
                assert cache._rows(closed, reverse, "time") is rows
                assert cache.stored_bytes <= cache.max_bytes
        assert set(cache._lru) == set(last)
        cache.route(int(net.landmark_ids()[0]), int(net.landmark_ids()[1]))
        cache.clear()
        assert not cache._lru
        assert cache.num_trees == 0 and cache.stored_bytes == 0

    def test_invalid_weight_rejected(self, net):
        cache = RoutingCache(net)
        nodes = net.landmark_ids()
        with pytest.raises(ValueError):
            cache.route(int(nodes[0]), int(nodes[1]), weight="fuel")
        with pytest.raises(ValueError):
            cache.time_from(int(nodes[0]), weight="fuel")
        with pytest.raises(ValueError):
            RoutingCache(net, max_bytes=0)

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
        import copy

        a = routing_cache(net)
        assert routing_cache(net) is a
        assert a.network is net
        other = copy.deepcopy(net)
        assert routing_cache(other) is not a
        assert routing_cache(other).network is other

    def test_engines_live_exactly_as_long_as_the_network(self, net):
        """A dropped network's engine and oracle are collected with it, and
        neither rides along when the network is pickled or copied."""
        import copy
        import gc
        import pickle
        import weakref

        from repro.roadnet.matrix import travel_time_oracle

        routing_cache(net).time_from(int(net.landmark_ids()[0]))
        travel_time_oracle(net)
        for clone in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert clone._engines == {}
        dropped = copy.deepcopy(net)
        engine = weakref.ref(routing_cache(dropped))
        oracle = weakref.ref(travel_time_oracle(dropped))
        assert travel_time_oracle(dropped) is oracle()
        del dropped
        gc.collect()
        assert engine() is None
        assert oracle() is None

    def test_dropped_network_dies_by_reference_counting(self, net):
        """The network keeps its engines and the engines keep no strong
        reference back, so dropping a network frees it and its engines
        with the cyclic collector switched off."""
        import copy
        import gc
        import weakref

        from repro.roadnet.matrix import travel_time_oracle

        dropped = copy.deepcopy(net)
        nodes = dropped.landmark_ids()
        closed = frozenset(dropped.segment_ids()[:5])
        engine = routing_cache(dropped)
        engine.route(int(nodes[0]), int(nodes[-1]), closed=closed)
        engine.hospital_field((int(nodes[1]), int(nodes[2])), closed)
        refs = [
            weakref.ref(dropped),
            weakref.ref(engine),
            weakref.ref(travel_time_oracle(dropped)),
        ]
        gc.disable()
        try:
            del dropped, engine
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

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
        """Index rows are the seed adjacency rows, in order, on dense
        indices; a closed set drops exactly its segments' rows."""
        rng = np.random.default_rng(48)
        seg_ids = np.array(net.segment_ids())
        index = net.routing_index()
        adjacent = net.in_segments if reverse else net.out_segments
        base = index.rows[(reverse, "time")]
        assert index.node_ids == sorted(index.node_ids)
        for i, node in enumerate(index.node_ids):
            assert [
                (index.segment_ids[k], index.node_ids[other], w) for k, other, w in base[i]
            ] == [
                (s.segment_id, s.u if reverse else s.v, s.free_flow_time_s)
                for s in adjacent(node)
            ]
        for fraction in (0.02, 0.3, 1.0):
            closed = _random_closed(rng, seg_ids, fraction)
            rows = filtered_adjacency(net, closed, reverse=reverse)
            assert len(rows) == len(base)
            for i, node_rows in enumerate(base):
                assert rows[i] == [
                    row for row in node_rows if index.segment_ids[row[0]] not in closed
                ]

    def test_empty_closed_set_is_base_adjacency(self, net):
        rows = net.routing_index().rows
        assert filtered_adjacency(net, frozenset()) is rows[(False, "time")]
        assert filtered_adjacency(net, frozenset(), reverse=True) is rows[(True, "time")]


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
                    assert field.nearest_hospital(node) is None
                    assert field.route(node) is None
                    continue
                if costs.count(best) > 1:
                    continue
                target = hospitals[costs.index(best)]
                checked += 1
                assert field.nearest_hospital(node) == target
                assert field.route(node) == router.route(node, target, closed=closed)
        assert checked > 50
        assert unreachable > 0, "closure densities must maroon some nodes"


class TestPrunedTreeProperty:
    def test_pruned_and_full_trees_agree_on_settled_labels(self, net):
        """The invariant that lets the engine's full trees answer what the
        seed's target-pruned ``shortest_path`` answers: a run that stops at
        ``target`` has settled exactly the labels the full run settles, with
        identical distances and predecessors."""
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


class TestSharedEngine:
    """One engine per network, shared by every simulation and thread."""

    @pytest.fixture(scope="class")
    def flooded_window(self, florence_scenario):
        """(scenario, requests, config) over two flooded hours after the rain."""
        from repro.sim.engine import SimulationConfig
        from repro.sim.requests import RescueRequest

        scenario = florence_scenario
        network = scenario.network
        rng = np.random.default_rng(12)
        t0 = scenario.timeline.storm_end_s
        t1 = t0 + 2.0 * 3_600.0
        requests = []
        for i, seg in enumerate(rng.choice(np.array(network.segment_ids()), size=50)):
            requests.append(
                RescueRequest(
                    request_id=i,
                    person_id=i,
                    time_s=float(t0 + rng.uniform(0.0, (t1 - t0) * 0.8)),
                    segment_id=int(seg),
                    node_id=network.segment(int(seg)).u,
                )
            )
        config = SimulationConfig(t0_s=t0, t1_s=t1, num_teams=15, seed=2)
        return scenario, requests, config

    def test_kernel_result_independent_of_cache_state(self, flooded_window):
        """Cold cache, warm shared cache, and a cleared cache all give the
        same :class:`SimulationResult`, with the flood closing roads."""
        from repro.dispatch.rescue_ts import RescueTsDispatcher
        from repro.sim.kernel import EventKernelSimulator

        scenario, requests, config = flooded_window

        def run():
            sim = EventKernelSimulator(
                scenario, list(requests), RescueTsDispatcher(), config
            )
            return sim.run()

        cache = routing_cache(scenario.network)
        cache.clear()
        try:
            cold = run()
            assert cache.num_trees > 0
            hits = cache.hits
            warm = run()
            assert cache.hits > hits, "the second run must reuse stored trees"
            cache.clear()
            cleared = run()
        finally:
            cache.clear()
        assert cold.num_served > 0
        assert any(i.kind == "reroute" for i in cold.incidents), (
            "the window must close roads under driving teams"
        )
        for other in (warm, cleared):
            assert other.pickups == cold.pickups
            assert other.deliveries == cold.deliveries
            assert other.serving_samples == cold.serving_samples
            assert list(other.incidents) == list(cold.incidents)
            assert other.requests == cold.requests

    def test_concurrent_callers_get_exact_answers(self, net):
        """Threads share one small-budget cache with interleaved closed sets
        (an abandoned timed-out attempt can still be simulating beside the
        next one): no bookkeeping step raises, every answer equals the seed
        Dijkstra's, and the byte count loses no update."""
        import sys
        import threading

        seg_ids = np.array(net.segment_ids())
        rng = np.random.default_rng(50)
        # Few roots, so the threads hit, build and evict the same trees.
        nodes = rng.choice(np.array(net.landmark_ids()), size=12, replace=False)
        closures = [_random_closed(rng, seg_ids, f) for f in (0.0, 0.05, 0.2, 0.4)]
        # Copies: equal closed sets arriving as different objects, as they
        # do from two simulations.
        closures += [frozenset(set(c)) for c in closures[1:]]
        cache = RoutingCache(net, max_bytes=40 * 12 * net.num_landmarks)
        direct = DirectRouter(net)
        errors: list[BaseException] = []
        mismatches: list[tuple] = []

        def worker(seed):
            local = np.random.default_rng(seed)
            try:
                for _ in range(100):
                    closed = closures[int(local.integers(len(closures)))]
                    a, b = (int(n) for n in local.choice(nodes, size=2))
                    seg = int(local.choice(seg_ids))
                    kind = int(local.integers(4))
                    if kind == 0:
                        got, want = cache.route(a, b, closed), direct.route(a, b, closed)
                    elif kind == 1:
                        got = cache.route_to_segment(a, seg, closed)
                        want = direct.route_to_segment(a, seg, closed)
                    elif kind == 2:
                        got, want = dict(cache.time_from(a, closed)), direct.time_from(a, closed)
                    else:
                        got, want = dict(cache.time_to(b, closed)), direct.time_to(b, closed)
                    if got != want:
                        mismatches.append((kind, a, b, seg))
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert not mismatches, mismatches[:5]
        assert cache.hits > 0 and cache.misses > cache.num_trees, "entries must be evicted"
        assert cache.stored_bytes == sum(n for _, n in cache._lru.values())
        assert cache.stored_bytes <= cache.max_bytes

    def test_stored_tree_bytes_stay_within_budget(self, net):
        rng = np.random.default_rng(51)
        seg_ids = np.array(net.segment_ids())
        nodes = np.array(net.landmark_ids())
        hospitals = tuple(int(n) for n in nodes[:5])
        budget = 25 * 12 * net.num_landmarks
        cache = RoutingCache(net, max_bytes=budget)
        closures = [_random_closed(rng, seg_ids, f) for f in (0.0, 0.1, 0.3)]
        evicted = False
        for _ in range(120):
            closed = closures[int(rng.integers(len(closures)))]
            root = int(rng.choice(nodes))
            cache.time_from(root, closed)
            cache.time_to(root, closed)
            cache.route(root, int(rng.choice(nodes)), closed)
            cache.hospital_field(hospitals, closed)
            tree_bytes = sum(n for key, (_, n) in cache._lru.items() if key[0] == "tree")
            assert tree_bytes <= cache.stored_bytes <= budget
            assert cache.stored_bytes == sum(n for _, n in cache._lru.values())
            evicted |= cache.num_trees < cache.misses
        assert evicted, "the budget must force evictions"
        # A compact tree is a float64 and two int32 arrays over the nodes.
        tree = cache.time_from(int(nodes[0]))
        assert tree.nbytes <= 16 * net.num_landmarks
