"""Hot-path performance layer.

``repro.perf`` makes the paper's headline latency claim reproducible at
scale without changing a single simulated outcome:

* :mod:`repro.perf.routing_cache` — one closure-aware routing engine per
  road network, shared by the simulators, the dispatchers and the mobility
  pipeline: dense-index Dijkstra and compact trees under one byte budget.
  Results are bit-identical to the per-call seed implementation by
  construction (the seed relax sequence on dense-index rows).
* :mod:`repro.perf.bench` — the ``repro bench`` microbenchmark suite:
  routing, batched prediction, full simulation ticks and training steps,
  emitted as a durable ``BENCH_<date>.json`` artifact.

Every optimized path ships with an equivalence proof in
``tests/test_perf_equivalence.py`` / ``tests/test_perf_routing_cache.py``;
see ``docs/PERFORMANCE.md`` for the design and invalidation rules.

The per-network factory ``routing_cache`` is not re-exported here: the
name belongs to its submodule, so ``import repro.perf.routing_cache``
binds the module.
"""

from repro.perf.routing_cache import (
    DirectRouter,
    Router,
    RoutingCache,
)

__all__ = [
    "DirectRouter",
    "Router",
    "RoutingCache",
]
