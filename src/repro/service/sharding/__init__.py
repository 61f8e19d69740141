"""Sharded ingest topology: isolation, failover, and load generation.

The GPS ingest stream of the dispatch service is partitioned
geographically across N isolated shards
(:mod:`~repro.service.sharding.partition`,
:mod:`~repro.service.sharding.shard`,
:mod:`~repro.service.sharding.router`), and a supervisor watches
heartbeats and commands bounded failover/rebalance moves
(:mod:`~repro.service.sharding.supervisor`).
:class:`~repro.service.loop.DispatchService` always ingests through this
layer (one shard by default) and the service chaos harness
(:mod:`repro.service.chaos`) kills, stalls and skews its shards; the
deterministic load generator drives millions of synthetic records per
simulated hour (:mod:`~repro.service.sharding.loadgen`).
"""

from repro.service.sharding.loadgen import (
    LOADGEN_FORMAT,
    LoadgenConfig,
    LoadGenerator,
    default_output_path,
    format_loadgen_report,
    quick_config,
    run_loadgen,
    validate_loadgen_payload,
)
from repro.service.sharding.partition import (
    GridKeyspace,
    ShardAssignment,
    merge_counter_sum,
    merge_reason_counts,
    merge_shard_records,
)
from repro.service.sharding.router import ShardedIngestGuard
from repro.service.sharding.shard import Shard
from repro.service.sharding.supervisor import (
    STATUS_ABANDONED,
    STATUS_ACTIVE,
    STATUS_FAILED,
    FailoverEvent,
    RebalanceEvent,
    ShardingConfig,
    ShardSupervisor,
    SupervisorConfig,
)

__all__ = [
    "LOADGEN_FORMAT",
    "STATUS_ABANDONED",
    "STATUS_ACTIVE",
    "STATUS_FAILED",
    "FailoverEvent",
    "GridKeyspace",
    "LoadGenerator",
    "LoadgenConfig",
    "RebalanceEvent",
    "Shard",
    "ShardAssignment",
    "ShardSupervisor",
    "ShardedIngestGuard",
    "ShardingConfig",
    "SupervisorConfig",
    "default_output_path",
    "format_loadgen_report",
    "merge_counter_sum",
    "merge_reason_counts",
    "merge_shard_records",
    "quick_config",
    "run_loadgen",
    "validate_loadgen_payload",
]
