"""The central RNG stream-key registry.

Every deterministic subsystem draws its randomness from generators
spawned as ``np.random.default_rng([seed, TAG, entity...])``.  The
*tag* is what keeps substreams independent: two subsystems spawning
with the same tag and overlapping entity ids would draw **correlated**
randomness — faults that track episode boundaries, backoff jitter
that mirrors worker crashes — silently corrupting every comparison the paper's
fig09-fig16 reproduction rests on.

This module is therefore the single source of truth for stream tags.
The rules:

* every tag is a module-level integer constant here, named
  ``STREAM_<SUBSYSTEM>_<PURPOSE>``;
* a tag value may appear exactly once (``_register`` raises on
  collision at import time, and the REP601 project lint proves it
  statically);
* spawn sites elsewhere in the tree must reference these constants —
  a literal tag that is not registered here is a REP602 finding, and a
  tag the analyzer cannot resolve to an integer is REP603;
* adding a subsystem means adding its tags *here first*, then
  importing them (see ``docs/STATIC_ANALYSIS.md``, "stream-tag
  registry workflow").

Tag values are frozen: they are part of the bit-identity contract
(changing one reshuffles every draw keyed by it and invalidates every
golden test).  New tags take fresh values; old values are never
recycled.
"""

from __future__ import annotations

from typing import Final, NamedTuple


class StreamTag(NamedTuple):
    """Registry metadata for one tag value."""

    value: int
    name: str
    #: Top-level ``repro.<subsystem>`` package whose spawn sites own
    #: the tag.  One owner per tag: cross-subsystem reuse is exactly
    #: the collision REP601 exists to prevent.
    subsystem: str


#: value -> metadata for every registered tag (see :func:`tag_info`).
REGISTRY: dict[int, StreamTag] = {}

_NAMES_SEEN: set[str] = set()


def _register(value: int, name: str, subsystem: str) -> int:
    """Register one tag; loud on any collision.

    Runs at import time, so a duplicated value or name can never reach
    a simulation — the module fails to import first.
    """
    if value < 0:
        raise ValueError(f"stream tag {name} must be non-negative, got {value}")
    if value in REGISTRY:
        raise ValueError(
            f"stream tag collision: {name} and {REGISTRY[value].name} "
            f"both claim value {value}"
        )
    if name in _NAMES_SEEN:
        raise ValueError(f"stream tag name {name!r} registered twice")
    _NAMES_SEEN.add(name)  # repro: allow-fork-unsafe -- written at import time only, before any fork
    REGISTRY[value] = StreamTag(value, name, subsystem)  # repro: allow-fork-unsafe -- written at import time only, before any fork
    return value


# -- fault families (repro.faults, PR 1/5/6/7) --------------------------------
# Environment faults key per entity: (seed, tag, person/team/segment id).

STREAM_FAULT_GPS: Final = _register(101, "fault-gps", "faults")
STREAM_FAULT_COMM: Final = _register(102, "fault-comm", "faults")
STREAM_FAULT_BREAKDOWN: Final = _register(103, "fault-breakdown", "faults")
STREAM_FAULT_CLOSURE: Final = _register(104, "fault-closure", "faults")
STREAM_FAULT_DISPATCHER: Final = _register(105, "fault-dispatcher", "faults")

# Component faults key per dispatch cycle: (seed, tag, cycle index).
STREAM_FAULT_PREDICTOR: Final = _register(106, "fault-predictor", "faults")
STREAM_FAULT_POLICY_LATENCY: Final = _register(107, "fault-policy-latency", "faults")
STREAM_FAULT_CORRUPT_RECORD: Final = _register(108, "fault-corrupt-record", "faults")

# 109-111 belonged to the retired shard-fault family; never reuse them.

# Worker faults key per episode: (seed, tag, episode id).
STREAM_WORKER_CRASH: Final = _register(112, "worker-crash", "faults")
STREAM_WORKER_STALL: Final = _register(113, "worker-stall", "faults")
STREAM_WORKER_CORRUPT: Final = _register(114, "worker-corrupt", "faults")

# -- parallel rollouts (repro.rollouts, PR 7) ---------------------------------
# Episode streams key (seed, tag, episode id); backoff jitter keys
# (seed, tag, episode id, attempt).  Worker identity never appears.

STREAM_ROLLOUT_EPISODE: Final = _register(115, "rollout-episode", "rollouts")
STREAM_ROLLOUT_BACKOFF: Final = _register(116, "rollout-backoff", "rollouts")

# -- training faults (repro.faults, PR 10) ------------------------------------
# Training faults key per episode: (seed, tag, episode id).  The sampled
# fate decides both whether the episode is affected and at which learn
# step the fault fires, so a schedule is bit-identical across reruns and
# independent of how many recovery attempts the sentinel makes.

STREAM_TRAIN_NAN_GRAD: Final = _register(117, "train-fault-nan-gradient", "faults")
STREAM_TRAIN_CORRUPT_REPLAY: Final = _register(118, "train-fault-corrupt-replay", "faults")
STREAM_TRAIN_REWARD_SPIKE: Final = _register(119, "train-fault-reward-spike", "faults")
STREAM_TRAIN_CKPT_BITROT: Final = _register(120, "train-fault-checkpoint-bitrot", "faults")

# -- training health (repro.training, PR 10) ----------------------------------
# Escalation rung 1 re-perturbs exploration after a rollback: the agent's
# action stream is re-seeded (seed, tag, anomaly idx) so a replay that
# diverged once explores a deterministically *different* trajectory.

STREAM_TRAIN_REPERTURB: Final = _register(121, "train-recovery-perturb", "training")

# 201-202 belonged to the retired ingest load generator; never reuse them.

# -- mobility generation (repro.mobility.generator, seed-era) -----------------
# The trace-dirtying stream predates the registry; its value is frozen
# by every golden mobility test.  (Per-person streams in the generator
# key (seed, person id) with no tag — a pragma'd pre-registry layout.)

STREAM_MOBILITY_DIRTY: Final = _register(999_983, "mobility-dirty-trace", "mobility")


def tag_info(value: int) -> StreamTag:
    """Metadata for a registered tag value; raises ``KeyError`` when
    unregistered (an unregistered spawn is a lint violation, REP602)."""
    return REGISTRY[value]


def registered_values() -> frozenset[int]:
    """Every registered tag value, for auditing and the lint engine."""
    return frozenset(REGISTRY)


def registry_table() -> list[StreamTag]:
    """The registry sorted by value — stable order for docs and reports."""
    return sorted(REGISTRY.values())
