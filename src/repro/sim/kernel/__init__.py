"""Event-driven simulation kernel over structure-of-arrays team state.

The seed engine (:mod:`repro.sim.engine`) advances every team at every
fixed tick even when nothing happens.  This package replaces the inner
loop with a hybrid event-driven scheduler — a heap of next-arrival /
next-dispatch-cycle / next-request-activation / next-flood-front /
next-breakdown-repair events with deterministic ``(time, kind, team_id)``
tie-breaking — layered over per-field team-state columns, so only ticks
where something can happen are executed, and each one reads and writes
team fields in place.

The kernel is **bit-identical** to the seed loop: events are quantized to
the seed's tick grid and each processed tick runs the seed tick body, so
skipping a tick is only allowed when it is provably a no-op.  The
golden-equivalence suite (``tests/test_kernel_equivalence.py``) locks the
two paths together across seeds and fault profiles, and the scheduler /
``TeamArray`` property suites pin the data structures underneath.

Production code constructs :class:`EventKernelSimulator` directly; the
seed ``RescueSimulator.run`` loop is kept untouched as the reference path
the equivalence suite compares against.
"""

from repro.sim.kernel.engine import EventKernelSimulator
from repro.sim.kernel.events import Event, EventHeap, EventKind
from repro.sim.kernel.state import RequestArray, TeamArray, TeamArrayView

__all__ = [
    "Event",
    "EventHeap",
    "EventKind",
    "EventKernelSimulator",
    "RequestArray",
    "TeamArray",
    "TeamArrayView",
]
