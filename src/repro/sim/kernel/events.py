"""Deterministic event scheduler for the hybrid event-driven kernel.

A thin priority queue with exactly the ordering the kernel needs:
events pop in ``(time, kind, team_id)`` order, with the event's token
(a count that rises with every ``schedule``) as the final tie-breaker so
insertion order decides between otherwise-identical events.
Cancellation and rescheduling use tombstones (lazy deletion): a
cancelled entry stays in the heap until it surfaces, at which point it
is silently discarded.
Every live event is popped exactly once — the property suite
(``tests/test_kernel_scheduler.py``) drives randomized
schedule/cancel/reschedule sequences against a sorted-list oracle to pin
ordering, no-loss and no-duplication.

Times are plain floats (the engine uses integer tick indices, which are
exact); ``EventKind`` values define the within-tick priority between
event classes, mirroring the seed tick body's phase order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import NamedTuple


class EventKind(enum.IntEnum):
    """Event classes, ordered by the seed tick body's phase order.

    Ordering only breaks ties between events at the same time; the engine
    processes every phase of a tick regardless of which event woke it, so
    the kind order is a determinism guarantee, not a control-flow one.
    """

    REQUEST_ACTIVATION = 0
    DISPATCH_CYCLE = 1
    FLOOD_FRONT = 2
    CLOSURE_CHANGE = 3
    ACTION_APPLY = 4
    BREAKDOWN = 5
    REPAIR = 6
    ARRIVAL = 7


class Event(NamedTuple):
    """One scheduled occurrence; ``team_id`` is -1 for fleet-wide events."""

    time: float
    kind: EventKind
    team_id: int = -1


class EventHeap:
    """Priority queue of :class:`Event` with deterministic tie-breaking.

    ``schedule`` returns an opaque token for ``cancel`` / ``reschedule``.
    Tokens are single-use: once the event has popped or been cancelled,
    the token is dead and further operations on it return ``False`` /
    raise ``KeyError`` respectively.
    """

    def __init__(self) -> None:
        #: (time, kind, team_id, token); tokens count up in schedule order,
        #: so the token is also the insertion-order tie-breaker.
        self._heap: list[tuple[float, int, int, int]] = []
        self._tokens = itertools.count()
        #: token -> Event for live (not yet popped, not cancelled) entries.
        self._live: dict[int, Event] = {}
        self.popped = 0

    def __len__(self) -> int:
        return len(self._live)

    def schedule(self, time: float, kind: EventKind, team_id: int = -1) -> int:
        """Add an event; returns a token usable with cancel/reschedule."""
        if time != time:  # NaN would corrupt heap order
            raise ValueError("event time must not be NaN")
        token = next(self._tokens)
        time, team_id = float(time), int(team_id)
        self._live[token] = Event(time, kind, team_id)
        heapq.heappush(self._heap, (time, int(kind), team_id, token))
        return token

    def cancel(self, token: int) -> bool:
        """Remove a live event; False when already popped or cancelled."""
        return self._live.pop(token, None) is not None

    def reschedule(self, token: int, time: float) -> int:
        """Move a live event to a new time; returns the replacement token.

        Raises ``KeyError`` for a dead token — a reschedule must never
        silently resurrect an event that already fired.
        """
        event = self._live.pop(token, None)
        if event is None:
            raise KeyError(f"event token {token} is not live")
        return self.schedule(time, event.kind, event.team_id)

    def peek(self) -> Event | None:
        """The earliest live event, without removing it."""
        heap = self._heap
        while heap:
            token = heap[0][3]
            event = self._live.get(token)
            if event is not None:
                return event
            heapq.heappop(heap)  # tombstone: discard and keep looking
        return None

    def pop(self) -> Event | None:
        """Remove and return the earliest live event; None when empty."""
        heap = self._heap
        while heap:
            token = heapq.heappop(heap)[3]
            event = self._live.pop(token, None)
            if event is not None:
                self.popped += 1
                return event
        return None
