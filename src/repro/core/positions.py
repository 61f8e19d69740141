"""Real-time population position feeds.

The dispatch center tracks people through their cellphone GPS (Section
IV-A); in the reproduction that feed is the map-matched trajectory set of
the evaluation trace.  ``PopulationFeed`` answers "where is everyone right
now" with per-cycle caching, since several consumers (the SVM predictor,
metrics) ask at the same timestamps.

``HistoricalFallbackFeed`` implements the paper's Section IV-C5 extension:
"Under severe situations, the GPS locations of some people may not be
readily available.  We can refer to these people's historical GPS data to
analyze the home address / work address / preferred driving pattern and
estimate the approximate position."  When a person's last fix is older
than a staleness bound, their position is estimated from their historical
hour-of-day pattern (most-visited landmark at this hour over the
pre-disaster days).

``DegradedPositionFeed`` overlays injected GPS outages (``repro.faults``)
on any inner feed: people inside an outage window lose their fresh fix
and either fall back to the historical estimate or drop out of the
snapshot, exactly as the dispatch center would experience it.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.mobility.mapmatch import MatchedTrajectories
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR

if TYPE_CHECKING:
    from repro.faults.models import FaultInjector

#: Any callable position feed: ``t_seconds -> {person_id: landmark}``.
PositionFeed = Callable[[float], dict[int, int]]


class _QueryCache:
    """Small LRU of per-timestamp query results.

    One :class:`collections.OrderedDict` holds both the mapping and the
    recency order, so entries can never desynchronise (the previous
    parallel list + dict could, on duplicate timestamps) and eviction is
    O(1) instead of an O(n) ``list.pop(0)``.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("cache_size must be positive")
        self._size = size
        self._entries: OrderedDict[float, dict[int, int]] = OrderedDict()

    def get(self, key: float) -> dict[int, int] | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: float, value: dict[int, int]) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self._size:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class PopulationFeed:
    """Callable ``t_seconds -> {person_id: landmark}`` over a matched trace."""

    def __init__(self, matched: MatchedTrajectories, cache_size: int = 8) -> None:
        self.matched = matched
        self._cache = _QueryCache(cache_size)

    def __call__(self, t_seconds: float) -> dict[int, int]:
        cached = self._cache.get(t_seconds)
        if cached is not None:
            return cached
        positions = self.matched.nodes_at_time(t_seconds)
        self._cache.put(t_seconds, positions)
        return positions


class HistoricalFallbackFeed:
    """Position feed with historical-pattern estimation for stale devices.

    For each person, an hour-of-day habit profile is built from their fixes
    over a reference window (typically the pre-disaster days): the landmark
    they most often occupy at each hour.  At query time, a person whose
    latest fix is older than ``staleness_s`` (dead phone, no coverage) is
    placed at their habitual landmark for the current hour instead of their
    last known position.
    """

    def __init__(
        self,
        matched: MatchedTrajectories,
        history_start_s: float,
        history_end_s: float,
        staleness_s: float = 6.0 * SECONDS_PER_HOUR,
        cache_size: int = 8,
    ) -> None:
        if history_end_s <= history_start_s:
            raise ValueError("history window must be non-empty")
        if staleness_s <= 0:
            raise ValueError("staleness bound must be positive")
        self.matched = matched
        self.staleness_s = float(staleness_s)
        self._habits = self._build_habits(history_start_s, history_end_s)
        self._cache = _QueryCache(cache_size)
        #: Query-time statistics, for observability.
        self.fallback_uses = 0

    def _build_habits(self, t0: float, t1: float) -> dict[int, dict[int, int]]:
        """person -> {hour_of_day: habitual landmark} over [t0, t1]."""
        habits: dict[int, dict[int, int]] = {}
        for pid, (ts, nodes) in self.matched.trajectories.items():
            lo = int(np.searchsorted(ts, t0, side="left"))
            hi = int(np.searchsorted(ts, t1, side="right"))
            if hi <= lo:
                continue
            per_hour: dict[int, Counter] = defaultdict(Counter)
            for t, node in zip(ts[lo:hi], nodes[lo:hi]):
                hour = int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
                per_hour[hour][int(node)] += 1
            habits[pid] = {
                hour: counter.most_common(1)[0][0] for hour, counter in per_hour.items()
            }
        return habits

    def habitual_node(self, pid: int, t_seconds: float) -> int | None:
        """The person's habitual landmark at this hour of day, searching
        neighbouring hours when the exact hour has no history."""
        habit = self._habits.get(pid)
        if not habit:
            return None
        hour = int((t_seconds % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
        for delta in range(0, 13):
            for h in ((hour - delta) % 24, (hour + delta) % 24):
                if h in habit:
                    return habit[h]
        return None

    def __call__(self, t_seconds: float) -> dict[int, int]:
        cached = self._cache.get(t_seconds)
        if cached is not None:
            return cached
        out: dict[int, int] = {}
        for pid, (ts, nodes) in self.matched.trajectories.items():
            i = int(np.searchsorted(ts, t_seconds, side="right")) - 1
            if i < 0:
                continue
            if t_seconds - float(ts[i]) > self.staleness_s:
                estimated = self.habitual_node(pid, t_seconds)
                if estimated is not None:
                    out[pid] = estimated
                    self.fallback_uses += 1
                    continue
            out[pid] = int(nodes[i])
        self._cache.put(t_seconds, out)
        return out


class DegradedPositionFeed:
    """A position feed seen through injected GPS outages.

    While a person is inside one of their sampled outage windows the
    dispatch center has no fresh fix for them.  If the inner feed knows
    historical habits (:class:`HistoricalFallbackFeed`), the person is
    placed at their habitual hour-of-day landmark — the paper's Section
    IV-C5 degraded-sensing path; otherwise the person is withheld from
    the snapshot entirely, so the predictor plans only on what the
    dispatch center would actually see.

    Results are not cached here: the inner feed caches its own answers.
    Each person's outage windows are sampled once, the first time the
    person appears, into one flat window table; a query is then one
    vectorized staleness mask over that table, and only the stale people
    are visited one by one.  Windows stay keyed per person, so the order
    in which people are first seen cannot change them.
    """

    def __init__(self, inner: PositionFeed, faults: "FaultInjector") -> None:
        self.inner = inner
        self.faults = faults
        #: People placed at their historical estimate so far.
        self.fallback_uses = 0
        #: People withheld (stale fix, no history to fall back on).
        self.stale_drops = 0
        # Flat window table: window j covers [_starts[j], _ends[j]) and
        # belongs to table row _owner[j]; _row_of[pid] is the person's row,
        # -1 until the person is first seen.
        self._row_of = np.full(0, -1, dtype=np.intp)
        self._rows = 0
        self._starts = np.zeros(0)
        self._ends = np.zeros(0)
        self._owner = np.zeros(0, dtype=np.intp)

    def habitual_node(self, pid: int, t_seconds: float) -> int | None:
        """Delegate so stacked wrappers keep the fallback path."""
        inner_habitual = getattr(self.inner, "habitual_node", None)
        if inner_habitual is None:
            return None
        return inner_habitual(pid, t_seconds)

    def _rows_for(self, pids: np.ndarray) -> np.ndarray:
        """Table rows of ``pids``, sampling the windows of new people."""
        if pids.size and pids.max() >= self._row_of.size:
            grown = np.full(int(pids.max()) + 1, -1, dtype=np.intp)
            grown[: self._row_of.size] = self._row_of
            self._row_of = grown
        rows = self._row_of[pids]
        new = pids[rows < 0]
        if new.size:
            starts: list[float] = []
            ends: list[float] = []
            owner: list[int] = []
            for row, pid in enumerate(new.tolist(), start=self._rows):
                for window in self.faults.gps_windows(pid):
                    starts.append(window.start_s)
                    ends.append(window.end_s)
                    owner.append(row)
            self._row_of[new] = np.arange(self._rows, self._rows + new.size)
            self._rows += new.size
            self._starts = np.concatenate([self._starts, starts])
            self._ends = np.concatenate([self._ends, ends])
            self._owner = np.concatenate([self._owner, np.array(owner, dtype=np.intp)])
            rows = self._row_of[pids]
        return rows

    def __call__(self, t_seconds: float) -> dict[int, int]:
        base = self.inner(t_seconds)
        out = dict(base)
        pids = np.fromiter(base, dtype=np.intp, count=len(base))
        rows = self._rows_for(pids)
        covering = (self._starts <= t_seconds) & (t_seconds < self._ends)
        stale_rows = np.zeros(self._rows, dtype=bool)
        stale_rows[self._owner[covering]] = True
        stale = stale_rows[rows]
        if not stale.any():
            return out
        inner_habitual = getattr(self.inner, "habitual_node", None)
        # Updating or deleting keys of the copy keeps every other key in
        # the inner feed's order.
        for pid in pids[stale].tolist():
            estimated = inner_habitual(pid, t_seconds) if inner_habitual else None
            if estimated is None:
                del out[pid]
                self.stale_drops += 1
            else:
                out[pid] = estimated
                self.fallback_uses += 1
        return out
