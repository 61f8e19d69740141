"""Daily trip planning with disaster suppression.

Normal-day behaviour is a simple commute + leisure model; during the
disaster each planned trip survives only with probability
``1 - suppression * severity(home region, depart time)``.  This is the
mechanism that reproduces the paper's Observation 2 (vehicle flow collapses
during the storm and recovers only partially afterwards) — trips simply
stop happening where and when the disaster is severe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mobility.person import Person
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: ``severity_fn(node_id, t_seconds) -> float`` — severity at a landmark.
NodeSeverityFn = Callable[[int, float], float]

#: ``intensity_fn(t_seconds) -> float`` — city-wide storm intensity in [0, 1].
StormIntensityFn = Callable[[float], float]


def uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` for scalar bounds: the same stream and value
    (numpy computes ``lo + (hi - lo) * next_double``) without the
    argument handling of the general call."""
    return lo + (hi - lo) * rng.random()


@dataclass(frozen=True)
class PlannedTrip:
    """One planned trip of a person's day: depart at ``depart_s`` (absolute
    scenario seconds) from ``src`` to ``dst`` landmarks."""

    depart_s: float
    src: int
    dst: int


@dataclass(frozen=True)
class TripModelConfig:
    commute_probability: float = 0.72
    leisure_probability: float = 0.55
    #: How strongly severity suppresses trips (1 = a fully severe region
    #: produces no trips at all).
    suppression: float = 0.92
    #: Severity response sharpness: effective severity is
    #: ``min(1, severity * sharpness)``, so even moderately flooded regions
    #: lose most trips — the paper's Fig. 5 shows flow dropping to almost
    #: zero during the storm.
    severity_sharpness: float = 1.6
    morning_window_h: tuple[float, float] = (6.5, 9.5)
    evening_window_h: tuple[float, float] = (16.0, 19.5)
    leisure_window_h: tuple[float, float] = (10.0, 21.0)

    def __post_init__(self) -> None:
        for p in (self.commute_probability, self.leisure_probability, self.suppression):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")


class TripModel:
    """Samples a person's trips for one day."""

    def __init__(
        self,
        node_severity: NodeSeverityFn,
        config: TripModelConfig | None = None,
        storm_intensity: StormIntensityFn | None = None,
    ) -> None:
        self.node_severity = node_severity
        self.config = config or TripModelConfig()
        self.storm_intensity = storm_intensity or (lambda t: 0.0)

    def _survives(self, person: Person, depart_s: float, rng: np.random.Generator) -> bool:
        """A planned trip survives both the local flood suppression and the
        city-wide shelter-in-place effect of an active hurricane."""
        cfg = self.config
        sev = min(1.0, cfg.severity_sharpness * self.node_severity(person.home_node, depart_s))
        effect = max(sev, self.storm_intensity(depart_s))
        return rng.random() >= cfg.suppression * effect

    def plan_day(
        self, person: Person, day: int, rng: np.random.Generator
    ) -> list[PlannedTrip]:
        """Plan (possibly zero) trips for ``person`` on scenario day ``day``.

        Returned trips are time-ordered and chained: each trip departs from
        where the previous one ended.
        """
        cfg = self.config
        day0 = day * SECONDS_PER_DAY
        trips: list[PlannedTrip] = []
        cur = person.home_node

        if rng.random() < cfg.commute_probability:
            m0, m1 = cfg.morning_window_h
            depart = day0 + uniform(rng, m0, m1) * SECONDS_PER_HOUR
            if self._survives(person, depart, rng) and person.work_node != cur:
                trips.append(PlannedTrip(depart, cur, person.work_node))
                cur = person.work_node
            e0, e1 = cfg.evening_window_h
            depart = day0 + uniform(rng, e0, e1) * SECONDS_PER_HOUR
            if cur != person.home_node and self._survives(person, depart, rng):
                trips.append(PlannedTrip(depart, cur, person.home_node))
                cur = person.home_node

        if person.poi_nodes and rng.random() < cfg.leisure_probability:
            l0, l1 = cfg.leisure_window_h
            depart = day0 + uniform(rng, l0, l1) * SECONDS_PER_HOUR
            # Same stream as ``rng.choice(pois)``, without the array round trip.
            pois = person.poi_nodes
            poi = pois[int(rng.integers(0, len(pois)))]
            if poi != cur and self._survives(person, depart, rng):
                trips.append(PlannedTrip(depart, cur, poi))
                back = depart + uniform(rng, 1.0, 3.0) * SECONDS_PER_HOUR
                trips.append(PlannedTrip(back, poi, person.home_node))

        trips.sort(key=lambda tr: tr.depart_s)
        return _dechain_conflicts(trips)


def _dechain_conflicts(trips: list[PlannedTrip]) -> list[PlannedTrip]:
    """Drop trips whose source no longer matches where the person actually
    is after sorting (leisure inserted between commute legs, etc.)."""
    out: list[PlannedTrip] = []
    cur: int | None = None
    for tr in trips:
        if cur is not None and tr.src != cur:
            continue
        out.append(tr)
        cur = tr.dst
    return out
