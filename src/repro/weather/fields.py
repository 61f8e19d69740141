"""Per-region time-varying weather fields.

Couples the static region profiles (Fig. 1: peak precipitation / wind /
altitude per region) with a storm timeline to produce the quantities the
rest of the system consumes: instantaneous precipitation rate, wind speed,
and the region disaster severity that drives flooding and trip suppression.
"""

from __future__ import annotations

import numpy as np

from repro.geo.regions import RegionPartition
from repro.weather.storms import StormTimeline


class RegionWeatherField:
    """Region-resolved weather as a function of scenario time."""

    def __init__(self, partition: RegionPartition, timeline: StormTimeline) -> None:
        self.partition = partition
        self.timeline = timeline
        #: ``(timeline, t, flood_level(t))`` of the last evaluation.
        self._flood_memo: tuple[object, float, float] = (None, float("nan"), 0.0)

    def _flood_level(self, t_seconds: float) -> float:
        """``timeline.flood_level(t)``, evaluated once per run of calls at
        one ``t``: per-region loops ask for it once per region."""
        memo = self._flood_memo
        if memo[0] is self.timeline and memo[1] == t_seconds:
            return memo[2]
        level = self.timeline.flood_level(t_seconds)
        self._flood_memo = (self.timeline, t_seconds, level)
        return level

    def precipitation_mm_per_h(self, region_id: int, t_seconds: float) -> float:
        """Instantaneous rain rate; the profile value is the storm-peak rate."""
        peak = self.partition.profile(region_id).precipitation_mm
        return peak * self.timeline.intensity(t_seconds)

    def wind_mph(self, region_id: int, t_seconds: float) -> float:
        """Instantaneous wind speed, with a calm-weather floor of 5 mph."""
        peak = self.partition.profile(region_id).wind_mph
        return max(5.0, peak * self.timeline.intensity(t_seconds))

    def accumulated_precipitation_mm(self, region_id: int, t_seconds: float) -> float:
        """Rain accumulated since scenario start (closed form)."""
        peak = self.partition.profile(region_id).precipitation_mm
        return peak * self.timeline.intensity_integral_h(0.0, t_seconds)

    def factor_precipitation_mm_per_h(self, region_id: int, t_seconds: float) -> float:
        """The precipitation component of the disaster-related factor vector.

        The paper feeds the SVM "the precipitation" at a person's position;
        what NWS flood products actually report is basin accumulation with
        its hydrological response — water on the ground, not rain in the
        air.  The factor is therefore the region's storm rainfall scaled by
        the flood response, which stays informative (and temporally aligned
        with the danger) after the rain stops — precisely when most rescue
        requests appear (Sep 16).
        """
        peak = self.partition.profile(region_id).precipitation_mm
        return peak * self._flood_level(t_seconds)

    def factor_wind_mph(self, region_id: int, t_seconds: float) -> float:
        """The wind component of the factor vector: instantaneous storm wind
        with a wake term (gusts persist over saturated, flooded ground),
        floored at calm-weather 5 mph."""
        peak = self.partition.profile(region_id).wind_mph
        strength = max(
            self.timeline.intensity(t_seconds), 0.5 * self._flood_level(t_seconds)
        )
        return max(5.0, peak * strength)

    def severity(self, region_id: int, t_seconds: float) -> float:
        """Disaster severity of a region at time ``t``, in [0, 1].

        The product of the region's structural susceptibility (its profile
        severity, which encodes how P/W/A compare across regions) and the
        storm's lagged flood level.  This is the ``severity_fn`` consumed by
        :class:`repro.geo.flood.FloodModel` and by the mobility trip model.
        """
        profile = self.partition.profile(region_id)
        return profile.severity * self._flood_level(t_seconds)

    def severity_fn(self):
        """``(region_id, t_seconds) -> severity`` closure for the flood model."""
        return self.severity

    # -- (region, time) tables --------------------------------------------------
    #
    # Each table equals its scalar method above bit-for-bit: row i is region
    # ``partition.region_ids[i]``, column j is ``times_s[j]``.  The storm
    # timeline is evaluated once per time and the region profile once per
    # region; the product is the same IEEE multiply the scalar form does.

    def _profile_column(self, attr: str) -> np.ndarray:
        part = self.partition
        return np.array([[getattr(part.profile(r), attr)] for r in part.region_ids])

    def _timeline_row(self, fn, times_s) -> np.ndarray:
        return np.array([fn(float(t)) for t in times_s])

    def factor_precipitation_table(self, times_s) -> np.ndarray:
        """:meth:`factor_precipitation_mm_per_h` over regions × ``times_s``."""
        flood = self._timeline_row(self.timeline.flood_level, times_s)
        return self._profile_column("precipitation_mm") * flood

    def factor_wind_table(self, times_s) -> np.ndarray:
        """:meth:`factor_wind_mph` over regions × ``times_s``."""
        strength = np.maximum(
            self._timeline_row(self.timeline.intensity, times_s),
            0.5 * self._timeline_row(self.timeline.flood_level, times_s),
        )
        return np.maximum(5.0, self._profile_column("wind_mph") * strength)

    def severity_table(self, times_s) -> np.ndarray:
        """:meth:`severity` over regions × ``times_s``."""
        flood = self._timeline_row(self.timeline.flood_level, times_s)
        return self._profile_column("severity") * flood
