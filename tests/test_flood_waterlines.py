"""Flood waterlines against ``np.quantile``, the reference they replace.

:class:`~repro.geo.flood.FloodModel` keeps each region's altitude samples
sorted and interpolates them with numpy's ``linear`` quantile method in
one private helper, ``_lerp_sorted``, instead of calling ``np.quantile``
(which copies and partitions the samples on every call).  The reference
here is the code the helper replaced, kept verbatim: clip the severity,
fall below the lowest sample at severity 0, else ``np.quantile`` at
``max_flood_fraction * severity``.  Every comparison is bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.flood import FloodModel, _lerp_sorted
from repro.geo.regions import CHARLOTTE_REGION_PROFILES
from repro.weather.storms import SECONDS_PER_HOUR

#: A dense sweep of quantile fractions, both ends included.
SWEEP = np.linspace(0.0, 1.0, 20_001)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def reference_waterline(flood: FloodModel, region_id: int, severity: float) -> float:
    """The waterline as computed before the helper, with ``np.quantile``."""
    severity = float(np.clip(severity, 0.0, 1.0))
    alts = flood._region_alt_samples[region_id]
    if severity <= 0.0:
        return float(alts[0]) - 1.0
    return float(np.quantile(alts, flood.max_flood_fraction * severity))


def severity_as_time(scenario, max_flood_fraction: float = 0.30) -> FloodModel:
    """A flood model over ``scenario``'s terrain whose severity at ``t`` is ``t``."""
    return FloodModel(
        scenario.terrain, lambda rid, t: t, max_flood_fraction=max_flood_fraction
    )


@pytest.fixture(scope="module", params=["florence", "michael"])
def scenario(request, florence_scenario, michael_scenario):
    return florence_scenario if request.param == "florence" else michael_scenario


def region_helper_args(flood: FloodModel, region_id: int):
    slot = flood.partition.region_ids.index(region_id)
    return flood._alt_rows, slot, flood._alt_last[slot]


class TestHelper:
    def test_dense_sweep_every_region(self, scenario):
        flood = scenario.flood
        for rid in scenario.partition.region_ids:
            alts = flood._region_alt_samples[rid]
            got = _lerp_sorted(*region_helper_args(flood, rid), SWEEP)
            assert bits(got) == bits(np.quantile(alts, SWEEP)), rid
            # The scalar form: a Python float, as waterline_m passes it.
            for q in SWEEP[::20]:
                one = _lerp_sorted(*region_helper_args(flood, rid), float(q))
                assert bits(one) == bits(np.quantile(alts, float(q))), (rid, q)

    def test_knots_and_midpoints(self, scenario):
        flood = scenario.flood
        halves = 0
        for rid in scenario.partition.region_ids:
            alts = flood._region_alt_samples[rid]
            n = alts.size
            k = np.arange(n, dtype=float)
            knots = k / (n - 1)
            mids = (k[:-1] + 0.5) / (n - 1)
            halves += int(((n - 1) * mids % 1.0 == 0.5).sum())
            for q in (knots, mids):
                got = _lerp_sorted(*region_helper_args(flood, rid), q)
                assert bits(got) == bits(np.quantile(alts, q)), rid
        # The lerp switches form at gamma == 0.5; some midpoints hit it exactly.
        assert halves > 0

    def test_gamma_exactly_half_on_short_rows(self):
        # n - 1 = 4: the fractions k/8 put gamma at exactly 0 or 0.5.
        alts = np.array([-3.25, 0.1, 0.7, 12.0, 250.5])
        rows = np.concatenate([alts, alts[-1:]])[None, :]
        q = np.arange(9) / 8.0
        got = _lerp_sorted(rows, 0, np.array(4), q)
        assert bits(got) == bits(np.quantile(alts, q))

    def test_single_sample_row(self):
        rows = np.array([[7.5, 7.5]])
        q = np.array([0.0, 0.3, 1.0])
        assert bits(_lerp_sorted(rows, 0, np.array(0), q)) == bits(
            np.quantile(np.array([7.5]), q)
        )

    def test_nan_fraction_raises_like_quantile(self, florence_scenario):
        flood = florence_scenario.flood
        args = region_helper_args(flood, 3)
        with pytest.raises(ValueError):
            np.quantile(flood._region_alt_samples[3], np.nan)
        with pytest.raises(ValueError):
            _lerp_sorted(*args, np.nan)
        with pytest.raises(ValueError):
            _lerp_sorted(*args, np.array([0.1, np.nan]))


class TestWaterlines:
    #: Severities past both ends of [0, 1], the ends, and a dense interior.
    SEVERITIES = np.concatenate(
        [[-1.0, -0.0, 0.0, 1e-12, 1.0, 1.0 + 1e-12, 1.5, 7.0], np.linspace(0.0, 1.0, 1_001)]
    )

    @pytest.mark.parametrize("max_frac", [0.30, 1.0])
    def test_waterline_m_over_severities(self, scenario, max_frac):
        flood = severity_as_time(scenario, max_frac)
        for rid in scenario.partition.region_ids:
            for s in self.SEVERITIES:
                s = float(s)
                assert bits(flood.waterline_m(rid, s)) == bits(
                    reference_waterline(flood, rid, s)
                ), (rid, s)

    @pytest.mark.parametrize("max_frac", [0.30, 1.0])
    def test_waterlines_over_severities(self, scenario, max_frac):
        flood = severity_as_time(scenario, max_frac)
        rids = scenario.partition.region_ids
        for s in self.SEVERITIES:
            s = float(s)
            ref = [reference_waterline(flood, r, s) for r in rids]
            assert bits(flood.waterlines(s)) == bits(ref), s

    @pytest.mark.parametrize("max_frac", [0.30, 1.0])
    def test_waterline_table_over_severities(self, scenario, max_frac):
        flood = severity_as_time(scenario, max_frac)
        rids = scenario.partition.region_ids
        # Each region sees the sweep in a different order.
        table = np.array([np.roll(self.SEVERITIES, 37 * i) for i in range(len(rids))])
        ref = [[reference_waterline(flood, r, s) for s in row] for r, row in zip(rids, table)]
        assert bits(flood.waterline_table(table)) == bits(ref)

    def test_full_flood_fraction_at_severity_one_is_the_top_sample(self, scenario):
        flood = severity_as_time(scenario, 1.0)
        for rid in scenario.partition.region_ids:
            top = flood._region_alt_samples[rid][-1]
            assert bits(flood.waterline_m(rid, 1.0)) == bits(top)
            assert bits(flood.waterline_m(rid, 3.0)) == bits(top)

    def test_dry_below_lowest_sample(self, scenario):
        flood = severity_as_time(scenario)
        rids = scenario.partition.region_ids
        lowest = [flood._region_alt_samples[r][0] - 1.0 for r in rids]
        for s in (-2.0, -0.0, 0.0):
            assert bits(flood.waterlines(s)) == bits(lowest)
            assert bits([flood.waterline_m(r, s) for r in rids]) == bits(lowest)

    def test_storm_timeline(self, scenario):
        """The scenario's own flood model over its whole timeline, hourly."""
        flood = scenario.flood
        rids = scenario.partition.region_ids
        times = np.arange(int(scenario.timeline.total_days * 24) + 1) * SECONDS_PER_HOUR
        severity = np.array([[flood.severity_fn(r, float(t)) for t in times] for r in rids])
        ref = [[reference_waterline(flood, r, s) for s in row] for r, row in zip(rids, severity)]
        assert bits(flood.waterline_table(severity)) == bits(ref)
        for j in range(0, times.size, 7):
            t = float(times[j])
            col = [ref[i][j] for i in range(len(rids))]
            assert bits(flood.waterlines(t)) == bits(col)
            assert bits([flood.waterline_m(r, t) for r in rids]) == bits(col)

    def test_nan_severity_raises(self, florence_scenario):
        flood = severity_as_time(florence_scenario)
        with pytest.raises(ValueError):
            reference_waterline(flood, 3, float("nan"))
        with pytest.raises(ValueError):
            flood.waterline_m(3, float("nan"))
        with pytest.raises(ValueError):
            flood.waterlines(float("nan"))
        table = np.full((len(florence_scenario.partition.region_ids), 3), 0.5)
        table[2, 1] = np.nan
        with pytest.raises(ValueError):
            flood.waterline_table(table)


def test_profile_severity_is_the_three_clip_formula():
    for profile in CHARLOTTE_REGION_PROFILES:
        p = np.clip((profile.precipitation_mm - 110.0) / 60.0, 0.0, 1.0)
        w = np.clip((profile.wind_mph - 50.0) / 35.0, 0.0, 1.0)
        a = np.clip((250.0 - profile.altitude_m) / 80.0, 0.0, 1.0)
        expected = float(0.5 * p + 0.3 * w + 0.2 * a)
        assert bits(profile.severity) == bits(expected), profile.name
        assert isinstance(profile.severity, float)
        assert profile.__dict__["severity"] is profile.severity  # computed once
