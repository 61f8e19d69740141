"""Unified service-report tests: building, extracting from a chaos
campaign, rendering, and atomic persistence."""

from __future__ import annotations

import json

import pytest

from repro.service.report import (
    SERVICE_REPORT_FORMAT,
    build_service_report,
    extract_service_report,
    format_service_report,
    write_service_report,
)

INGEST = {
    "accepted": 900,
    "shed": 40,
    "rejected_total": 60,
    "rejected_by_reason": {"out_of_range_position": 58, "non_finite_value": 2},
}

BREAKERS = {
    "predictor": {"state": "open", "failures": 9, "trips": 2},
    "policy": {"state": "closed", "failures": 0, "trips": 0},
}


def chaos_campaign():
    return {
        "profile": "severe",
        "runs": [
            {
                "chaos": {
                    "ingest": INGEST,
                    "predictor_breaker": BREAKERS["predictor"],
                    "policy_breaker": BREAKERS["policy"],
                    "service_incident_kinds": {"predictor_breaker_open": 3},
                }
            }
        ],
    }


class TestBuild:
    def test_sections_and_format_fields(self):
        report = build_service_report(
            "unit", INGEST, breakers=BREAKERS, incident_kinds={"b": 1, "a": 2}
        )
        assert report["format"] == SERVICE_REPORT_FORMAT
        assert report["source"] == "unit"
        assert report["incident_kinds"] == {"a": 2, "b": 1}
        assert report["ingest"]["rejected_by_reason"]["out_of_range_position"] == 58


class TestExtract:
    def test_from_chaos_campaign(self):
        report = extract_service_report(chaos_campaign())
        assert report["source"] == "chaos:severe"
        assert report["breakers"]["predictor"]["state"] == "open"
        assert report["incident_kinds"] == {"predictor_breaker_open": 3}

    def test_chaos_run_falls_back_to_clean_summary(self):
        campaign = chaos_campaign()
        run = campaign["runs"][0]
        run["clean"] = run.pop("chaos")
        report = extract_service_report(campaign)
        assert report["ingest"]["accepted"] == 900

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            extract_service_report({"format": "something-else"})
        with pytest.raises(ValueError):
            extract_service_report({"runs": []})


class TestRenderAndPersist:
    def test_text_rendering_covers_every_section(self):
        report = extract_service_report(chaos_campaign())
        text = format_service_report(report)
        assert "breaker predictor: state=open failures=9 trips=2" in text
        assert "ingest: accepted=900 shed=40 rejected=60" in text
        assert "quarantine: non_finite_value=2, out_of_range_position=58" in text
        assert "incidents: predictor_breaker_open=3" in text

    def test_clean_ingest_renders_a_clean_quarantine_line(self):
        text = format_service_report(build_service_report("unit", {"accepted": 5}))
        assert "quarantine: clean" in text

    def test_write_service_report_is_loadable(self, tmp_path):
        report = build_service_report("unit", INGEST, breakers=BREAKERS)
        out = tmp_path / "health.json"
        write_service_report(report, str(out))
        assert json.loads(out.read_text()) == report
