"""Whole-program reprolint: the project pass, its rules, and its gate.

``test_source_tree_is_project_clean`` is the tier-1 gate for the
REP5xx/6xx/7xx families: ``repro lint --project`` over ``src/repro``
must be clean under the repo's own ``[tool.reprolint]`` configuration.
The fixture mini-projects under ``tests/fixtures/lint_project/`` each
pin one rule family (violating + pragma-suppressed + clean shapes), so
the gate can only pass because the architecture is clean, never because
a rule silently stopped firing.
"""

from __future__ import annotations

import ast
import concurrent.futures
import json
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_PROJECT_RULES,
    PROJECT_RULE_INDEX,
    KNOWN_PRAGMAS,
    lint_paths,
    lint_source,
    load_project_config,
    module_name_for,
    report_as_sarif,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.pragmas import PROJECT_PRAGMAS, parse_pragmas
from repro.analysis.project import (
    FileContext,
    ProjectConfig,
    ProjectContext,
    _parse_toml_subset,
    _reprolint_tables,
    find_project_config,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
CASES = Path(__file__).parent / "fixtures" / "lint_project"

#: case directory -> exact expected project-rule multiset.
EXPECTED = {
    "layering": ["REP501", "REP503", "REP504"],
    "cycle": ["REP502"],
    "streams": ["REP601", "REP601", "REP601", "REP602", "REP603"],
    "forksafety": ["REP701", "REP701", "REP702", "REP703"],
    "clean": [],
}


def lint_case(name: str, **kwargs):
    case = CASES / name
    config = load_project_config(case / "pyproject.toml")
    return lint_paths(
        [case],
        rules=(),
        project_rules=DEFAULT_PROJECT_RULES,
        project_config=config,
        **kwargs,
    )


def project_over_src() -> ProjectContext:
    config = load_project_config(REPO_ROOT / "pyproject.toml")
    contexts = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        contexts.append(
            FileContext(
                path=str(path),
                module=module_name_for(path),
                source=source,
                tree=ast.parse(source),
                pragmas=parse_pragmas(source),
            )
        )
    return ProjectContext(contexts, config)


# -- the gate ------------------------------------------------------------------


def test_source_tree_is_project_clean():
    """Tier-1: the whole tree satisfies the architecture, stream-key and
    fork-safety invariants under the repo's own configuration."""
    config = load_project_config(REPO_ROOT / "pyproject.toml")
    report = lint_paths(
        [SRC],
        project_rules=DEFAULT_PROJECT_RULES,
        project_config=config,
    )
    assert report.project_pass
    assert report.files_checked > 100
    assert report.clean, "\n".join(f.format_text() for f in report.findings)


def test_every_spawn_key_resolves_to_a_registered_tag():
    """Acceptance: every ``default_rng`` spawn key in faults/service/
    rollouts resolves statically and lands in the registry, collision-free."""
    project = project_over_src()
    registry = project.registry_values()
    assert registry is not None and len(registry) >= 18
    audited = 0
    owners: dict[int, set[str]] = {}
    for site in project.spawn_sites:
        package = project.package_of(site.module)
        if package not in ("faults", "service", "rollouts"):
            continue
        audited += 1
        assert site.tags is not None, f"{site.path}:{site.line} unresolved"
        for value in site.tags:
            assert value in registry, f"{site.path}:{site.line} tag {value}"
            owners.setdefault(value, set()).add(package)
    assert audited == 7
    collisions = {v: pkgs for v, pkgs in owners.items() if len(pkgs) > 1}
    assert not collisions


# -- fixture mini-projects -----------------------------------------------------


def test_case_expectations_cover_every_case():
    on_disk = {p.name for p in CASES.iterdir() if p.is_dir()}
    assert on_disk == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_case_findings(name):
    report = lint_case(name)
    got = sorted(f.rule for f in report.findings)
    assert got == sorted(EXPECTED[name]), "\n".join(
        f.format_text() for f in report.findings
    )


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suppressed_twins_consume_their_pragmas(name):
    """Strict-pragma audit stays quiet: every fixture pragma suppressed
    something (no REP001) and every token is known (no REP002)."""
    report = lint_case(name)
    audit = [f.rule for f in report.findings if f.rule in ("REP001", "REP002")]
    assert audit == []


def test_cycle_messages_name_the_full_chain():
    report = lint_case("cycle")
    (finding,) = report.findings
    assert finding.message == (
        "import cycle: proj.a.alpha -> proj.b.beta -> proj.a.alpha"
    )


def test_forbidden_reach_reports_the_witness_chain():
    report = lint_case("layering")
    reach = next(f for f in report.findings if f.rule == "REP504")
    assert "proj.ui.views -> proj.svc.api -> proj.db.models" in reach.message


def test_fork_findings_carry_an_import_chain_witness():
    report = lint_case("forksafety")
    mutable = [f for f in report.findings if f.rule == "REP701"]
    assert mutable and all(
        "proj.workers.entry -> proj.workers.state" in f.message for f in mutable
    )


# -- engine semantics ----------------------------------------------------------


def test_project_pass_and_per_file_pass_agree_on_file_scoped_rules():
    """File-scoped findings are identical whether or not the project
    pass runs alongside them."""
    fixtures = Path(__file__).parent / "fixtures" / "lint"
    solo = lint_paths([fixtures])
    both = lint_paths(
        [fixtures],
        project_rules=DEFAULT_PROJECT_RULES,
        project_config=ProjectConfig(),
    )
    file_scoped = lambda fs: [  # noqa: E731
        f for f in fs if f.rule not in PROJECT_RULE_INDEX
    ]
    assert file_scoped(both.findings) == file_scoped(solo.findings)


def test_parallel_file_pass_matches_serial():
    fixtures = Path(__file__).parent / "fixtures" / "lint"
    serial = lint_paths([fixtures], jobs=1)
    pooled = lint_paths([fixtures], jobs=4)
    assert pooled.findings == serial.findings
    project_serial = lint_case("streams", jobs=1)
    project_pooled = lint_case("streams", jobs=3)
    assert project_pooled.findings == project_serial.findings


def test_pool_failure_degrades_to_serial(monkeypatch):
    class Broken:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this sandbox")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Broken)
    fixtures = Path(__file__).parent / "fixtures" / "lint"
    report = lint_paths([fixtures], jobs=4)
    assert report.findings == lint_paths([fixtures], jobs=1).findings


def test_project_pragmas_audited_only_when_project_pass_runs(tmp_path):
    source = (
        "# reprolint: module=proj.solo.mod\n"
        "x = 1  # repro: allow-layering -- suppresses nothing\n"
    )
    # Per-file run: the rules this pragma feeds never executed; exempt.
    assert lint_source(source, module="proj.solo.mod") == []
    # Project run: the pragma is judged, and it is stale.
    target = tmp_path / "solo.py"
    target.write_text(source)
    report = lint_paths(
        [target],
        project_rules=DEFAULT_PROJECT_RULES,
        project_config=ProjectConfig(root_package="proj"),
    )
    assert [f.rule for f in report.findings] == ["REP001"]


def test_project_rule_pragmas_are_known():
    for rule in DEFAULT_PROJECT_RULES:
        assert rule.pragma in PROJECT_PRAGMAS
        assert rule.pragma in KNOWN_PRAGMAS


def test_module_directive_in_docstring_does_not_bind():
    source = (
        '"""Docs quoting a directive::\n\n'
        "    # reprolint: module=repro.sim.engine\n"
        '"""\n'
        "import time\n"
        "t = time.time()\n"
    )
    # Bound to the path stem, the wallclock rule (scoped to repro.sim.*)
    # must not fire; a directive in prose must never re-point a module.
    assert lint_source(source, path="loose.py") == []


# -- configuration loading -----------------------------------------------------


def test_find_project_config_walks_up_to_the_case(tmp_path):
    located = find_project_config([CASES / "layering" / "bad.py"])
    assert located == CASES / "layering" / "pyproject.toml"
    assert find_project_config([tmp_path]) is None


def test_repo_config_declares_the_streams_registry():
    config = load_project_config(REPO_ROOT / "pyproject.toml")
    assert config.streams_module == "repro.core.streams"
    assert "repro.core.streams" in config.shared_modules
    assert config.layers and "sim" in config.layers
    assert ("sim", "service") in config.forbidden_reach


def test_toml_fallback_parser_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    for pyproject in [REPO_ROOT / "pyproject.toml"] + sorted(
        CASES.glob("*/pyproject.toml")
    ):
        text = pyproject.read_text()
        via_tomllib = _reprolint_tables(pyproject)
        assert via_tomllib, pyproject
        subset = _parse_toml_subset(text)
        # tomllib returns {} for sections the fallback materializes empty.
        assert {k: v for k, v in subset.items() if v or k in via_tomllib} == {
            k: v for k, v in via_tomllib.items() if v or k in subset
        }


# -- output contracts ----------------------------------------------------------


def test_sarif_document_contract():
    report = lint_case("streams")
    document = report_as_sarif(report)
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"REP501", "REP601", "REP701"} <= set(rule_ids)
    assert len(run["results"]) == len(report.findings)
    for result, finding in zip(run["results"], report.findings):
        assert result["ruleId"] == finding.rule
        assert rule_ids[result["ruleIndex"]] == finding.rule
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["region"]["startLine"] == finding.line


def test_sarif_round_trips_through_json(capsys):
    code = lint_main(
        ["--project", "--format", "sarif", str(CASES / "forksafety")]
    )
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    got = sorted(r["ruleId"] for r in document["runs"][0]["results"])
    assert got == sorted(EXPECTED["forksafety"])


# -- CLI -----------------------------------------------------------------------


def test_cli_project_exit_codes(capsys, tmp_path):
    assert lint_main(["--project", str(CASES / "clean")]) == 0
    assert lint_main(["--project", str(CASES / "layering")]) == 1
    # No [tool.reprolint] anywhere above the paths: usage error.
    bare = tmp_path / "pyproject.toml"
    bare.write_text("[project]\nname = 'bare'\n")
    (tmp_path / "mod.py").write_text("x = 1\n")
    assert lint_main(["--project", str(tmp_path)]) == 2
    assert (
        lint_main(["--project", "--config", str(bare), str(tmp_path)]) == 2
    )
    capsys.readouterr()


def test_cli_select_narrows_to_project_rules(capsys):
    code = lint_main(
        ["--project", "--select", "REP501", str(CASES / "layering")]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "REP501" in out
    assert "REP503" not in out and "REP504" not in out


def test_cli_list_rules_includes_project_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in DEFAULT_PROJECT_RULES:
        assert rule.rule_id in out
    assert "whole-program" in out


def test_cli_verbose_reports_pass_composition(capsys):
    code = lint_main(["--project", "--verbose", str(CASES / "clean")])
    assert code == 0
    err = capsys.readouterr().err
    assert "file+project pass" in err and "wall" in err


# -- the stream registry itself ------------------------------------------------


def test_stream_registry_values_are_frozen():
    """The tag values are part of the bit-identity contract: changing
    any of them reshuffles every golden trace."""
    from repro.core import streams

    frozen = {
        "STREAM_FAULT_GPS": 101,
        "STREAM_FAULT_COMM": 102,
        "STREAM_FAULT_BREAKDOWN": 103,
        "STREAM_FAULT_CLOSURE": 104,
        "STREAM_FAULT_DISPATCHER": 105,
        "STREAM_FAULT_PREDICTOR": 106,
        "STREAM_FAULT_POLICY_LATENCY": 107,
        "STREAM_FAULT_CORRUPT_RECORD": 108,
        "STREAM_WORKER_CRASH": 112,
        "STREAM_WORKER_STALL": 113,
        "STREAM_WORKER_CORRUPT": 114,
        "STREAM_ROLLOUT_EPISODE": 115,
        "STREAM_ROLLOUT_BACKOFF": 116,
        "STREAM_TRAIN_NAN_GRAD": 117,
        "STREAM_TRAIN_CORRUPT_REPLAY": 118,
        "STREAM_TRAIN_REWARD_SPIKE": 119,
        "STREAM_TRAIN_CKPT_BITROT": 120,
        "STREAM_TRAIN_REPERTURB": 121,
        "STREAM_MOBILITY_DIRTY": 999_983,
    }
    for name, value in frozen.items():
        assert getattr(streams, name) == value, name
        assert streams.REGISTRY[value].name
    assert len(streams.REGISTRY) == len(frozen)
    # Retired tags (shard faults, the ingest load generator) stay
    # unregistered: old values are never recycled.
    for retired in (109, 110, 111, 201, 202):
        assert retired not in streams.REGISTRY, retired


def test_stream_registry_rejects_collisions():
    from repro.core.streams import REGISTRY, _register

    taken = next(iter(REGISTRY))
    with pytest.raises(ValueError, match="collision"):
        _register(taken, "fresh-name", "tests")
    with pytest.raises(ValueError, match="registered twice"):
        _register(2_000_000, REGISTRY[taken].name, "tests")
    with pytest.raises(ValueError, match="non-negative"):
        _register(-1, "negative", "tests")
    assert 2_000_000 not in REGISTRY


def test_stream_registry_lookup_helpers():
    from repro.core import streams

    info = streams.tag_info(streams.STREAM_ROLLOUT_EPISODE)
    assert info.subsystem == "rollouts"
    with pytest.raises(KeyError):
        streams.tag_info(12_345)
    assert streams.STREAM_ROLLOUT_EPISODE in streams.registered_values()
    table = streams.registry_table()
    assert any(row.value == streams.STREAM_WORKER_CRASH for row in table)
