"""reprolint: the static gate itself, and the linter's self-tests.

``test_source_tree_is_clean`` is the tier-1 gate: the full installed
``repro`` tree must produce zero findings.  The remaining tests pin the
linter's behaviour on fixture files with known violations, the pragma
escape-hatch semantics, the JSON output contract and the CLI exit codes —
so the gate can only pass because the code is clean, never because a rule
silently stopped firing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_RULES,
    KNOWN_PRAGMAS,
    RULE_CATALOGUE,
    default_target,
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.analysis.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: fixture file -> exact expected rule-id multiset.
EXPECTED = {
    "det_import_random.py": ["REP101", "REP101"],
    "det_np_global.py": ["REP102", "REP102", "REP102", "REP103"],
    "det_wallclock.py": ["REP104", "REP104", "REP104"],
    "det_wallclock_unscoped.py": [],
    "dur_unsafe_write.py": ["REP201"] * 5,
    "exc_hygiene.py": ["REP301", "REP302", "REP302"],
    "ord_set_iteration.py": ["REP401", "REP401", "REP401"],
    "rollout_worker_ident.py": ["REP403"] * 3,
    "rollout_merge.py": ["REP402"] * 4,
    "svc_swallow.py": ["REP303", "REP303"],
    "pragma_suppression.py": ["REP102"],
    "pragma_standalone.py": [],
    "pragma_unused.py": ["REP001"],
    "pragma_unknown.py": ["REP002"],
    "clean_module.py": [],
}


# -- the gate ------------------------------------------------------------------


def test_source_tree_is_clean():
    """Tier-1: the whole repro package satisfies every invariant rule."""
    report = lint_paths([default_target()])
    assert report.files_checked > 50
    assert report.clean, "\n".join(f.format_text() for f in report.findings)


def test_fixture_expectations_cover_every_fixture():
    on_disk = {p.name for p in FIXTURES.glob("*.py")}
    assert on_disk == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_findings(name):
    report = lint_paths([FIXTURES / name])
    got = sorted(f.rule for f in report.findings)
    assert got == sorted(EXPECTED[name]), "\n".join(
        f.format_text() for f in report.findings
    )


def test_fixture_tree_fails_as_a_whole():
    report = lint_paths([FIXTURES])
    expected_total = sum(len(v) for v in EXPECTED.values())
    assert len(report.findings) == expected_total
    assert not report.clean


# -- pragma semantics ----------------------------------------------------------


def test_pragma_suppresses_exactly_one_finding():
    source = (FIXTURES / "pragma_suppression.py").read_text()
    findings = lint_source(source, module="repro.fixture")
    assert [f.rule for f in findings] == ["REP102"]
    # Both calls violate without the pragma.
    bare = source.replace("# repro: allow-nondeterminism -- fixture: suppressed", "")
    findings = lint_source(bare, module="repro.fixture")
    assert [f.rule for f in findings] == ["REP102", "REP102"]


def test_standalone_pragma_attaches_to_next_code_line():
    findings = lint_source(
        (FIXTURES / "pragma_standalone.py").read_text(), module="repro.fixture"
    )
    assert findings == []


def test_unused_pragma_flagged_only_in_strict_mode():
    source = (FIXTURES / "pragma_unused.py").read_text()
    strict = lint_source(source, module="repro.fixture")
    assert [f.rule for f in strict] == ["REP001"]
    lax = lint_source(source, module="repro.fixture", strict_pragmas=False)
    assert lax == []


def test_unknown_pragma_always_flagged():
    source = (FIXTURES / "pragma_unknown.py").read_text()
    for strict in (True, False):
        findings = lint_source(
            source, module="repro.fixture", strict_pragmas=strict
        )
        assert [f.rule for f in findings] == ["REP002"]


def test_prose_mentioning_pragmas_is_not_a_pragma():
    source = "#: the `# repro: allow-broad-except` pragma is documented here\nx = 1\n"
    assert lint_source(source, module="repro.fixture") == []


# -- rule scoping --------------------------------------------------------------


def test_wallclock_scoped_to_deterministic_packages():
    source = "import time\nt = time.time()\n"
    assert lint_source(source, module="repro.sim.engine") != []
    assert lint_source(source, module="repro.core.runner") == []
    assert lint_source(source, module="repro.eval.harness") == []


def test_artifact_layer_exempt_from_write_rule():
    source = "fh = open('x', 'w')\n"
    assert lint_source(source, module="repro.core.artifacts") == []
    assert [f.rule for f in lint_source(source, module="repro.core.persistence")] == [
        "REP201"
    ]


def test_module_directive_overrides_path_stem():
    source = "# reprolint: module=repro.sim.engine\nimport time\nt = time.monotonic()\n"
    findings = lint_source(source, path="somewhere/loose_file.py")
    assert [f.rule for f in findings] == ["REP104"]


def test_module_name_for_walks_package_chain():
    target = default_target()
    assert module_name_for(target / "sim" / "engine.py") == "repro.sim.engine"
    assert module_name_for(target / "__init__.py") == "repro"


def test_reraise_handlers_are_sanctioned():
    source = (
        "try:\n    x = 1\nexcept Exception:\n    raise\n"
    )
    assert lint_source(source, module="repro.anything") == []


def test_service_swallow_scoped_to_service_package():
    source = "try:\n    x = 1\nexcept ValueError:\n    y = 2\n"
    assert [f.rule for f in lint_source(source, module="repro.service.guards")] == [
        "REP303"
    ]
    assert lint_source(source, module="repro.sim.engine") == []


def test_worker_identity_scoped_to_rollouts_package():
    source = "import os\npid = os.getpid()\n"
    assert [f.rule for f in lint_source(source, module="repro.rollouts.workers")] == [
        "REP403"
    ]
    assert lint_source(source, module="repro.service.loop") == []


def test_worker_identity_flags_wallclock_in_rollouts():
    source = "import time\nt = time.monotonic()\n"
    assert [f.rule for f in lint_source(source, module="repro.rollouts.executor")] == [
        "REP403"
    ]


def test_worker_identity_spawn_key_detected_through_attributes():
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng([seed, self.worker_id, episode_id])\n"
    )
    assert [f.rule for f in lint_source(source, module="repro.rollouts.spec")] == [
        "REP403"
    ]
    clean = (
        "import numpy as np\n"
        "rng = np.random.default_rng([seed, 115, episode_id])\n"
    )
    assert lint_source(clean, module="repro.rollouts.spec") == []


def test_service_swallow_satisfied_by_recorder_call():
    source = (
        "try:\n    x = 1\nexcept ValueError:\n"
        "    guard.quarantine(record, 'reason', 'detail')\n"
    )
    assert lint_source(source, module="repro.service.ingest") == []


# -- output contracts ----------------------------------------------------------


def test_json_format_contract(capsys):
    code = lint_main([str(FIXTURES / "det_np_global.py"), "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["files_checked"] == 1
    assert document["total"] == 4
    assert document["counts"] == {"REP102": 3, "REP103": 1}
    finding = document["findings"][0]
    assert set(finding) == {"path", "line", "col", "rule", "message", "pragma"}


def test_text_format_is_file_line_col(capsys):
    code = lint_main([str(FIXTURES / "exc_hygiene.py")])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert all(":" in line and " REP" in line for line in out)


def test_cli_exit_codes(capsys):
    assert lint_main([str(FIXTURES / "clean_module.py")]) == 0
    assert lint_main([str(FIXTURES)]) == 1
    assert lint_main([str(FIXTURES / "does_not_exist.py")]) == 2
    assert lint_main(["--select", "REP999"]) == 2
    capsys.readouterr()


def test_cli_select_narrows_rules(capsys):
    code = lint_main([str(FIXTURES), "--select", "REP301"])
    assert code == 1
    out = capsys.readouterr().out
    assert "REP301" in out
    assert "REP102" not in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for doc in RULE_CATALOGUE:
        assert doc.rule_id in out


def test_repro_cli_has_lint_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(FIXTURES / "clean_module.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_catalogue_pragmas_are_known():
    for doc in RULE_CATALOGUE:
        if doc.pragma:
            assert doc.pragma in KNOWN_PRAGMAS
    for rule in DEFAULT_RULES:
        assert rule.pragma in KNOWN_PRAGMAS


# -- external tools (gated: the container may not ship them) -------------------


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_core_and_ml():
    proc = subprocess.run(
        [
            "mypy",
            "--strict",
            str(REPO_ROOT / "src" / "repro" / "core"),
            str(REPO_ROOT / "src" / "repro" / "ml"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", str(REPO_ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
