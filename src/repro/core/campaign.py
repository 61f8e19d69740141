"""The chaos campaign driver shared by every ``repro chaos`` harness.

A campaign judges one seed at a time and folds the verdicts into one
report: the harness's header fields, then ``ok``, every violation (each
message names its seed) and one ``runs`` entry per seed.  The service,
worker and training harnesses supply only the per-seed judge and their
header fields.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable, Sequence
from typing import Any

from repro.core.artifacts import atomic_write_json

Progress = Callable[[str], None]


def run_campaign(
    seeds: Sequence[int],
    judge: Callable[[int, Progress], Any],
    header: dict[str, Any] | Callable[[list[Any]], dict[str, Any]],
    out_path: str | pathlib.Path | None = None,
    progress: Progress | None = None,
) -> dict[str, Any]:
    """Judge every seed; return (and optionally write atomically) the report.

    ``judge(seed, progress)`` returns a verdict with ``ok``,
    ``violations`` and ``as_json()``; ``header`` is a dict, or a
    function of the verdicts when a field sums over them.
    """
    say = progress or (lambda _msg: None)
    verdicts = [judge(seed, say) for seed in seeds]
    report = {
        **(header(verdicts) if callable(header) else header),
        "ok": all(v.ok for v in verdicts),
        "violations": [m for v in verdicts for m in v.violations],
        "runs": [v.as_json() for v in verdicts],
    }
    if out_path is not None:
        atomic_write_json(out_path, report)
    return report
