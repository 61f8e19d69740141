# reprolint: module=repro.rollouts.fixture_rollout_merge
# reprolint-fixture: REP402 x4 — hash-order folds in rollout merge/reduce code.


def merge_payload_maps(maps: list[dict[int, float]]) -> dict[int, float]:
    merged: dict[int, float] = {}
    for payload in maps:
        for episode, value in payload.items():  # expect REP402
            merged[episode] = value
    return merged


def merge_incident_rows(rows: dict[int, dict[str, int]]) -> dict[int, dict[str, int]]:
    return {worker: dict(kinds) for worker, kinds in rows.items()}  # expect REP402


def reduce_incident_kinds(counts: dict[str, int]) -> list[str]:
    return [kind for kind in counts.keys()]  # expect REP402


def merge_episode_ids(ids: list[int]) -> list[int]:
    done = set(ids)
    out = []
    for episode in done:  # expect REP402
        out.append(episode)
    return out


def merge_suppressed(counts: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for key, value in counts.items():  # repro: allow-unordered-merge -- fixture
        out[key] = value
    return out


def merge_sorted(counts: dict[str, int]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for key, value in sorted(counts.items()):  # fine: sorted fold
        merged[key] = value
    return merged


def merge_totals(counts: dict[str, int]) -> int:
    return sum(counts.values())  # fine: sum is order-insensitive


def assign_episode(owners: dict[int, int], episode: int) -> int:
    for owner in owners.values():  # fine: not a merge/reduce function
        return owner
    return 0
