"""Exactly repeating work counters over a fixed serial prefix.

Every set-up ends its build with a seed-independent *prefix*: the
first reads of each querier, sent one at a time.  With
``PYTHONHASHSEED`` pinned (``run.py`` re-executes itself to pin it)
the engine's work counters over that prefix are a pure function of
the code, so they must repeat exactly

* across the set-ups of one run,
* across runs with any seed, traced or untraced.

Cross-run comparison goes through a small state file in the checkout,
keyed by a digest of the program and benchmark sources: the first run
of a given code version records the counters, every later run
compares against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

#: The counters that must repeat exactly.
PREFIX_COUNTERS = (
    "policy_evals",
    "tuples_scanned",
    "predicate_evals",
    "index_node_visits",
    "guard_cache_hits",
    "guard_cache_misses",
    "plan_cache_hits",
    "plan_cache_misses",
)

STATE_DIR = ".sievebench_state"


def counters_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before[name] for name in PREFIX_COUNTERS}


def code_digest(root: Path) -> str:
    """Digest of every Python source under ``src/`` and the benchmark,
    plus the interpreter version and hash seed."""
    h = hashlib.sha256()
    h.update(sys.version.encode())
    h.update(os.environ.get("PYTHONHASHSEED", "").encode())
    for sub in ("src", "sievebench"):
        for path in sorted((root / sub).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:20]


def compare_across_runs(root: Path, workload: str, counters: dict[str, int]) -> list[str]:
    """Record ``counters`` for this code version, or compare them with
    the recorded ones; differences as readable lines."""
    state = root / STATE_DIR
    state.mkdir(exist_ok=True)
    path = state / f"{code_digest(root)}-{workload}.json"
    if not path.exists():
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counters, sort_keys=True))
        os.replace(tmp, path)
        return []
    recorded = json.loads(path.read_text())
    return [
        f"{name}: this run {counters.get(name)} != earlier run {recorded.get(name)}"
        for name in PREFIX_COUNTERS
        if counters.get(name) != recorded.get(name)
    ]
