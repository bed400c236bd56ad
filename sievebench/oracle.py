"""Correctness oracle: re-derive sampled responses independently.

Each sampled read is re-run with :class:`~repro.core.BaselineP` (the
policy DNF appended to the WHERE clause — no guards, no caches, no
strategy choice) on the tuple-at-a-time interpreter
(``vectorized=False, codegen=False``), against the policy corpus *at
the epoch the read planned under*: a
:class:`~repro.policy.store.PinnedPolicyStore` over the snapshot of
that epoch.  The answer must equal the served one as a multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core import BaselineP
from repro.policy.store import PinnedPolicyStore, PolicySnapshot


@dataclass
class Sampled:
    """A served read kept for the oracle."""

    sql: str
    querier: Any
    purpose: str
    epoch: int
    rows: list[tuple]


def _canonical(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=repr)


def check(db, snapshots: dict[int, PolicySnapshot], samples: list[Sampled]) -> list[str]:
    """Mismatch descriptions (empty when every sample agrees).

    ``snapshots`` maps each sampled epoch to its corpus view.  The
    database's engine mode is switched to the interpreter for the
    check and restored afterwards; call it only while no request is in
    flight."""
    mismatches: list[str] = []
    saved = (db.vectorized, db.codegen)
    db.vectorized, db.codegen = False, False
    try:
        for sample in samples:
            snapshot = snapshots.get(sample.epoch)
            if snapshot is None:
                mismatches.append(f"epoch {sample.epoch} not retained for {sample.sql!r}")
                continue
            oracle = BaselineP(db, PinnedPolicyStore(db, snapshot))
            expected = oracle.execute(sample.sql, sample.querier, sample.purpose).rows
            if _canonical(expected) != _canonical(sample.rows):
                mismatches.append(
                    f"querier {sample.querier!r} epoch {sample.epoch}: served "
                    f"{len(sample.rows)} rows, oracle {len(expected)} for {sample.sql!r}"
                )
    finally:
        db.vectorized, db.codegen = saved
    return mismatches
