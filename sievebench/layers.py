"""Per-layer tracing from outside the program.

The traced run wraps the entry point each caller actually looks up —
a module global such as ``repro.core.middleware.choose_strategy``, or
a class attribute such as ``Database.run_plan`` — so ``src/`` is not
changed.  Each wrapper records a span (layer, thread, start, end, and
whether it is a *root*: not nested in another recorded span on the
same thread).  Spans are kept in memory and summarised when the run
ends.  Wrappers record only while :attr:`LayerTracer.recording` is
set, i.e. during the measured window.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import repro.core.middleware as middleware_mod
import repro.optimizer.planner as planner_mod
import repro.service.server as server_mod
from repro.core.middleware import Sieve
from repro.core.rewriter import SieveRewriter
from repro.db.database import Database
from repro.policy.store import PolicyStore


#: (owner, attribute, span name).  Each is the name its callers look
#: up: ``middleware`` and ``server`` import ``parse_query`` /
#: ``choose_strategy`` / ``build_guarded_expression`` into their own
#: namespaces, so those are patched there.
TIMED = (
    (middleware_mod, "parse_query", "sql.parse"),
    (server_mod, "parse_query", "sql.parse"),
    (PolicyStore, "insert", "policy.write"),
    (PolicyStore, "delete", "policy.write"),
    (PolicyStore, "snapshot", "policy.snapshot"),
    (middleware_mod, "build_guarded_expression", "core.guard_gen"),
    (middleware_mod, "choose_strategy", "core.strategy"),
    (SieveRewriter, "rewrite", "core.rewrite"),
    (Sieve, "_prepare", "core.middleware"),
    (Database, "plan", "optimizer.plan"),
    (Database, "run_plan", "engine.run"),
    (Sieve, "_record_decision", "audit.record"),
)
#: Counted, not timed: selectivity estimates made while planning.
COUNTED = ((planner_mod, "estimate_selectivity", "optimizer.selectivity_calls"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    root: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Installs the wrappers and collects spans and call counts."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> "LayerTracer":
        for owner, attr, name in TIMED:
            self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.depth = depth
                with self._lock:
                    self.spans.append(Span(name, start, end, depth == 0))

        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def record(self) -> Iterator[None]:
        """Record spans and counts for the duration of the block."""
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    # ------------------------------------------------------------ summary

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def root_seconds(self) -> float:
        """Total time under root spans.  Root spans of one thread never
        overlap; with one request in flight at a time, spans of
        different threads do not either."""
        return sum(s.seconds for s in self.spans if s.root)

    def wrapper_calls(self) -> int:
        return len(self.spans) + sum(self.counts.values())


def wrapper_overhead_s(calls: int = 20000) -> float:
    """Seconds one recording wrapper adds to a call, measured on a
    trivial function (the tracing overhead estimate)."""

    def bare() -> None:
        return None

    tracer = LayerTracer()
    wrapped = tracer._timed("probe", bare)
    tracer.recording = True
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    return max(0.0, (traced - plain) / calls)
