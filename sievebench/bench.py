"""Workload definitions and one measured run.

A run, in one process with one closed-loop client thread, repeats
``SETUPS`` times:

1. set up the workload's world (build it, load the corpus, run the
   fixed serial prefix, warm every querier's guards and plans);
2. send the next part of the seeded schedule one operation at a time,
   running the reference kernel after each operation;
3. re-derive a seeded sample of that part's reads with the oracle;
4. after the last part of a read-only workload, run the
   write→fresh-read probe.

``setup_s`` is the median set-up; the window is the union of the
parts.  The prefix counters are then checked across set-ups and
across runs.  With ``trace`` the layer wrappers of
:mod:`sievebench.layers` record during the parts and the probe, and
the run reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import defaultdict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.bench.scenarios import mall_policies_for_shop, policies_for_querier
from repro.common.rng import make_rng

from sievebench import schedule
from sievebench.hostclock import HostClock
from sievebench.layers import LayerTracer, wrapper_overhead_s
from sievebench.oracle import Sampled, check
from sievebench.prefix import PREFIX_COUNTERS, compare_across_runs, counters_delta
from sievebench.schedule import Op
from sievebench.worlds import (
    MALL_SHOPS,
    TIPPERS_PROFILES,
    PhaseTiming,
    World,
    build_mall,
    build_tippers,
    run_phases,
)

SETUPS = 3
#: Bound on one operation's wait; a run far slower than this is broken.
OP_TIMEOUT_S = 120.0
#: Oracle sample sizes per window: fresh reads (when the workload has
#: them) and other reads.
ORACLE_FRESH = 2
ORACLE_OTHER = 4


@dataclass(frozen=True)
class Spec:
    """One workload: its world, schedule and warm-up."""

    name: str
    build: Callable[[dict[str, Any]], None]
    table: str
    schedule: Callable[[int, float], list[Op]]
    #: Seed-independent serial reads whose counters must repeat.
    prefix: list[Op]
    #: Seeded warm-up reads (the run's own plans), after the prefix.
    warm: Callable[[int], list[Op]]
    sql: Callable[[World, Op], str]
    policy: Callable[[World, Op], Any]
    #: Read shape of the post-window write probe; None when the window
    #: itself writes.
    probe_shape: str | None
    audited: bool = False


def _mall_sql(world: World, op: Op) -> str:
    return schedule.mall_sql(op.shape, op.draw)


def _mall_policy(world: World, op: Op):
    return mall_policies_for_shop(world.dataset, MALL_SHOPS[op.querier], 1, seed=op.draw)[0]


def _tippers_sql(world: World, op: Op) -> str:
    return schedule.tippers_sql(world.dataset, op.shape, op.draw)


def _tippers_policy(world: World, op: Op):
    querier = world.queriers[op.querier]
    return policies_for_querier(world.dataset, querier, 1, purpose=world.purpose, seed=op.draw)[0]


def _mall_warm(seed: int) -> list[Op]:
    literals = schedule.mall_literals(seed)
    return [
        Op("read", q, shape, literals[(q, shape)])
        for _ in range(2)  # the server auto-prepares a shape on its 2nd sighting
        for q in range(len(MALL_SHOPS))
        for shape in schedule.MALL_SHAPES
    ]


_N_TIPPERS = len(TIPPERS_PROFILES)

WORKLOADS: dict[str, Spec] = {
    "mall-serve": Spec(
        name="mall-serve",
        build=lambda holder: build_mall(holder, audit=False),
        table="WiFi_Connectivity",
        schedule=schedule.mall_serve,
        prefix=schedule.warm_reads(len(MALL_SHOPS), ("all",), 2),
        warm=_mall_warm,
        sql=_mall_sql,
        policy=_mall_policy,
        probe_shape="all",
    ),
    "tippers-adhoc": Spec(
        name="tippers-adhoc",
        build=build_tippers,
        table="WiFi_Dataset",
        schedule=lambda seed, seconds: schedule.tippers_adhoc(seed, seconds, _N_TIPPERS),
        prefix=schedule.warm_reads(_N_TIPPERS, ("Q1-mid", "Q3-low"), 1),
        warm=lambda seed: [],
        sql=_tippers_sql,
        policy=_tippers_policy,
        probe_shape="Q1-mid",
    ),
    "mall-churn": Spec(
        name="mall-churn",
        build=lambda holder: build_mall(holder, audit=True),
        table="WiFi_Connectivity",
        schedule=schedule.mall_churn,
        prefix=schedule.warm_reads(len(MALL_SHOPS), ("all",), 2),
        warm=_mall_warm,
        sql=_mall_sql,
        policy=_mall_policy,
        probe_shape=None,
        audited=True,
    ),
}


@dataclass
class Sample:
    op: Op
    raw_s: float
    kernel_s: float
    ok: bool
    error: str = ""
    #: Host-speed factor from the kernel samples around this one.
    factor: float = 1.0


class Client:
    """The single closed-loop client: one operation at a time."""

    def __init__(self, spec: Spec, world: World):
        self.spec = spec
        self.world = world
        self.outstanding: deque[int] = deque()

    def prepare(self, op: Op) -> Callable[[], Any]:
        """The operation as a call, with its SQL text or policy built
        beforehand so the timed call is only the request itself."""
        world = self.world
        if op.kind == "write":
            if op.shape == "insert":
                policy = self.spec.policy(world, op)

                def insert() -> None:
                    self.outstanding.append(world.store.insert(policy).id)

                return insert
            return lambda: world.store.delete(self.outstanding.popleft())
        sql = self.spec.sql(world, op)
        querier = world.queriers[op.querier]
        if world.server is not None:
            server = world.server
            return lambda: server.submit_with_info(sql, querier, world.purpose).result(
                timeout=OP_TIMEOUT_S
            )
        return lambda: world.sieve.execute_with_info(sql, querier, world.purpose)

    def run(
        self, ops: list[Op], clock: HostClock | None, keep: frozenset[int] = frozenset()
    ) -> tuple[list[Sample], list[Sampled]]:
        """Send ``ops`` in order; after each, sample the kernel (when a
        clock is given).  Reads whose index is in ``keep`` are retained
        for the oracle."""
        samples: list[Sample] = []
        kept: list[Sampled] = []
        for i, op in enumerate(ops):
            call = self.prepare(op)
            start = time.perf_counter()
            try:
                execution = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                raw = time.perf_counter() - start
                samples.append(Sample(op, raw, 0.0, False, f"{type(exc).__name__}: {exc}"))
            else:
                raw = time.perf_counter() - start
                samples.append(Sample(op, raw, 0.0, True))
                if i in keep:
                    kept.append(
                        Sampled(
                            sql=self.spec.sql(self.world, op),
                            querier=self.world.queriers[op.querier],
                            purpose=self.world.purpose,
                            epoch=execution.policy_epoch,
                            rows=list(execution.result.rows),
                        )
                    )
            if clock is not None:
                samples[-1].kernel_s = clock.sample()
        if clock is not None and samples:
            for sample, factor in zip(samples, clock.local_factors([s.kernel_s for s in samples])):
                sample.factor = factor
        return samples, kept


@dataclass
class SetupResult:
    raw_s: float
    norm_s: float
    prefix: dict[str, int]
    ops: int
    failures: list[str]
    phases: list[PhaseTiming]


def set_up(spec: Spec, seed: int, clock: HostClock) -> tuple[World, SetupResult]:
    holder: dict[str, Any] = {}
    state: dict[str, Any] = {"ops": 0, "failures": []}

    def run_serial(ops: list[Op]) -> None:
        samples, _ = Client(spec, holder["world"]).run(ops, clock=None)
        state["ops"] += len(samples)
        state["failures"] += [s.error for s in samples if not s.ok]

    def prefix() -> None:
        db = holder["world"].db
        before = db.counters.snapshot()
        run_serial(spec.prefix)
        state["prefix"] = counters_delta(before, db.counters.snapshot())

    timings = run_phases(
        clock,
        [
            ("build", lambda: spec.build(holder)),
            ("prefix", prefix),
            ("warm", lambda: run_serial(spec.warm(seed))),
        ],
    )
    return holder["world"], SetupResult(
        raw_s=sum(t.raw_s for t in timings),
        norm_s=sum(t.norm_s for t in timings),
        prefix=state["prefix"],
        ops=state["ops"],
        failures=state["failures"],
        phases=timings,
    )


def oracle_sample(ops: list[Op], seed: int) -> frozenset[int]:
    """Seeded indices of the reads the oracle re-derives."""
    rng = make_rng(seed, "oracle")
    fresh = [i for i, op in enumerate(ops) if op.kind == "read" and op.fresh]
    other = [i for i, op in enumerate(ops) if op.kind == "read" and not op.fresh]
    picked = rng.sample(fresh, min(ORACLE_FRESH, len(fresh)))
    picked += rng.sample(other, min(ORACLE_OTHER, len(other)))
    return frozenset(picked)


@dataclass
class Series:
    """One timing population: raw and normalised seconds."""

    raw: list[float] = field(default_factory=list)
    norm: list[float] = field(default_factory=list)

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.norm.append(raw * factor)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Metric:
    name: str
    unit: str
    value: float
    raw: float | None = None
    samples: int | None = None


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    errors: list[str]
    mismatches: list[str]
    prefix_diffs: list[str]
    metrics: list[Metric]
    notes: dict[str, Any]

    @property
    def correct(self) -> bool:
        return not (self.failed or self.mismatches or self.prefix_diffs)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(spec: Spec, seed: int, seconds: float, trace: bool, root: Path) -> RunResult:
    clock = HostClock()
    tracer = LayerTracer().install() if trace else None
    try:
        return _run(spec, seed, seconds, clock, tracer, root)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(
    spec: Spec,
    seed: int,
    seconds: float,
    clock: HostClock,
    tracer: LayerTracer | None,
    root: Path,
) -> RunResult:
    ops = spec.schedule(seed, seconds)
    keep = oracle_sample(ops, seed)
    bounds = schedule.split(ops, SETUPS)
    recording = tracer.record if tracer is not None else nullcontext
    errors: list[str] = []
    mismatches: list[str] = []
    setups: list[SetupResult] = []
    samples: list[Sample] = []
    probe_samples: list[Sample] = []
    counters: dict[str, int] = defaultdict(int)
    rewrites = {"hits": 0.0, "misses": 0.0}
    guard_shapes: list[tuple[float, float]] = []
    for part, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        world, setup = set_up(spec, seed, clock)
        setups.append(setup)
        errors += setup.failures
        # The world's objects are long-lived: keep full collections from
        # rescanning them at random points of the window.
        gc.collect()
        gc.freeze()
        try:
            client = Client(spec, world)
            cache = world.sieve.rewrite_cache
            rewrite_before = cache.stats.snapshot() if cache is not None else None
            before = world.db.counters.snapshot()
            with recording():
                part_samples, kept = client.run(
                    ops[lo:hi], clock, frozenset(i - lo for i in keep if lo <= i < hi)
                )
            samples += part_samples
            for name, value in world.db.counters.snapshot().items():
                counters[name] += value - before[name]
            if rewrite_before is not None:
                for key in rewrites:
                    rewrites[key] += cache.stats.snapshot()[key] - rewrite_before[key]
            guard_shapes.append(_guard_shape(world, spec.table))
            if part == SETUPS - 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            mismatches += _oracle(spec, world, kept)
            if part == SETUPS - 1 and spec.probe_shape is not None:
                probe_ops = schedule.probe(seed, len(world.queriers), spec.probe_shape)
                # Traced, the probe's spans cover the write path and
                # guard regeneration, which a read-only window skips.
                with recording():
                    probe_samples, _ = client.run(probe_ops, clock)
        finally:
            world.close()
            gc.unfreeze()
            del world
            gc.collect()

    first = setups[0].prefix
    prefix_diffs = [
        f"set-up {i} {name}: {other.prefix[name]} != set-up 1 {first[name]}"
        for i, other in enumerate(setups[1:], start=2)
        for name in PREFIX_COUNTERS
        if other.prefix[name] != first[name]
    ]
    prefix_diffs += compare_across_runs(root, spec.name, first)
    all_samples = samples + probe_samples
    errors += [s.error for s in all_samples if not s.ok]

    if tracer is None:
        metrics = _end_to_end(samples, probe_samples, setups, peak_rss_mb)
    else:
        metrics = _per_layer(samples, probe_samples, tracer, counters, rewrites, guard_shapes)
    return RunResult(
        workload=spec.name,
        seed=seed,
        trace=tracer is not None,
        # Set-up reads count too: a refused warm-up read is a failure.
        attempted=len(all_samples) + sum(s.ops for s in setups),
        failed=len(errors),
        errors=errors,
        mismatches=mismatches,
        prefix_diffs=prefix_diffs,
        metrics=metrics,
        notes={
            "nproc": os.cpu_count(),
            "ops": len(ops),
            "oracle_checked": len(keep),
            "prefix": first,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "kernel_ms": statistics.median(s.kernel_s for s in samples) * 1000.0,
            "setup_phases_s": [
                {t.name: round(t.raw_s, 3) for t in s.phases} for s in setups
            ],
        },
    )


def _oracle(spec: Spec, world: World, kept: list[Sampled]) -> list[str]:
    """Check the kept reads while no request is in flight.  Audited
    stores retain every epoch; the others do not write during the
    window, so their live snapshot is the epoch every read saw."""
    if world.server is not None:
        world.server.wait_quiesced(timeout=OP_TIMEOUT_S)
    if spec.audited:
        retained = set(world.store.retained_epochs())
        snapshots = {
            s.epoch: world.store.snapshot_at(s.epoch) for s in kept if s.epoch in retained
        }
    else:
        live = world.store.snapshot()
        snapshots = {live.epoch: live}
    return check(world.db, snapshots, kept)


def _guard_shape(world: World, table: str) -> tuple[float, float]:
    """Mean guards per guarded expression and mean total guard
    cardinality over the queriers' cached expressions."""
    guards, cards = [], []
    for querier in world.queriers:
        entry = world.sieve.guard_cache.peek(querier, world.purpose, table)
        if entry is not None and entry.expression is not None:
            guards.append(len(entry.expression.guards))
            cards.append(entry.expression.total_cardinality)
    if not guards:
        return 0.0, 0.0
    return statistics.fmean(guards), statistics.fmean(cards)


def _series(samples: list[Sample], keep: Callable[[Sample], bool]) -> Series:
    series = Series()
    for sample in samples:
        if sample.ok and keep(sample):
            series.add(sample.raw_s, sample.factor)
    return series


def _ms(name: str, series: Series, q: float) -> Metric:
    return Metric(
        name,
        "ms",
        percentile(series.norm, q) * 1000.0,
        raw=percentile(series.raw, q) * 1000.0,
        samples=len(series.norm),
    )


def _end_to_end(
    samples: list[Sample],
    probe_samples: list[Sample],
    setups: list[SetupResult],
    peak_rss_mb: float,
) -> list[Metric]:
    reads = _series(samples, lambda s: s.op.kind == "read")
    every = _series(samples, lambda s: True)
    writing = probe_samples or samples
    writes = _series(writing, lambda s: s.op.kind == "write")
    fresh = _series(writing, lambda s: s.op.kind == "read" and s.op.fresh)
    done = len(every.norm)
    return [
        Metric(
            "setup_s",
            "s",
            statistics.median(s.norm_s for s in setups),
            raw=statistics.median(s.raw_s for s in setups),
            samples=len(setups),
        ),
        _ms("read_p50_ms", reads, 50),
        _ms("read_p95_ms", reads, 95),
        Metric(
            "throughput_qps",
            "1/s",
            _frac(done, sum(every.norm)),
            raw=_frac(done, sum(every.raw)),
            samples=done,
        ),
        Metric("peak_rss_mb", "MB", peak_rss_mb, raw=peak_rss_mb, samples=1),
        _ms("write_p50_ms", writes, 50),
        _ms("fresh_read_p50_ms", fresh, 50),
    ]


def _per_layer(
    samples: list[Sample],
    probe_samples: list[Sample],
    tracer: LayerTracer,
    counters: dict[str, int],
    rewrites: dict[str, float],
    guard_shapes: list[tuple[float, float]],
) -> list[Metric]:
    traced = samples + probe_samples
    factor = statistics.median(s.factor for s in traced)
    reads = max(1, sum(1 for s in samples if s.ok and s.op.kind == "read"))
    busy = sum(s.raw_s for s in traced)

    def median_ms(metric: str, span: str) -> Metric:
        values = tracer.durations(span)
        raw = statistics.median(values) * 1000.0 if values else 0.0
        return Metric(metric, "ms", raw * factor, raw=raw, samples=len(values))

    def per_query(metric: str, value: float) -> Metric:
        return Metric(metric, "count", value / reads, samples=reads)

    def frac(metric: str, hits: float, misses: float) -> Metric:
        return Metric(metric, "frac", _frac(hits, hits + misses), samples=int(hits + misses))

    guards = statistics.fmean(g for g, _ in guard_shapes)
    cardinality = statistics.fmean(c for _, c in guard_shapes)
    pages = counters["pages_sequential"] + counters["pages_random"] + counters["pages_bitmap"]
    overhead = tracer.wrapper_calls() * wrapper_overhead_s()
    return [
        median_ms("sql.parse_ms", "sql.parse"),
        median_ms("policy.write_ms", "policy.write"),
        median_ms("policy.snapshot_ms", "policy.snapshot"),
        median_ms("core.guard_gen_ms", "core.guard_gen"),
        Metric("core.guard_gens", "count", float(len(tracer.durations("core.guard_gen")))),
        frac("core.guard_cache_hit_frac", counters["guard_cache_hits"], counters["guard_cache_misses"]),
        Metric("core.guards_per_expr", "count", guards, samples=len(guard_shapes)),
        Metric("core.guard_cardinality", "rows", cardinality, samples=len(guard_shapes)),
        median_ms("core.strategy_ms", "core.strategy"),
        median_ms("core.rewrite_ms", "core.rewrite"),
        median_ms("core.middleware_ms", "core.middleware"),
        frac("core.plan_cache_hit_frac", counters["plan_cache_hits"], counters["plan_cache_misses"]),
        frac("core.rewrite_cache_hit_frac", rewrites["hits"], rewrites["misses"]),
        median_ms("optimizer.plan_ms", "optimizer.plan"),
        per_query(
            "optimizer.selectivity_calls_per_query",
            tracer.counts["optimizer.selectivity_calls"],
        ),
        frac("expr.cache_hit_frac", counters["expr_cache_hits"], counters["expr_cache_misses"]),
        per_query("expr.compile_misses_per_query", counters["expr_cache_misses"]),
        median_ms("engine.run_ms", "engine.run"),
        Metric(
            "engine.policy_evals_per_tuple",
            "count",
            _frac(counters["policy_evals"], counters["tuples_scanned"]),
            samples=counters["tuples_scanned"],
        ),
        per_query("engine.tuples_scanned_per_query", counters["tuples_scanned"]),
        per_query("engine.predicate_evals_per_query", counters["predicate_evals"]),
        per_query("index.node_visits_per_query", counters["index_node_visits"]),
        per_query("storage.pages_per_query", pages),
        median_ms("audit.record_ms", "audit.record"),
        Metric(
            "service.queue_wait_ms",
            "ms",
            _frac(counters["service_queue_wait_us"], counters["service_requests"]) / 1000.0 * factor,
            raw=_frac(counters["service_queue_wait_us"], counters["service_requests"]) / 1000.0,
            samples=counters["service_requests"],
        ),
        Metric(
            "service.batch_size",
            "count",
            _frac(counters["service_requests"], counters["service_batches"]),
            samples=counters["service_batches"],
        ),
        Metric("trace.coverage_frac", "frac", _frac(tracer.root_seconds(), busy)),
        Metric("trace.overhead_frac", "frac", _frac(overhead, busy)),
    ]
