"""Seeded request schedules: what each workload sends, in what order.

A schedule is a fixed *count* of operations, never a time box, so the
set of requests a run measures does not depend on how fast the host
is.  The seed picks literals (through each operation's ``draw``), the
order of read classes within a querier's stream, and the contents of
policy writes.  It never picks the mix: per-class counts, the querier
rotation and the write:read ratio are the same for every seed
(``tests/test_schedule.py`` holds this).

Schedules are built without a world, so they can be checked cheaply;
:func:`mall_sql` and :func:`tippers_sql` turn an operation into SQL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.datasets.workload import QueryWorkload, Selectivity

from sievebench.worlds import MALL_DAYS, MALL_SHOPS

#: Mall read shapes.  ``all`` is Fig. 6's query; ``by_shop`` is a
#: GROUP BY aggregate; ``window`` and ``shops`` are selective reads.
MALL_SHAPES = ("all", "by_shop", "window", "shops")
#: Reads of each shape per querier per round.  Unequal on purpose: the
#: shapes' costs are ordered shops < window < all < by_shop, and with
#: equal counts the median would sit exactly on the boundary between
#: two shapes' cost ranges, where it jumps with every seed.  With these
#: weights the median falls inside the ``all`` range and the p95
#: inside the ``by_shop`` range.
MALL_WEIGHTS = {"all": 3, "by_shop": 2, "window": 2, "shops": 1}
#: SmartBench templates × selectivity classes (paper §7.1).
TIPPERS_CLASSES = tuple(
    f"{template}-{sel.value}" for template in ("Q1", "Q2", "Q3") for sel in Selectivity
)

#: Reads per second of ``--seconds`` (fixed, so a run's request count
#: depends only on ``--seconds``).  Sized on the reference host so a
#: window lasts roughly ``--seconds`` of normalised time.
MALL_SERVE_READS_PER_S = 24.0
TIPPERS_READS_PER_S = 21.6
#: Churn cycles per second of ``--seconds``.  One cycle is a write,
#: the written querier's read, then one read by each other querier.
MALL_CHURN_CYCLES_PER_S = 3.6
CHURN_OTHER_ROUNDS = 1
#: Write→fresh-read probes run after the window by the read-only
#: workloads, so every workload reports the write metrics.
PROBE_CYCLES = 24


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``kind`` is ``"read"`` or ``"write"``; ``querier`` indexes the
    workload's querier list; ``shape`` is the read class or the write
    kind (``"insert"``/``"delete"``); ``draw`` is the seeded value that
    picks this operation's literals or policy contents; ``fresh``
    marks the written querier's first read after its write."""

    kind: str
    querier: int
    shape: str
    draw: int = 0
    fresh: bool = False


def _rounds(seconds: float, per_s: float, unit: int) -> int:
    """Whole repetitions of a ``unit``-sized block for ``seconds``."""
    return max(1, round(seconds * per_s / unit))


def _interleave(streams: list[list[Op]]) -> list[Op]:
    """Round-robin over per-querier streams (the fixed rotation)."""
    out: list[Op] = []
    for i in range(max(len(s) for s in streams)):
        out.extend(s[i] for s in streams if i < len(s))
    return out


def mall_round() -> list[str]:
    """One querier's shapes for one round, by :data:`MALL_WEIGHTS`."""
    return [shape for shape in MALL_SHAPES for _ in range(MALL_WEIGHTS[shape])]


def mall_literals(seed: int) -> dict[tuple[int, str], int]:
    """One literal draw per (querier, shape): a run serves 24 fixed
    plans, so the plan cache holds them all after warm-up."""
    rng = make_rng(seed, "mall-literals")
    return {
        (q, shape): rng.randrange(1 << 30)
        for q in range(len(MALL_SHOPS))
        for shape in MALL_SHAPES
    }


def mall_serve(seed: int, seconds: float) -> list[Op]:
    per_round = mall_round()
    rounds = _rounds(seconds, MALL_SERVE_READS_PER_S, len(MALL_SHOPS) * len(per_round))
    literals = mall_literals(seed)
    rng = make_rng(seed, "mall-serve-order")
    streams = []
    for q in range(len(MALL_SHOPS)):
        shapes = per_round * rounds
        rng.shuffle(shapes)
        streams.append([Op("read", q, s, literals[(q, s)]) for s in shapes])
    return _interleave(streams)


def mall_churn(seed: int, seconds: float) -> list[Op]:
    """Cycles of: one policy write for the rotation's querier (inserts
    alternate with the delete of the oldest outstanding insert, so
    each pair lands on one querier), that querier's fresh read, then
    ``CHURN_OTHER_ROUNDS`` reads by each other querier."""
    n = len(MALL_SHOPS)
    period = 2 * n  # every querier takes one insert+delete pair
    cycles = _rounds(seconds, MALL_CHURN_CYCLES_PER_S, period) * period
    literals = mall_literals(seed)
    rng = make_rng(seed, "mall-churn")
    # Each querier is the written one in cycles/n cycles and reads
    # CHURN_OTHER_ROUNDS times in every other cycle.
    reads_per_querier = CHURN_OTHER_ROUNDS * (cycles - cycles // n)
    per_round = mall_round()
    pools = []
    for _q in range(n):
        pool = (per_round * reads_per_querier)[:reads_per_querier]
        rng.shuffle(pool)
        pools.append(pool)
    ops: list[Op] = []
    for c in range(cycles):
        q = (c // 2) % n
        kind = "insert" if c % 2 == 0 else "delete"
        ops.append(Op("write", q, kind, rng.randrange(1 << 30)))
        shape = MALL_SHAPES[c % len(MALL_SHAPES)]
        ops.append(Op("read", q, shape, literals[(q, shape)], fresh=True))
        for _round in range(CHURN_OTHER_ROUNDS):
            for other in range(n):
                if other != q:
                    s = pools[other].pop()
                    ops.append(Op("read", other, s, literals[(other, s)]))
    return ops


def tippers_adhoc(seed: int, seconds: float, n_queriers: int) -> list[Op]:
    rounds = _rounds(seconds, TIPPERS_READS_PER_S, n_queriers * len(TIPPERS_CLASSES))
    rng = make_rng(seed, "tippers-adhoc")
    streams = []
    for q in range(n_queriers):
        classes = [c for c in TIPPERS_CLASSES for _ in range(rounds)]
        rng.shuffle(classes)
        streams.append([Op("read", q, c, rng.randrange(1 << 30)) for c in classes])
    return _interleave(streams)


def probe(seed: int, n_queriers: int, shape: str) -> list[Op]:
    """``PROBE_CYCLES`` write→fresh-read cycles over a fixed querier
    rotation.  The writes are all inserts: with inserts and deletes in
    equal numbers, and their costs apart, the median write would sit on
    the boundary between the two cost ranges.  The probe's world is
    discarded afterwards, so nothing needs deleting."""
    rng = make_rng(seed, "probe")
    ops: list[Op] = []
    for c in range(PROBE_CYCLES):
        q = c % n_queriers
        ops.append(Op("write", q, "insert", rng.randrange(1 << 30)))
        ops.append(Op("read", q, shape, rng.randrange(1 << 30), fresh=True))
    return ops


def split(ops: list[Op], parts: int) -> list[int]:
    """``parts + 1`` boundaries cutting ``ops`` into contiguous parts of
    near-equal length.  A cut never separates an insert from its
    delete, or a write from its fresh read, so each part can run on
    its own world."""
    allowed = []
    outstanding = 0
    for i, op in enumerate(ops):
        if outstanding == 0 and not op.fresh:
            allowed.append(i)
        if op.kind == "write":
            outstanding += 1 if op.shape == "insert" else -1
    bounds = [0]
    for k in range(1, parts):
        target = k * len(ops) / parts
        bounds.append(min((i for i in allowed if i > bounds[-1]), key=lambda i: abs(i - target)))
    return bounds + [len(ops)]


def warm_reads(n_queriers: int, shapes: tuple[str, ...], repeats: int) -> list[Op]:
    """Seed-independent reads: every (querier, shape), ``repeats``
    times, with draw 0."""
    return [
        Op("read", q, shape)
        for _ in range(repeats)
        for q in range(n_queriers)
        for shape in shapes
    ]


def mall_sql(shape: str, draw: int) -> str:
    rng = make_rng(draw, "mall-sql")
    if shape == "all":
        return "SELECT * FROM WiFi_Connectivity"
    if shape == "by_shop":
        d1 = rng.randrange(0, MALL_DAYS - 8)
        return (
            "SELECT shop_id, COUNT(*) AS visits FROM WiFi_Connectivity "
            f"WHERE ts_date BETWEEN {d1} AND {d1 + 7} GROUP BY shop_id"
        )
    if shape == "window":
        t1 = rng.randrange(600, 1140)
        return (
            "SELECT owner, ts_date, ts_time FROM WiFi_Connectivity "
            f"WHERE ts_time BETWEEN {t1} AND {t1 + 180}"
        )
    if shape == "shops":
        shops = sorted(rng.sample(range(35), 4))
        return (
            "SELECT COUNT(*) AS n FROM WiFi_Connectivity "
            f"WHERE shop_id IN ({', '.join(map(str, shops))})"
        )
    raise ValueError(f"unknown Mall shape {shape!r}")


def tippers_sql(dataset, shape: str, draw: int) -> str:
    template, sel = shape.split("-")
    workload = QueryWorkload(dataset, seed=draw)
    return workload.generate(template, Selectivity(sel))[0].sql
