"""The two worlds the workloads run against, built through the public API.

* **Mall** (paper §7.1, Experiment 5 / Fig. 6): shops as queriers over
  ``WiFi_Connectivity``.  Six shop queriers, one per shop type, each
  holding the generated corpus plus a Fig. 6 style per-shop corpus
  (``mall_policies_for_shop``).
* **TIPPERS** (paper §7.1): the bench-scale campus of
  ``repro.bench.scenarios.bench_tippers("mysql")`` with SmartBench
  Q1–Q3 queries and designated queriers of each profile.

Set-up is split into named phases so the client can run the reference
kernel between them (see :mod:`sievebench.hostclock`) and time each
phase against the host speed around it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench.scenarios import bench_tippers, mall_policies_for_shop
from repro.core import Sieve
from repro.datasets.mall import MallConfig, MallDataset, generate_mall
from repro.policy.store import PolicyStore
from repro.service import SieveServer

from sievebench.hostclock import HostClock

#: Mall scale.  Fig. 6 uses ``n_customers=900, days=25`` and 600
#: policies per shop; at that scale one shop's guard generation takes
#: about 13 s, so the set-up and every post-write regeneration would
#: not fit a run.  These values keep the same structure at about a
#: third of the events and a twelfth of the per-shop corpus.
MALL_CUSTOMERS = 450
MALL_DAYS = 20
MALL_SHOP_CORPUS = 25
#: Shops 0..5 are one shop of each of the six shop types.
MALL_SHOPS = (0, 1, 2, 3, 4, 5)
MALL_PURPOSE = "any"

TIPPERS_PROFILES = ("faculty", "staff", "grad", "undergrad")
TIPPERS_PURPOSE = "analytics"

#: ``SieveServer`` worker count: the bundled engine is GIL-bound, so
#: more workers than cores buy nothing.
SERVER_WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class World:
    """One built world: the store, the middleware, and (for serving
    workloads) a running server over it."""

    db: Any
    store: PolicyStore
    sieve: Sieve
    queriers: list[Any]
    purpose: str
    dataset: Any
    server: SieveServer | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(drain=True, timeout=60.0)
            self.server = None


@dataclass
class PhaseTiming:
    name: str
    raw_s: float
    norm_s: float


def run_phases(
    clock: HostClock, phases: list[tuple[str, Callable[[], None]]], kernels: int = 8
) -> list[PhaseTiming]:
    """Run set-up phases in order, each timed in wall time and scaled
    by the kernel samples taken just before and just after it."""
    out: list[PhaseTiming] = []
    before = clock.samples(kernels)
    for name, phase in phases:
        start = time.perf_counter()
        phase()
        raw = time.perf_counter() - start
        after = clock.samples(kernels)
        out.append(PhaseTiming(name, raw, raw * clock.factor(before + after)))
        before = after
    return out


def build_mall(world: dict[str, Any], audit: bool) -> None:
    """Phase: generate the Mall, load its corpus plus the per-shop
    Fig. 6 corpus, and start the server."""
    mall: MallDataset = generate_mall(
        MallConfig(
            seed=13,
            n_customers=MALL_CUSTOMERS,
            days=MALL_DAYS,
            personality="postgres",
        )
    )
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    for shop in MALL_SHOPS:
        store.insert_many(mall_policies_for_shop(mall, shop, MALL_SHOP_CORPUS))
    sieve = Sieve(mall.db, store)
    if audit:
        sieve.enable_audit()
    server = SieveServer(sieve, workers=SERVER_WORKERS)
    server.start()
    world["world"] = World(
        db=mall.db,
        store=store,
        sieve=sieve,
        queriers=[mall.shop_querier(shop) for shop in MALL_SHOPS],
        purpose=MALL_PURPOSE,
        dataset=mall,
        server=server,
    )


def build_tippers(world: dict[str, Any]) -> None:
    """Phase: the bench-scale TIPPERS campus, built afresh (the
    scenario helper memoizes, so its cache is cleared first)."""
    bench_tippers.cache_clear()
    bench = bench_tippers("mysql")
    bench_tippers.cache_clear()
    world["world"] = World(
        db=bench.db,
        store=bench.store,
        sieve=bench.sieve,
        queriers=[bench.campus.designated_queriers[p][0] for p in TIPPERS_PROFILES],
        purpose=TIPPERS_PURPOSE,
        dataset=bench.dataset,
    )
