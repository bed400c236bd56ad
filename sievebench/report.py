"""Steadiness mode: one workload, N runs, each metric's spread.

Each run is a fresh ``run.py`` process with its own seed.  For every
metric the report gives the median of the N values and the spread —
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median —
for the normalised value and, beside it, the raw one.  Bounds in
``BENCHMARK.json`` are set from these spreads.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
REPORT_PREFIX = "# report "


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 when undefined)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def steadiness(workload: str, seed: int, seconds: float, trace: int, runs: int) -> int:
    reports = []
    for i in range(runs):
        cmd = [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed + i),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - start
        lines = [line for line in proc.stdout.splitlines() if line.startswith(REPORT_PREFIX)]
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr)
            print(f"run with seed {seed + i} failed (exit {proc.returncode})")
            return 1
        report = json.loads(lines[-1][len(REPORT_PREFIX):])
        reports.append(report)
        values = "  ".join(
            f"{name} {m['value']:.4g}/{m['raw']:.4g}" for name, m in report["metrics"].items()
        )
        print(f"seed {seed + i}: {elapsed:.1f} s, kernel {report['kernel_ms']:.3f} ms; "
              f"normalised/raw: {values}")
    print(f"workload {workload}  runs {runs}  nproc {reports[0]['nproc']}")
    print(f"{'metric':40} {'unit':6} {'median':>12} {'spread':>8} {'raw median':>12} {'raw spread':>10}")
    for name, first in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        raws = [r["metrics"][name]["raw"] for r in reports]
        raw_cols = ""
        if all(v is not None for v in raws):
            raw_cols = f"{statistics.median(raws):12.5g} {spread(raws):10.3f}"
        print(f"{name:40} {first['unit']:6} {statistics.median(values):12.5g} "
              f"{spread(values):8.3f} {raw_cols}")
    return 0
