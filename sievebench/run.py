"""Sieve benchmark entry point.

    python3 sievebench/run.py --workload mall-serve --seed 1 --seconds 10 --trace 0
    python3 sievebench/run.py --workload tippers-adhoc --report 5 --seconds 10

One run prints a report (every metric with its unit, sample count and
raw, unnormalised value), then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
The exit code is 0 only when the run was correct: no failed
operation, no oracle mismatch and identical prefix counters.

``--report N`` is the steadiness mode: it runs the workload N times
(seeds ``--seed`` .. ``--seed``+N-1, each a fresh process) and prints
each metric's median and quartile spread, normalised and raw.

See ``sievebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Pinned so hash-ordered iteration, and with it the work counters,
#: repeats exactly from run to run.
HASH_SEED = "0"
REPORT_PREFIX = "# report "


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", type=int, default=0, metavar="N",
        help="run the workload N times and print each metric's spread",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"sievebench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if not args.report:
        pin_to_one_cpu()

    from sievebench.bench import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"sievebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.report:
        from sievebench.report import steadiness

        return steadiness(args.workload, args.seed, args.seconds, args.trace, args.report)
    return run_once(WORKLOADS[args.workload], args)


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The reference kernel runs on the client thread but a server's work
    runs on its worker threads; on a shared host the two CPUs can be
    contended differently, and then the kernel would measure the wrong
    one.  On one CPU the kernel and the work share the host's state.
    The engine holds the GIL, so the pin costs no parallelism."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})


def run_once(spec, args: argparse.Namespace) -> int:
    from sievebench.bench import run

    result = run(spec, args.seed, args.seconds, bool(args.trace), ROOT)
    print(f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}  "
          f"nproc {result.notes['nproc']}  pinned to CPU {sorted(os.sched_getaffinity(0))}  "
          f"PYTHONHASHSEED {result.notes['pythonhashseed']}")
    print(f"operations {result.attempted} attempted, {result.failed} failed; "
          f"oracle checked {result.notes['oracle_checked']} reads, "
          f"{len(result.mismatches)} mismatches; prefix counters {result.notes['prefix']}")
    print(f"set-up phases, raw seconds: {result.notes['setup_phases_s']}; "
          f"median reference kernel in the window {result.notes['kernel_ms']:.4f} ms")
    for line in result.errors[:10] + result.mismatches + result.prefix_diffs:
        print(f"  ! {line}")
    print(f"{'metric':40} {'value':>14} {'unit':6} {'raw (report-only)':>18} {'samples':>8}")
    for m in result.metrics:
        raw = "" if m.raw is None else f"{m.raw:.6g}"
        count = "" if m.samples is None else str(m.samples)
        print(f"{m.name:40} {m.value:14.6g} {m.unit:6} {raw:>18} {count:>8}")
    print(REPORT_PREFIX + json.dumps({
        "workload": result.workload,
        "seed": result.seed,
        "nproc": result.notes["nproc"],
        "kernel_ms": result.notes["kernel_ms"],
        "metrics": {
            m.name: {"value": m.value, "raw": m.raw, "unit": m.unit, "samples": m.samples}
            for m in result.metrics
        },
    }))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in result.metrics},
    }), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
