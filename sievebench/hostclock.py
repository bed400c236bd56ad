"""Host-speed normalisation with a fixed pure-Python reference kernel.

A shared host's speed drifts: the same request stream can take 50%
longer from one process to the next.  The client thread therefore runs
a fixed reference kernel between requests (and between set-up steps)
and times it with ``time.thread_time()``.  Every time the benchmark
reports is multiplied by ``NOMINAL_KERNEL_S / measured``, where
``measured`` is the median kernel time around that measurement, so a
host that runs the interpreter 20% slower also reads 20% slower on the
kernel and the two cancel.

The kernel uses no repository code, so no program change can make it
faster or slower.  It is timed in *thread* CPU time: a change that adds
GIL-hungry background threads delays the client's wall clock but not
the kernel's own CPU time, so it cannot slow the reference and hide its
own cost.
"""

from __future__ import annotations

import statistics
import time

#: Loop iterations per kernel call (about 1 ms of interpreter work).
KERNEL_ROUNDS = 10000
#: Thread-CPU seconds one kernel call takes on the reference host
#: (2-core x86-64 container, CPython 3, measured unloaded).  Any fixed
#: value works: it only sets the unit of normalised time.
NOMINAL_KERNEL_S = 0.00090
#: Kernel samples on each side of a request that its factor uses.
NEIGHBOURS = 8


def reference_kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed interpreter work: a plain bytecode-dispatch loop.

    Candidates with dict, tuple and string work, method calls, list
    comprehensions or a large working set were timed beside a fixed
    Mall request stream in separate processes on the reference host;
    this loop's speed followed the stream's most closely (the ratio
    of the two moved by about 5% while the raw stream time moved by
    about 20%), while the dict/tuple/string kernel moved *more* than
    the stream and made normalised figures noisier than raw ones."""
    acc = 0
    for i in range(rounds):
        acc += i * i
    return acc


class HostClock:
    """Runs reference-kernel samples and turns them into factors."""

    def sample(self) -> float:
        """Run the kernel once; its thread-CPU seconds."""
        start = time.thread_time()
        reference_kernel()
        return time.thread_time() - start

    def samples(self, count: int) -> list[float]:
        return [self.sample() for _ in range(count)]

    def factor(self, samples: list[float]) -> float:
        """Scale that converts raw time measured alongside ``samples``
        into normalised time."""
        return NOMINAL_KERNEL_S / statistics.median(samples)

    def local_factors(self, samples: list[float]) -> list[float]:
        """One factor per sample, each from the median of its
        ``NEIGHBOURS`` neighbours on either side, so a drift inside a
        window is followed rather than averaged away."""
        out = []
        for i in range(len(samples)):
            lo = max(0, i - NEIGHBOURS)
            out.append(self.factor(samples[lo : i + NEIGHBOURS + 1]))
        return out
