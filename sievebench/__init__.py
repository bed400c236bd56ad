"""The Sieve benchmark: three workloads over the public API, with
host-normalised end-to-end metrics and outside-in per-layer tracing.
Run it with ``python3 sievebench/run.py``; see ``README.md``."""
