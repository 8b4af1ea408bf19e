"""The repository's benchmark: workloads, metrics, oracle and steadiness mode.

See ``perfbench/README.md``.
"""
