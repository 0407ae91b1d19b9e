"""Benchmark for vecmatch: seeded workloads, output checks and layer tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``; see
``run.py`` for the options and the printed result.
"""
