"""The repository's benchmark: host-time cost of the simulator and checker.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) and prints its metrics;
``perfbench/README.md`` documents workloads, metrics and how to read the
traced table.
"""
