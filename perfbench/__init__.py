"""The repository benchmark: host throughput of the simulator, end to end
and per layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints its metrics;
see ``perfbench/README.md`` for the workloads, the metrics and the
traced per-layer breakdown.
"""
