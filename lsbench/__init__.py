"""The LifeStream benchmark: four workloads through the public API.

Run ``python3 lsbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` names the workloads and metrics.
"""
