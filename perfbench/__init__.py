"""Benchmark of the liftmix CLI: seeded workloads, output checks and a traced run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/run.py``.
"""
