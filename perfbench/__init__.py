"""The repository benchmark: end-to-end workloads plus a traced per-layer run.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
