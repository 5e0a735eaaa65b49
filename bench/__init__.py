"""The repo's one benchmark: four workloads, host + simulated metrics, per-layer ledger.

Run ``python bench/run.py --help``; ``bench/README.md`` is the catalogue.
"""
