"""QF-RAMAN benchmark: time to spectrum on three seeded workloads.

Run from the repository root::

    python3 qfbench/run.py --workload water_raman --seed 3 --seconds 5 --trace 0

See ``qfbench/README.md`` for the workloads, metrics and checks.
"""
