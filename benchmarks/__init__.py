"""The CI time gate: paired ``perfbench/`` runs of the parent and the change.

``python -m benchmarks.pairs PARENT_TREE CHANGE_TREE`` runs every
``BENCHMARK.json`` workload in both checkouts, alternating which goes first,
and fails when the change's median of an end-to-end metric is worse than the
parent's by more than its bound.  Tier-1 pins the exact work of fixed
workloads instead (``tests/test_work_pins.py``).
"""
