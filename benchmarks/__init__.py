"""Benchmark trajectory and baselines for ``repro bench``.

``python -m repro bench`` (:mod:`repro.benchmarking`) writes one
``BENCH_<slug>.json`` artifact per benchmark and gates them against
``baselines/``; ``trajectory.py`` appends each CI run's artifacts to a
cumulative NDJSON history and renders it as a report.
"""
