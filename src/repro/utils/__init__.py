"""Shared utilities: deterministic RNG handling, numeric helpers, tabulation,
canonical serialisation."""

from repro.utils.rng import make_rng
from repro.utils.numeric import EPS, integer_threshold, safe_ratio
from repro.utils.serialization import canonical_json, jsonify, stable_hash, tuplify
from repro.utils.tabulate import format_table

__all__ = [
    "make_rng",
    "canonical_json",
    "jsonify",
    "stable_hash",
    "tuplify",
    "EPS",
    "integer_threshold",
    "safe_ratio",
    "format_table",
]
