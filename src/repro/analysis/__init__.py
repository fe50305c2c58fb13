"""Analysis utilities: competitive ratios, summary statistics, report tables."""

from repro.analysis.competitive import CompetitiveEstimate, flow_time_competitive_estimate
from repro.analysis.statistics import describe
from repro.analysis.reporting import ExperimentTable, render_report

__all__ = [
    "CompetitiveEstimate",
    "flow_time_competitive_estimate",
    "describe",
    "ExperimentTable",
    "render_report",
]
