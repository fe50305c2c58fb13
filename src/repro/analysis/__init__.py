"""Analysis utilities: competitive ratios, summary statistics, report tables.

The re-exports load on first access (PEP 562), so importing one submodule,
such as :mod:`repro.analysis.traces` for ``solve --gantt``, does not load
:mod:`repro.analysis.competitive` and the lower bounds it imports.
"""

#: Public names and the submodule each loads from.
_LAZY = {
    "CompetitiveEstimate": "repro.analysis.competitive",
    "flow_time_competitive_estimate": "repro.analysis.competitive",
    "describe": "repro.analysis.statistics",
    "ExperimentTable": "repro.analysis.reporting",
    "render_report": "repro.analysis.reporting",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = list(_LAZY)
