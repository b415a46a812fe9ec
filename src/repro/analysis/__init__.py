"""Schedulability analysis, Gantt rendering and reporting."""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".demand": (
        "DemandCheck", "demand_bound", "edf_feasible",
    ),
    ".energy": (
        "EnergyReport", "energy_report", "max_tolerable_overhead",
    ),
    ".gantt": (
        "render_gantt", "render_instance_table",
    ),
    ".report": (
        "campaign_report", "full_report", "interval_slack_report",
        "schedule_report", "search_report", "spec_report",
    ),
    ".response_time": (
        "ResponseTimeResult", "response_time_analysis",
    ),
    ".utilization": (
        "breakdown", "liu_layland_bound", "necessary_feasible",
        "passes_hyperbolic", "passes_liu_layland", "total_utilization",
    ),
}

#: public name -> defining submodule
_EXPORTS = {
    name: module for module, names in _SUBMODULES.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    # PEP 562: import the defining submodule on first access and cache
    # the value, so a process pays only for the layers it uses
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
