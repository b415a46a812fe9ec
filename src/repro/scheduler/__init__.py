"""Pre-runtime scheduler, schedule extraction and runtime baselines."""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".adaptive": (
        "AdaptiveStore", "bench_model_families", "net_family",
        "predict_states", "spec_family",
    ),
    ".baselines": (
        "DeadlineMiss", "RUNTIME_POLICIES", "RuntimeOutcome",
        "exclusion_blocking_pair", "mok_trap", "rm_overload_pair",
        "simulate_runtime",
    ),
    ".config": (
        "DELAY_MODES", "ENGINES", "PRIORITY_MODES", "SchedulerConfig",
    ),
    ".core": (
        "EngineAdapter", "IncrementalAdapter", "ReferenceAdapter",
        "SearchCore", "StateClassAdapter", "make_adapter",
        "validate_with_reference",
    ),
    ".dfs": (
        "PreRuntimeScheduler", "find_schedule", "require_schedule",
        "search",
    ),
    ".parallel": (
        "ParallelScheduler",
    ),
    ".policies": (
        "POLICIES", "default_portfolio", "parse_policy", "parse_slot",
    ),
    ".result": (
        "SchedulerResult", "SearchStats",
    ),
    ".schedule": (
        "BusSegment", "DenseScheduleEntry", "ExecutionSegment",
        "ScheduleItem", "TaskLevelSchedule", "build_schedule_items",
        "dense_schedule_entries", "extract_schedule",
        "format_dense_schedule", "schedule_from_result",
        "validate_schedule",
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
