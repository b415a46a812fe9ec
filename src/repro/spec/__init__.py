"""Specification metamodel, DSL, timing maths and case studies."""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".builder": (
        "SpecBuilder",
    ),
    ".dsl": (
        "NAMESPACE", "PAPER_FIG7_SNIPPET", "dumps", "load", "loads",
        "save",
    ),
    ".examples": (
        "MINE_PUMP_TABLE1", "fig3_precedence", "fig4_exclusion",
        "fig8_preemptive", "mine_pump", "paper_examples",
    ),
    ".jsonio": (
        "spec_from_json", "spec_to_json",
    ),
    ".model": (
        "EzRTSpec", "Message", "Processor", "SchedulingType",
        "SourceCode", "Task", "fresh_identifier",
    ),
    ".timing": (
        "TaskInstance", "check_harmonic", "demand_in_window",
        "expand_instances", "instance_count", "lcm", "schedule_period",
        "total_instances", "utilization_breakdown",
    ),
    ".validation": (
        "ensure_valid", "validate_spec",
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
