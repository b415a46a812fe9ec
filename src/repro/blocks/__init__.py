"""Building blocks and spec→TPN composition (paper Sections 3.3, 4.3)."""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".blocks": (
        "BlockStyle", "DEADLINE_MISS_PRIORITY", "DECISION_PRIORITY",
        "RELEASE_PRIORITY", "STRUCTURAL_PRIORITY", "TaskNodes",
        "add_bus_block", "add_fork_block", "add_join_block",
        "add_processor_block", "add_task_blocks",
        "firings_per_instance", "minimum_schedule_firings", "sanitize",
    ),
    ".composer": (
        "ComposedModel", "ComposerOptions", "PRIORITY_POLICIES",
        "compose", "task_ranks",
    ),
    ".operators": (
        "add_interface_arc", "merge_nets", "merge_places",
        "relabel_interval", "rename",
    ),
    ".relations": (
        "ROLE_GATE", "add_exclusion_relation", "add_message_relation",
        "add_precedence_relation", "ensure_gate",
        "exclusion_place_name", "precedence_place_name",
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
