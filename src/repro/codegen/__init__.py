"""Scheduled C code generation (paper Section 4.4.2)."""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".dispatcher": (
        "render_dispatcher", "render_main", "render_tasks_header",
        "render_tasks_source",
    ),
    ".generator": (
        "GeneratedProject", "generate_project",
    ),
    ".schedule_table": (
        "render_paper_style", "render_schedule_header",
        "render_schedule_source",
    ),
    ".targets": (
        "ARM9", "HOSTSIM", "I8051", "M68K", "TARGETS", "TargetProfile",
        "X86", "get_target",
    ),
    ".templates": (
        "banner", "block_comment", "c_identifier", "include_guard",
        "indent",
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
