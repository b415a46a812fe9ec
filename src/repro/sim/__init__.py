"""Simulated execution substrate: the dispatcher machine standing in
for target hardware, net simulation and trace verification."""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".machine": (
        "DispatcherMachine", "MachineResult", "run_schedule",
    ),
    ".netsim": (
        "NetSimRun", "NetSimulator", "WALK_POLICIES", "simulate_net",
    ),
    ".trace": (
        "EVENT_KINDS", "Trace", "TraceEvent",
    ),
    ".verifier": (
        "ensure_trace_ok", "verify_trace",
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
