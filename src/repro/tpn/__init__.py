"""Time Petri net substrate (paper Section 3.1).

Public surface:

* :class:`TimeInterval`, :data:`INF` — static firing intervals;
* :class:`Place`, :class:`Transition`, :class:`Arc`,
  :class:`TimePetriNet`, :func:`net_union` — net construction;
* :class:`CompiledNet` — frozen index-based view;
* :class:`MarkingView` — name-addressed marking inspection;
* :class:`State`, :class:`StateEngine`, :class:`FiringCandidate` — the
  checked reference semantics (Definition 3.1,
  ``ET``/``FT``/``DLB``/``DUB``);
* :class:`FastState`, :class:`IncrementalEngine` — the O(degree)
  incremental successor engine driving the reachability/simulation
  hot paths (the default search runs the packed kernel of
  :mod:`repro.tpn.kernel`);
* :class:`TLTS`, :class:`Run`, :class:`Action` — labeled runs and the
  feasibility predicate (Definition 3.2);
* :func:`explore`, :class:`ReachabilityGraph` — bounded state-space
  enumeration;
* analysis helpers (invariants, conservation, classification) and DOT
  export.
"""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".analysis": (
        "BehaviouralReport", "behavioural_report",
        "check_invariants_on_graph", "classify", "incidence_matrix",
        "invariant_value", "is_conservative", "place_invariants",
        "transition_invariants",
    ),
    ".dot": (
        "net_to_dot", "reachability_to_dot",
    ),
    ".fastengine": (
        "FastState", "IncrementalEngine",
    ),
    ".interval": (
        "INF", "TimeInterval",
    ),
    ".marking": (
        "MarkingView",
    ),
    ".net": (
        "Arc", "CompiledNet", "Place", "ROLE_ARRIVAL", "ROLE_COMPUTE",
        "ROLE_DEADLINE_MISS", "ROLE_DEADLINE_OK", "ROLE_EXCLUSION",
        "ROLE_FINISH", "ROLE_FORK", "ROLE_GRANT", "ROLE_JOIN",
        "ROLE_MESSAGE", "ROLE_PHASE", "ROLE_PRECEDENCE", "ROLE_RELEASE",
        "TimePetriNet", "Transition", "net_union",
    ),
    ".reachability": (
        "ReachabilityGraph", "explore", "find_state",
        "reachable_markings",
    ),
    ".stateclass": (
        "RealizedSchedule", "StateClass", "StateClassEngine",
        "StateClassGraph", "build_state_class_graph",
        "realize_firing_sequence",
    ),
    ".state": (
        "DISABLED", "FiringCandidate", "RESET_POLICIES", "State",
        "StateEngine",
    ),
    ".tlts": (
        "TLTS", "Action", "Run",
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
