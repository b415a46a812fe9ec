"""ezRealtime reproduction: embedded hard real-time software synthesis.

Reproduction of *"ezRealtime: A Domain-Specific Modeling Tool for
Embedded Hard Real-Time Software Synthesis"* (Cruz, Barreto, Cordeiro,
Maciel — DATE 2008): a tool chain that models periodic hard real-time
task sets as time Petri nets built from composition blocks, synthesises
a feasible pre-runtime schedule by depth-first search over the timed
state space, and generates scheduled C code (schedule table, dispatcher
and timer interrupt handler).

Typical use::

    from repro import (
        SpecBuilder, compose, find_schedule, schedule_from_result,
        generate_project,
    )

    spec = (
        SpecBuilder("demo")
        .processor("proc0")
        .task("sense", computation=2, deadline=10, period=20)
        .task("act", computation=3, deadline=20, period=20)
        .precedence("sense", "act")
        .build()
    )
    model = compose(spec)
    result = find_schedule(model)
    schedule = schedule_from_result(model, result)
    project = generate_project(model, schedule, target="hostsim")

Subpackages: :mod:`repro.tpn` (the formalism), :mod:`repro.spec`
(metamodel + DSL), :mod:`repro.blocks` (model composition),
:mod:`repro.pnml` (interchange), :mod:`repro.scheduler` (synthesis +
baselines), :mod:`repro.codegen` (C emission), :mod:`repro.sim`
(dispatcher machine), :mod:`repro.analysis` (schedulability theory and
reports), :mod:`repro.batch` (parallel multi-spec synthesis with
result caching and campaign sweeps).

Every public name resolves on first access (PEP 562), so ``import
repro`` loads no subpackage and a process pays only for the layers it
uses.
"""

from importlib import import_module

__version__ = "1.0.0"

#: defining module -> the public names it contributes
_SUBMODULES = {
    ".batch": (
        "BatchEngine", "BatchJob", "BatchResult", "CampaignGrid",
        "CampaignResult", "JobOutcome", "ResultCache", "run_campaign",
    ),
    ".blocks": ("BlockStyle", "ComposedModel", "ComposerOptions", "compose"),
    ".codegen": ("GeneratedProject", "generate_project"),
    ".errors": (
        "CodeGenError", "DSLError", "EzRealtimeError",
        "InfeasibleScheduleError", "NetConstructionError", "PNMLError",
        "SchedulingError", "SimulationError", "SpecificationError",
        "TraceVerificationError",
    ),
    ".scheduler": (
        "AdaptiveStore", "ParallelScheduler", "SchedulerConfig",
        "SchedulerResult", "SearchCore", "TaskLevelSchedule",
        "default_portfolio", "find_schedule", "require_schedule",
        "schedule_from_result", "simulate_runtime",
    ),
    ".sim": (
        "DispatcherMachine", "NetSimulator", "run_schedule",
        "simulate_net", "verify_trace",
    ),
    ".spec": (
        "EzRTSpec", "SchedulingType", "SpecBuilder", "Task",
        "fig3_precedence", "fig4_exclusion", "fig8_preemptive",
        "mine_pump",
    ),
    ".tpn": ("TimeInterval", "TimePetriNet"),
    ".workloads": (
        "campaign_task_sets", "hard_portfolio_task_set",
        "random_task_set", "random_task_set_with_relations",
        "time_scaled_task_set", "uunifast", "wide_interval_race_net",
    ),
}

#: public name -> defining module
_EXPORTS = {
    name: module for module, names in _SUBMODULES.items() for name in names
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> object:
    # PEP 562: import the defining module on first access and cache the
    # value, so a process pays only for the layers it uses
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
