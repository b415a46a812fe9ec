"""Observability: tracing, metrics and progress for the whole pipeline.

**Overview for new contributors.**  The synthesis pipeline runs three
search engines under one loop, a multi-process portfolio racer and a
campaign-scale batch engine — this package is the shared window into
all of it, structured the way the formal-methods tooling the repository
reproduces against (Real-Time Maude and friends) treats execution
traces: as first-class analysis artifacts, not debug prints.

* :mod:`repro.obs.events` — a low-overhead span/counter recorder over
  ``time.monotonic_ns`` with a process-safe JSONL sink
  (:class:`JsonlSink`); the :data:`NULL_RECORDER` default makes every
  instrumentation point a no-op so the hot path pays nothing when
  tracing is off (gated <2% by ``benchmarks/bench_obs_overhead.py``);
* :mod:`repro.obs.trace` — converts recorded JSONL events into Chrome
  trace-event JSON viewable in Perfetto / ``chrome://tracing``, one
  thread track per portfolio worker;
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  whose snapshots ship over the parallel scheduler's results queue and
  merge in the parent (landing on ``SchedulerResult.metrics`` and
  ``BatchStats.metrics``);
* :mod:`repro.obs.progress` — heartbeat streaming over the search
  core's existing ``tick``-style polling (``ezrt schedule --progress``
  / ``ezrt batch --progress``).

See ``docs/observability.md`` for the span and metric reference.
"""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".events": (
        "NULL_RECORDER", "JsonlSink", "NullRecorder", "Recorder",
    ),
    ".metrics": (
        "MetricsRegistry", "format_metrics",
    ),
    ".progress": (
        "ProgressFile", "ProgressPrinter",
    ),
    ".trace": (
        "chrome_trace", "read_events", "write_chrome_trace",
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
