"""Synthesis-as-a-service: an asyncio HTTP front end over the batch
engine.

Pure stdlib (``asyncio`` streams — no aiohttp, no uvicorn), following
the repository's no-new-required-dependencies rule.  The package
splits along protocol lines:

* :mod:`repro.service.http11` — minimal HTTP/1.1 request/response
  plumbing with hard size limits;
* :mod:`repro.service.sse` — the Server-Sent-Events codec and the
  bounded drop-and-flag per-subscriber queue;
* :mod:`repro.service.jobs` — job records, SSE fan-out, service
  metrics and the deterministic JSONL audit log;
* :mod:`repro.service.app` — :class:`SynthesisService` (routes and
  lifecycle) plus :class:`ServiceThread` / :func:`run_in_thread` for
  synchronous callers.

Quick start::

    from repro.service import run_in_thread

    handle = run_in_thread()          # ephemeral port, default engine
    ...                               # http.client against handle.base_url
    handle.stop()                     # drains, reaps the worker pool

or, from the shell: ``ezrt serve --port 8787 --cores 4``.

See ``docs/service.md`` for the endpoint contract, the SSE event
schema and dedup semantics.
"""

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".app": (
        "ServiceThread", "SynthesisService", "run_in_thread", "serve",
    ),
    ".http11": (
        "HttpError", "Request",
    ),
    ".jobs": (
        "AuditLog", "JobManager", "JobRecord",
    ),
    ".sse": (
        "EventQueue", "ServerEvent", "decode_stream", "encode_comment",
        "encode_event",
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
