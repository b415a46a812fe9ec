"""The traced run: spans recorded from outside the program.

Spans are taken around calls into each layer's public functions, never
inside the program: the workloads wrap the calls they make
themselves, and :func:`install_search_layers` swaps a few module
attributes for
timing wrappers (the search entry point, the pre-search lint, the
engine-adapter factory).  The adapter of every scheduler is wrapped in
:class:`AdapterProxy`, which splits the search loop from successor
generation, candidate enumeration and state hashing.  Per-call work
is accumulated in plain counters and emitted as aggregate child spans
of the search (as :mod:`repro.obs` does), so the hot loop never
allocates a span.

Spans live in memory — id, parent id, request id, name, start, end —
and are written once, as a Chrome trace-event file, when the run
ends.  :func:`install_search_layers` is what the in-process workloads
install; ``perfbench/clishim.py`` installs the CLI's and the server's
wrappers inside those processes.  A layer's self time is its span minus the spans directly under
it; the request span's self time is the part of a request's wall time
no layer span covers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading

from perfbench.common import now_ns


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "args", "tid")

    def __init__(self, sid, parent, request, name, start, args, tid):
        self.id = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.args = args
        self.tid = tid


class _SpanScope:
    __slots__ = ("tracer", "name", "args", "span")

    def __init__(self, tracer, name, args):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name, self.args)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.span)


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SCOPE = _NullScope()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    def span(self, name, **args):
        return _NULL_SCOPE

    def request(self, request_id):
        return _NULL_SCOPE

    def count(self, name, value=1) -> None:
        return None


class Tracer:
    """In-memory span recorder (thread-safe: one open-span stack and
    one current request per thread)."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        #: per-request counters: request id -> {name: value}
        self.counters: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.request = None
        return stack

    def open(self, name, args) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            self._local.request,
            name,
            now_ns(),
            args,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now_ns()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name, **args):
        return _SpanScope(self, name, args)

    def request(self, request_id):
        """The root span of one request; spans opened inside it (on this
        thread) carry its id."""
        self._stack()
        self._local.request = request_id
        return _SpanScope(self, "request", {"request": request_id})

    def record(self, name, start, end, parent: Span | None, **args) -> Span:
        """A closed span with explicit times (aggregates, child spans)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            next(self._ids),
            parent.id if parent else None,
            parent.request if parent else self._local.request,
            name,
            start,
            args,
            threading.get_ident(),
        )
        span.end = end
        self.spans.append(span)
        return span

    def count(self, name, value=1) -> None:
        self._stack()
        bucket = self.counters.setdefault(self._local.request, {})
        bucket[name] = bucket.get(name, 0) + value

    # -- aggregate search phases ----------------------------------------
    def push_accumulator(self) -> list:
        accs = getattr(self._local, "accs", None)
        if accs is None:
            accs = self._local.accs = []
        acc = [0] * 6
        accs.append(acc)
        return acc

    def pop_accumulator(self) -> None:
        self._local.accs.pop()

    def current_accumulator(self) -> list:
        accs = getattr(self._local, "accs", None)
        return accs[-1] if accs else [0] * 6

    # -- import of spans recorded by a child process ---------------------
    def adopt(self, records, parent: Span | None, pid_label: str) -> None:
        """Attach spans dumped by a child process (see :func:`dump`)."""
        mapping = {}
        for sid, sparent, name, start, end, args in records:
            span = Span(
                next(self._ids),
                mapping.get(sparent, parent.id if parent else None),
                parent.request if parent else None,
                name,
                start,
                dict(args, process=pid_label),
                pid_label,
            )
            span.end = end
            mapping[sid] = span.id
            self.spans.append(span)


def dump(tracer: Tracer, path: str, started: int) -> None:
    """Write a child process's spans for its parent to adopt;
    ``started`` is the child's first clock reading."""
    records = sorted(
        (
            [s.id, s.parent, s.name, s.start, s.end, s.args]
            for s in tracer.spans
        ),
        key=lambda record: record[0],
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "started": started,
                "finished": now_ns(),
                "spans": records,
                "counters": tracer.counters,
            },
            fh,
        )


# ----------------------------------------------------------------------
# Wrapping the program's public functions
# ----------------------------------------------------------------------
class AdapterProxy:
    """Timing proxy around an engine adapter.

    The search loop hoists ``successor``/``candidates_of`` once per
    search, so the proxy's cost is one wrapper call per use.  After
    each generated state it also times ``hash(child)`` — the key the
    visited set computes — as the state-key share.
    """

    def __init__(self, adapter, acc, tracer):
        self._adapter = adapter
        self._acc = acc
        self._tracer = tracer
        self._successor = adapter.successor
        self._candidates = adapter.candidates_of
        self._finalize = adapter.finalize_path

    def __getattr__(self, name):
        return getattr(self._adapter, name)

    def successor(self, state, transition, delay):
        acc = self._acc
        t0 = now_ns()
        child = self._successor(state, transition, delay)
        t1 = now_ns()
        acc[0] += t1 - t0
        acc[1] += 1
        if child is not None:
            hash(child)
            acc[4] += now_ns() - t1
            acc[5] += 1
        return child

    def candidates_of(self, state, stats):
        acc = self._acc
        t0 = now_ns()
        cands = self._candidates(state, stats)
        acc[2] += now_ns() - t0
        acc[3] += 1
        return cands

    def finalize_path(self, actions, stats):
        with self._tracer.span("scheduler.finalize"):
            return self._finalize(actions, stats)


_STAT_COUNTERS = (
    "states_visited",
    "states_generated",
    "revisits_skipped",
    "deadline_prunes",
    "backtracks",
)


def _traced_search(tracer, original):
    def search(net, config=None, engine=None, heartbeat=None):
        acc = tracer.push_accumulator()
        try:
            with tracer.span("scheduler.search") as span:
                result = original(
                    net, config, engine=engine, heartbeat=heartbeat
                )
        finally:
            tracer.pop_accumulator()
        cursor = span.start
        for name, spent, calls in (
            ("tpn.successor", acc[0], acc[1]),
            ("tpn.candidates", acc[2], acc[3]),
            ("tpn.state_key", acc[4], acc[5]),
        ):
            tracer.record(
                name, cursor, cursor + spent, span, aggregate=True, calls=calls
            )
            cursor += spent
        tracer.count("tpn.successor_calls", acc[1])
        tracer.count("tpn.candidates_calls", acc[3])
        for field in _STAT_COUNTERS:
            tracer.count(f"scheduler.{field}", getattr(result.stats, field))
        return result

    return search


def _traced_make_adapter(tracer, original):
    def make_adapter(engine, net, config):
        adapter = original(engine, net, config)
        return AdapterProxy(adapter, tracer.current_accumulator(), tracer)

    return make_adapter


def wrap(tracer, func, name):
    """``func`` under a span called ``name``."""

    def traced(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)

    traced.__wrapped__ = func
    return traced


class Patches:
    """Module-attribute swaps, undone by :meth:`undo`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_search_layers(tracer: Tracer, patches: Patches) -> None:
    """Spans for the layers inside ``find_schedule``: lint, search and
    the engine adapter."""
    from repro.lint import specrules
    from repro.scheduler import dfs

    patches.set(
        specrules,
        "presearch_diagnostics",
        wrap(tracer, specrules.presearch_diagnostics, "lint.presearch"),
    )
    patches.set(dfs, "search", _traced_search(tracer, dfs.search))
    patches.set(
        dfs, "make_adapter", _traced_make_adapter(tracer, dfs.make_adapter)
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
#: span name -> per-layer metric of its self time
SELF_TIME_METRICS = {
    "spec.load": "spec.load_s",
    "lint.presearch": "lint.presearch_s",
    "blocks.compose": "blocks.compose_s",
    "tpn.compile": "tpn.compile_s",
    "tpn.successor": "tpn.successor_s",
    "tpn.candidates": "tpn.candidates_s",
    "tpn.state_key": "tpn.state_key_s",
    "scheduler.finalize": "scheduler.finalize_s",
    "schedule.extract": "schedule.extract_s",
    "codegen.generate": "codegen.generate_s",
    "sim.run": "sim.run_s",
    "sim.verify": "sim.verify_s",
    "sim.replay": "sim.replay_s",
    "service.submit": "service.submit_s",
    "service.wait": "service.wait_s",
    "service.fetch": "service.fetch_s",
}


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus its direct children's."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + (
                span.end - span.start
            )
    return {
        span.id: (span.end - span.start) - child_ns.get(span.id, 0)
        for span in spans
    }


def layer_table(spans: list[Span]) -> dict[str, tuple[int, int, int]]:
    """Span name -> (count, total ns, self ns)."""
    own = self_times(spans)
    table: dict[str, list[int]] = {}
    for span in spans:
        row = table.setdefault(span.name, [0, 0, 0])
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += own[span.id]
    return {name: tuple(row) for name, row in table.items()}


def unattributed_shares(spans: list[Span]) -> list[float]:
    """Per request: share of its wall time no child span covers."""
    own = self_times(spans)
    return [
        own[span.id] / (span.end - span.start)
        for span in spans
        if span.name == "request" and span.end > span.start
    ]


def write_chrome_trace(spans: list[Span], path: str, label: str) -> None:
    """Chrome trace-event JSON (the format :mod:`repro.obs` exports):
    complete ``"X"`` events in µs plus process/thread names, so
    Perfetto opens both."""
    if not spans:
        origin = 0
    else:
        origin = min(span.start for span in spans)
    tids: dict = {}
    events = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": f"perfbench {label}"},
        }
    ]
    for span in sorted(spans, key=lambda s: (s.start, s.id)):
        tid = tids.setdefault(span.tid, len(tids) + 1)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".")[0],
                "pid": 1,
                "tid": tid,
                "ts": (span.start - origin) / 1000.0,
                "dur": (span.end - span.start) / 1000.0,
                "args": {
                    **span.args,
                    "span": span.id,
                    "parent": span.parent,
                    "request": span.request,
                },
            }
        )
    for owner, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": str(owner)},
            }
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: counters averaged per traced request
PER_REQUEST_COUNTS = (
    "tpn.successor_calls",
    "tpn.candidates_calls",
    "scheduler.states_visited",
    "scheduler.states_generated",
    "scheduler.revisits_skipped",
    "scheduler.deadline_prunes",
    "scheduler.backtracks",
    "schedule.items",
    "codegen.bytes",
    "sim.trace_events",
)


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are seconds per traced request (a layer's self time, so the
    layers of one request add up to its wall time minus the
    unattributed remainder); counts are per traced request; net sizes
    are per compiled net; ratios are ratios of the run's totals.
    """
    requests = max(1, requests)
    table = layer_table(tracer.spans)
    metrics = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = table.get(span_name, (0, 0, 0))[2] / 1e9 / requests
    _n, search_ns, loop_ns = table.get("scheduler.search", (0, 0, 0))
    metrics["scheduler.search_s"] = search_ns / 1e9 / requests
    metrics["scheduler.loop_self_s"] = loop_ns / 1e9 / requests

    totals: dict[str, float] = {}
    for bucket in tracer.counters.values():
        for name, value in bucket.items():
            totals[name] = totals.get(name, 0) + value
    for name in PER_REQUEST_COUNTS:
        metrics[name] = totals.get(name, 0) / requests
    compiles = max(1, totals.get("tpn.compiles", 0))
    metrics["blocks.net_places"] = totals.get("blocks.net_places", 0) / compiles
    metrics["blocks.net_transitions"] = (
        totals.get("blocks.net_transitions", 0) / compiles
    )
    generated = totals.get("scheduler.states_generated", 0)
    visited = totals.get("scheduler.states_visited", 0)
    metrics["scheduler.visited_per_generated"] = (
        visited / generated if generated else 0.0
    )
    metrics["scheduler.states_per_s"] = (
        visited / (search_ns / 1e9) if search_ns else 0.0
    )
    shares = unattributed_shares(tracer.spans)
    metrics["trace.unattributed_share"] = (
        sum(shares) / len(shares) if shares else 0.0
    )
    return metrics


def format_layer_table(spans: list[Span], requests: int) -> list[str]:
    """Human-readable self/total time per span name, per request."""
    requests = max(1, requests)
    lines = [
        f"  {'span':<26} {'count':>7} {'total ms/req':>13} {'self ms/req':>12}"
    ]
    table = layer_table(spans)
    for name, (count, total_ns, self_ns) in sorted(
        table.items(), key=lambda item: -item[1][2]
    ):
        lines.append(
            f"  {name:<26} {count:>7} {total_ns / 1e6 / requests:>13.3f}"
            f" {self_ns / 1e6 / requests:>12.3f}"
        )
    return lines
