"""The four workloads: closed loops over seeded inputs, every result checked.

Each workload measures set-up (launch until the program can take its
first request, several times) and then runs one closed-loop client for
the run's seconds: the next request is sent when the previous one has
been verified.  A request *fails* on an error, a timeout, a refusal,
a verdict, ``states_visited`` or schedule digest that differs from
the stored answer, or a failed replay or trace verification; each
failure is kept with its request and printed.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

from perfbench import common, inputs, tracing
from perfbench.tracing import NullTracer

SETUP_REPEATS = 11
SERVICE_SETUP_REPEATS = 7
#: how long a stopped ``ezrt serve`` may take to drain before it is killed
STOP_SECONDS = 20
NULL = NullTracer()
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clishim.py")


class RunResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.elapsed = 0.0
        self.peak_rss_mb = 0.0
        #: traced runs: latencies of the same requests, untraced/traced
        self.pairs: list[tuple[float, float]] = []
        self.notes: dict = {}

    def add(self, label: str, seconds: float, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            self.latencies.append(seconds)
        else:
            self.failures.append(f"{label}: {problem}")


def compare(answer: dict, verdict: str, visited: int, sched_digest) -> str | None:
    """Mismatch description against a stored answer, or None."""
    problems = []
    if verdict != answer["verdict"]:
        problems.append(f"verdict {verdict} != stored {answer['verdict']}")
    if visited != answer["visited"]:
        problems.append(
            f"states_visited {visited} != stored {answer['visited']}"
        )
    if sched_digest != answer["digest"]:
        problems.append(
            f"schedule digest {sched_digest} != stored {answer['digest']}"
        )
    return "; ".join(problems) or None


def _attempt(handle, item, tracer):
    """Run one request; returns (seconds, problem)."""
    started = time.perf_counter()
    try:
        problem = handle(item, tracer)
    except Exception as exc:  # a failed request is data, not a crash
        problem = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, problem


def closed_loop(items, handle, seconds: float, speed) -> RunResult:
    """One client for ``seconds`` of requests; the host-speed probe
    after each request is left out of the run's time."""
    result = RunResult()
    started = time.perf_counter()
    deadline = started + seconds
    probing = 0.0
    while time.perf_counter() < deadline:
        item = next(items)
        elapsed, problem = _attempt(handle, item, NULL)
        result.add(str(item), elapsed, problem)
        spent = speed.probe()
        probing += spent
        deadline += spent
    result.elapsed = time.perf_counter() - started - probing
    return result


def paired_loop(items, handle, seconds: float, tracer, install) -> RunResult:
    """Traced run: every request runs untraced and traced, alternating
    which goes first; latencies and failures come from the traced side,
    the pairs give the tracing overhead."""
    result = RunResult()
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    while time.perf_counter() < deadline:
        item = next(items)
        timings = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced:
                timings[False] = _attempt(handle, item, NULL)
                continue
            patches = tracing.Patches()
            install(tracer, patches)
            try:
                with tracer.request(index):
                    timings[True] = _attempt(handle, item, tracer)
            finally:
                patches.undo()
        (plain, plain_problem), (seconds_t, problem) = timings[False], timings[True]
        result.add(str(item), seconds_t, problem or plain_problem)
        result.pairs.append((plain, seconds_t))
        index += 1
    result.elapsed = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# In-process pipeline steps (each under its layer's span)
# ----------------------------------------------------------------------
def _compose_compile(spec, tr):
    from repro.blocks import compose

    with tr.span("blocks.compose"):
        model = compose(spec)
    with tr.span("tpn.compile"):
        net = model.compiled()
    _count_net(net, tr)
    return model, net


def _count_net(net, tr) -> None:
    if tr.enabled:
        tr.count("tpn.compiles")
        tr.count("blocks.net_places", net.num_places)
        tr.count("blocks.net_transitions", net.num_transitions)


def _feasible_tail(model, net, result, config, tr, generate, replay):
    """Extract the schedule, optionally generate C, then either simulate
    it on the dispatcher machine and verify the trace or (``replay``)
    replay the firing schedule through the reference engine."""
    from repro.codegen import generate_project
    from repro.scheduler import schedule_from_result
    from repro.scheduler.parallel import validate_with_reference
    from repro.sim import run_schedule, verify_trace

    with tr.span("schedule.extract"):
        schedule = schedule_from_result(model, result)
    if tr.enabled:
        tr.count("schedule.items", len(schedule.items))
    if generate:
        with tr.span("codegen.generate"):
            project = generate_project(model, schedule)
        if tr.enabled:
            tr.count("codegen.bytes", common.c_bytes(project.files))
    if replay:
        with tr.span("sim.replay"):
            validate_with_reference(net, config, result.firing_schedule)
        return None
    with tr.span("sim.run"):
        machine = run_schedule(model, schedule)
    with tr.span("sim.verify"):
        violations = verify_trace(model, machine)
    if tr.enabled:
        tr.count("sim.trace_events", len(machine.trace.events))
    if violations:
        return f"trace verification failed: {violations[0]}"
    return None


class _Workload:
    name = ""

    def __init__(self, answers: dict, seed: int):
        self.rng = inputs.workload_rng(self.name, seed)
        #: host-speed probes, taken between set-up samples and between
        #: requests (never during one)
        self.speed = common.HostSpeed()

    def setup(self) -> list[float]:
        return common.cold_seconds(
            [sys.executable, "-c", common.IMPORT_AND_LOAD],
            SETUP_REPEATS,
            self.speed,
        )

    def run(self, seconds: float, tracer=None) -> RunResult:
        items = self.items()
        if tracer is None:
            result = closed_loop(items, self.handle, seconds, self.speed)
        else:
            result = paired_loop(
                items, self.handle, seconds, tracer, self.install
            )
        result.peak_rss_mb = self.peak_rss_mb()
        return result

    @staticmethod
    def install(tracer, patches) -> None:
        """Wrappers the traced side of each request runs under."""
        tracing.install_search_layers(tracer, patches)

    def peak_rss_mb(self) -> float:
        return common.self_peak_rss_mb()

    def close(self) -> None:
        return None

    def findings(self) -> list[str]:
        """Program misbehaviour seen outside any request."""
        return []


# ----------------------------------------------------------------------
# search-grid
# ----------------------------------------------------------------------
class SearchGrid(_Workload):
    """Discrete synthesis in process, default engine, fixed budget."""

    name = "search-grid"
    PER_ROUND = 12

    def __init__(self, answers, seed):
        super().__init__(answers, seed)
        common.use_src()
        from repro.scheduler import SchedulerConfig

        self.config = SchedulerConfig(max_states=inputs.GRID_MAX_STATES)
        self.stored = answers["grid"]
        self.specs = {key: inputs.grid_spec(key) for key in self.stored}

    def items(self):
        cost = {key: a["visited"] for key, a in self.stored.items()}
        return inputs.stratified_rounds(
            sorted(self.stored), cost, self.PER_ROUND, self.rng
        )

    def handle(self, key, tr):
        from repro.scheduler import find_schedule

        model, net = _compose_compile(self.specs[key], tr)
        with tr.span("scheduler.find_schedule"):
            result = find_schedule(model, self.config)
        problem = compare(self.stored[key], *_observed(result))
        if problem or not result.feasible:
            return problem
        # the dispatcher machine steps every time unit, so a µs-scaled
        # hyperperiod (~10⁶ units) would turn a request into a simulator
        # benchmark: the µs slice replays through the reference engine
        return _feasible_tail(
            model, net, result, self.config, tr,
            generate=True, replay=key.startswith("us/"),
        )


def _observed(result):
    from perfbench.answers import verdict_of

    return (
        verdict_of(result),
        result.stats.states_visited,
        common.schedule_digest(result.firing_schedule)
        if result.feasible
        else None,
    )


# ----------------------------------------------------------------------
# dense-classes
# ----------------------------------------------------------------------
class DenseClasses(_Workload):
    """Dense-time state-class synthesis in process (packed DBM engine)."""

    name = "dense-classes"

    def __init__(self, answers, seed):
        super().__init__(answers, seed)
        common.use_src()
        from repro.scheduler import SchedulerConfig

        self.config = SchedulerConfig(engine="stateclass")
        self.stored = answers["dense"]
        self.inputs = {key: inputs.dense_input(key) for key in self.stored}

    def items(self):
        return inputs.dense_rounds(self.rng)

    def handle(self, key, tr):
        from repro.scheduler import dfs, find_schedule

        kind, item = self.inputs[key]
        if kind == "net":
            with tr.span("tpn.compile"):
                net = item.compile()
            _count_net(net, tr)
            # through the module attribute, so the traced run's search
            # wrapper sees the call
            result = dfs.search(net, self.config)
            return compare(self.stored[key], *_observed(result))
        model, net = _compose_compile(item, tr)
        with tr.span("scheduler.find_schedule"):
            result = find_schedule(model, self.config)
        problem = compare(self.stored[key], *_observed(result))
        if problem or not result.feasible:
            return problem
        return _feasible_tail(
            model, net, result, self.config, tr, generate=False, replay=False
        )


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
class CliCold(_Workload):
    """Cold ``ezrt simulate``/``ezrt codegen`` processes, one at a time."""

    name = "cli-cold"

    def __init__(self, answers, seed):
        super().__init__(answers, seed)
        self.stored = answers["cli"]
        self.out = os.path.join(common.WORK, "cli")
        self.spans_path = os.path.join(common.WORK, "cli-spans.json")
        #: largest peak RSS of any request's process
        self.peak_rss = 0.0
        #: generated C bytes per case study, as observed
        self.code_bytes: dict[str, int] = {}

    def setup(self) -> list[float]:
        return common.cold_seconds(
            common.EZRT + ["examples"], SETUP_REPEATS, self.speed
        )

    def items(self):
        return inputs.cli_rounds(self.rng)

    def run(self, seconds: float, tracer=None) -> RunResult:
        result = super().run(seconds, tracer)
        result.notes["code_bytes"] = sum(self.code_bytes.values())
        return result

    @staticmethod
    def install(tracer, patches) -> None:
        return None  # the traced side runs the CLI under the shim

    def peak_rss_mb(self) -> float:
        return self.peak_rss

    def handle(self, item, tr):
        command, case = item
        out = os.path.join(self.out, case)
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, f"@{case}"]
        if command == "codegen":
            argv += ["-o", out]
        if tr.enabled:
            cmd = [sys.executable, SHIM, "--spans", self.spans_path, *argv]
        else:
            cmd = common.EZRT + argv
        spawned = common.now_ns()
        with tr.span("process"):
            proc = common.run_checked(cmd)
        self.peak_rss = max(self.peak_rss, proc.peak_rss_mb)
        if tr.enabled and proc.returncode == 0:
            self._adopt(tr, spawned)
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        with tr.span("verify"):
            return self._verify(command, case, out, proc.stdout)

    def _adopt(self, tr, spawned) -> None:
        with open(self.spans_path, encoding="utf-8") as fh:
            dumped = json.load(fh)
        process = next(s for s in reversed(tr.spans) if s.name == "process")
        # interpreter start before the shim's first line, and teardown
        # after its last one (one system-wide monotonic clock)
        tr.record("process.start", spawned, dumped["started"], process)
        tr.record("process.exit", dumped["finished"], process.end, process)
        tr.adopt(dumped["spans"], process, "ezrt")
        for counters in dumped["counters"].values():
            for name, value in counters.items():
                tr.count(name, value)

    def _verify(self, command, case, out, stdout) -> str | None:
        answer = self.stored[case]
        if command == "simulate":
            if common.digest(stdout) != answer["simulate_stdout"]:
                return f"simulate output differs: {stdout.strip()[-200:]!r}"
            return None
        files = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        if common.digest(files) != answer["codegen_files"]:
            return "generated project differs from the stored digest"
        self.code_bytes[case] = common.c_bytes(files)
        return None


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
class _Server:
    """One ``ezrt serve`` process (memory cache, pool of ≤ nproc)."""

    def __init__(self, traced_spans: str | None = None):
        jobs = str(min(2, os.cpu_count() or 1))
        argv = ["serve", "--port", "0", "--jobs", jobs, "--timeout", "120"]
        if traced_spans:
            cmd = [sys.executable, SHIM, "--spans", traced_spans, *argv]
        else:
            cmd = common.EZRT + argv
        started = time.perf_counter()
        # its own process group: stop() can then reap the pool workers
        # too if the server itself hangs
        self.proc = subprocess.Popen(
            cmd,
            env=common.child_env(),
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.stop_timeouts = 0
        self.base = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                self.base = line.strip().rsplit(" ", 1)[-1]
                break
        if self.base is None:
            self.stop()
            raise RuntimeError("ezrt serve never printed its ready line")
        self.ready_seconds = time.perf_counter() - started
        hostport = self.base.split("//", 1)[1].rstrip("/")
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=180)

    def metrics(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain, pool reaped), then SIGKILL to the
        whole process group if the server has not exited in time, so no
        pool worker outlives a run."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_SECONDS)
            except subprocess.TimeoutExpired:
                self.stop_timeouts += 1
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


class ServiceMix(_Workload):
    """``ezrt serve`` under a two-thread closed-loop HTTP client."""

    name = "service-mix"
    CLIENTS = 2

    def __init__(self, answers, seed):
        super().__init__(answers, seed)
        common.use_src()
        from repro.scheduler import SchedulerConfig

        self.config = SchedulerConfig()
        self.stored = answers["service"]
        self.server = None
        #: servers that ignored SIGTERM for STOP_SECONDS (then killed)
        self.stop_timeouts = 0
        self.spans_path = os.path.join(common.WORK, "server-spans.json")
        self._bodies: dict = {}
        self._nets: dict = {}
        self._lock = threading.Lock()

    def setup(self) -> list[float]:
        times = []
        for index in range(SERVICE_SETUP_REPEATS):
            server = _Server()
            times.append(server.ready_seconds)
            self.speed.probe(common.SETUP_PROBES)
            if index < SERVICE_SETUP_REPEATS - 1:
                self._stop(server)
        self.server = server
        return times

    def _stop(self, server) -> None:
        server.stop()
        self.stop_timeouts += server.stop_timeouts

    def close(self) -> None:
        if self.server is not None:
            self._stop(self.server)
            self.server = None

    def findings(self) -> list[str]:
        if not self.stop_timeouts:
            return []
        return [
            f"ezrt serve ignored SIGTERM for {STOP_SECONDS} s "
            f"{self.stop_timeouts} time(s) and was killed with its pool"
        ]

    def _body(self, key) -> bytes:
        body = self._bodies.get(key)
        if body is None:
            from repro.spec.jsonio import spec_to_json

            doc = {"spec": spec_to_json(inputs.service_spec(key))}
            body = self._bodies[key] = json.dumps(doc).encode("utf-8")
        return body

    def _net(self, key):
        net = self._nets.get(key)
        if net is None:
            from repro.blocks import compose

            net = self._nets[key] = compose(inputs.service_spec(key)).compiled()
        return net

    def _request(self, conn, key, tr, dispositions) -> str | None:
        from perfbench.answers import error_codes
        from repro.scheduler.parallel import validate_with_reference

        body = self._body(key)
        with tr.span("service.submit"):
            conn.request(
                "POST", "/jobs", body, {"content-type": "application/json"}
            )
            response = conn.getresponse()
            payload = response.read()
        stored = self.stored[key]
        if response.status == 422 and stored["verdict"] == "rejected":
            # the lint gate's refusal is this spec's correct answer
            codes = error_codes(json.loads(payload).get("diagnostics", []))
            with self._lock:
                dispositions["refused"] = dispositions.get("refused", 0) + 1
            if codes != stored["codes"]:
                return f"422 names {codes}, stored {stored['codes']}"
            return None
        if response.status != 201:
            return f"POST /jobs answered {response.status}: {payload[:200]!r}"
        job = json.loads(payload)
        with self._lock:  # two client threads count into one dict
            dispositions[job["disposition"]] = (
                dispositions.get(job["disposition"], 0) + 1
            )
        if job["state"] != "done":
            with tr.span("service.wait"):
                problem = self._wait_done(job["links"]["events"])
            if problem:
                return problem
        with tr.span("service.fetch"):
            conn.request("GET", job["links"]["result"])
            response = conn.getresponse()
            payload = response.read()
        if response.status != 200:
            return f"GET result answered {response.status}"
        outcome = json.loads(payload)
        if outcome["status"] not in ("feasible", "infeasible"):
            return f"job ended {outcome['status']}: {outcome.get('error')}"
        schedule = outcome.get("firing_schedule") or []
        verdict = outcome["status"]
        if outcome.get("exhausted"):
            verdict = "budget"
        problem = compare(
            stored,
            verdict,
            outcome["search"]["states_visited"],
            common.schedule_digest(schedule) if outcome["feasible"] else None,
        )
        if problem or not outcome["feasible"]:
            return problem
        with tr.span("sim.replay"):
            validate_with_reference(
                self._net(key),
                self.config,
                [tuple(row) for row in schedule],
            )
        return None

    def _wait_done(self, events_path) -> str | None:
        conn = self.server.connect()
        try:
            conn.request("GET", events_path)
            response = conn.getresponse()
            while True:
                line = response.readline()
                if not line:
                    return "event stream closed before the done event"
                if line.startswith(b"event: done"):
                    return None
        finally:
            conn.close()

    def _client(
        self, stream, deadline, result, tr, dispositions, order, probing
    ):
        conn = self.server.connect()
        try:
            while time.perf_counter() < deadline:
                with self._lock:
                    index, key = next(stream)
                # input preparation is not part of the request
                self._body(key)
                with tr.request(index):
                    started = time.perf_counter()
                    try:
                        problem = self._request(conn, key, tr, dispositions)
                    except Exception as exc:
                        problem = f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = self.server.connect()
                    seconds = time.perf_counter() - started
                spent = self.speed.probe()
                with self._lock:
                    result.add(key, seconds, problem)
                    order.append((index, seconds))
                    probing[0] += spent
        finally:
            conn.close()

    def _drive(self, seconds, tr) -> tuple[RunResult, list]:
        """Run both client threads for ``seconds``; returns the result and
        the ``(stream index, seconds)`` of every request."""
        result = RunResult()
        dispositions: dict = {}
        order: list = []
        probing = [0.0]
        cost = {key: answer["visited"] for key, answer in self.stored.items()}
        stream = enumerate(
            inputs.service_stream(sorted(self.stored), cost, self.rng)
        )
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=self._client,
                args=(
                    stream, deadline, result, tr, dispositions, order, probing
                ),
            )
            for _ in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # each client's probes leave that client's share of the run
        result.elapsed = (
            time.perf_counter() - started - probing[0] / self.CLIENTS
        )
        result.peak_rss_mb = common.tree_peak_rss_mb(self.server.proc.pid)
        reads = dispositions.get("cached", 0) + dispositions.get(
            "deduplicated", 0
        )
        result.notes["dispositions"] = dispositions
        jobs = sum(dispositions.values()) - dispositions.get("refused", 0)
        result.notes["cached_share"] = reads / max(1, jobs)
        counters = self.server.metrics().get("counters", {})
        result.notes["computes"] = counters.get("bridge.computed", 0)
        return result, order

    def run(self, seconds: float, tracer=None) -> RunResult:
        state = self.rng.getstate()
        if tracer is None:
            return self._drive(seconds, NULL)[0]
        # traced run: the same request stream against a plain server and
        # then against a fresh traced one, half the time each (a cached
        # spec cannot be sent twice to one server as the same request)
        plain, plain_order = self._drive(seconds / 2, NULL)
        self._stop(self.server)
        self.server = _Server(traced_spans=self.spans_path)
        self.rng.setstate(state)
        result, traced_order = self._drive(seconds / 2, tracer)
        self._stop(self.server)
        with open(self.spans_path, encoding="utf-8") as fh:
            tracer.adopt(json.load(fh)["spans"], None, "ezrt serve")
        self.server = None
        plain_by = dict(plain_order)
        result.pairs = [
            (plain_by[index], seconds)
            for index, seconds in traced_order
            if index in plain_by
        ]
        result.elapsed += plain.elapsed
        return result


WORKLOADS = {
    cls.name: cls for cls in (CliCold, SearchGrid, DenseClasses, ServiceMix)
}
