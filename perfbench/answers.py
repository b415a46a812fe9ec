"""Stored answers, produced by engines other than the ones under test.

``answers.json`` holds, for every pool member a workload can send:

* discrete inputs (``search-grid``, ``service-mix``, ``cli-cold``):
  the verdict, ``states_visited`` and firing-schedule digest of the
  **reference** engine (the checked dense-rescan
  :class:`~repro.tpn.state.StateEngine`), while the workloads run the
  default engine;
* dense inputs (``dense-classes``): the same three fields from the
  legacy tuple :class:`~repro.tpn.stateclass.StateClassEngine` (the
  executable spec of the packed DBM engine the workload runs);
* a spec the reference run refuses at its lint gate (verdict
  ``rejected``): the codes of the error findings, which the service's
  ``422`` refusal must name;
* ``cli-cold``: the exact ``ezrt simulate`` output and the digest and
  C byte count of the ``ezrt codegen`` project, derived from the
  reference engine's schedule.

Regenerate (only when the pools in :mod:`perfbench.inputs` change)::

    python3 perfbench/answers.py

A benchmark run never regenerates answers: a mismatch is a failed
request, reported per request.
"""

from __future__ import annotations

import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from perfbench import common, inputs  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verdict_of(result) -> str:
    if result.feasible:
        return "feasible"
    if result.exhausted:
        return "budget"
    if result.diagnostics and result.stats.states_visited == 0:
        return "rejected"
    return "infeasible"


def error_codes(diagnostics) -> list[str]:
    """Sorted codes of the error-severity lint findings."""
    return sorted({d["code"] for d in diagnostics if d["severity"] == "error"})


def answer_of(result) -> dict:
    answer = {
        "verdict": verdict_of(result),
        "visited": result.stats.states_visited,
        "digest": (
            common.schedule_digest(result.firing_schedule)
            if result.feasible
            else None
        ),
    }
    if answer["verdict"] == "rejected":
        # the lint findings a refusal must name
        answer["codes"] = error_codes(d.to_dict() for d in result.diagnostics)
    return answer


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _tuple_adapter_class():
    """Adapter running the legacy tuple state-class engine in the
    shared search loop (the packed adapter's concretisation and
    reference replay are inherited unchanged).

    ``benchmarks/bench_dbm.py`` holds the same adapter; this copy keeps
    the benchmark within its own directory, and the answers
    reproducible once that bench script is retired."""
    from repro.scheduler.core import (
        DISABLED,
        StateClassAdapter,
        _AdapterBase,
        _DenseView,
    )
    from repro.tpn.stateclass import StateClassEngine

    class TupleStateClassAdapter(StateClassAdapter):
        name = "stateclass-tuple"

        def __init__(self, net, config):
            _AdapterBase.__init__(self, net, config)
            self.engine = StateClassEngine(
                net, reset_policy=config.reset_policy
            )

        def root(self):
            return self.engine.initial_class(), 0

        def state_key(self, cls):
            return hash(cls)

        def successor(self, cls, transition, _delay):
            return self.engine.try_fire(cls, transition)

        def candidates_of(self, cls, stats):
            dbm = cls.dbm
            size = len(cls.enabled) + 1
            cands = []
            for var, t in enumerate(cls.enabled, start=1):
                if t in self._miss:
                    continue
                if all(dbm[u][var] >= 0 for u in range(1, size)):
                    cands.append((t, int(-dbm[0][var])))
            if not cands:
                return cands
            priority = self._priority
            if self._strict:
                best = min(priority[t] for t, _ in cands)
                cands = [(t, lo) for t, lo in cands if priority[t] == best]
            if self._partial_order and len(cands) > 1:
                forced = self._forced(cls, cands)
                if forced is not None:
                    stats.reductions += 1
                    return [forced]
            if len(cands) == 1:
                return cands
            return [
                (t, lo)
                for lo, _p, t in sorted(
                    (lo, priority[t], t) for t, lo in cands
                )
            ]

        def _forced(self, cls, cands):
            enabled = set(cls.enabled)
            for t, lower in cands:
                if lower != 0 or not self.net.conflict_free[t]:
                    continue
                var = cls.enabled.index(t) + 1
                if cls.dbm[var][0] != 0:
                    continue
                if not any(
                    other in enabled for other in self.net.post_conflicts[t]
                ):
                    return (t, 0)
            return None

        def clocks_view(self, cls):
            clocks = [DISABLED] * self.net.num_transitions
            for var, t in enumerate(cls.enabled, start=1):
                elapsed = self._eft[t] + int(cls.dbm[0][var])
                clocks[t] = max(elapsed, 0)
            return _DenseView(tuple(clocks))

    return TupleStateClassAdapter


def tuple_stateclass_search(net):
    from repro.scheduler import PreRuntimeScheduler, SchedulerConfig

    scheduler = PreRuntimeScheduler(
        net, SchedulerConfig(engine="stateclass")
    )
    scheduler.adapter = _tuple_adapter_class()(net, scheduler.config)
    return scheduler.search()


def reference_answer(spec, max_states: int | None) -> dict:
    from repro.blocks import compose
    from repro.scheduler import SchedulerConfig, find_schedule

    config = (
        SchedulerConfig()
        if max_states is None
        else SchedulerConfig(max_states=max_states)
    )
    return answer_of(find_schedule(compose(spec), config, engine="reference"))


def _grid(key):
    return key, reference_answer(inputs.grid_spec(key), inputs.GRID_MAX_STATES)


def _service(key):
    return key, reference_answer(inputs.service_spec(key), None)


def _dense(key):
    from repro.blocks import compose

    kind, item = inputs.dense_input(key)
    net = compose(item).compiled() if kind == "spec" else item.compile()
    return key, answer_of(tuple_stateclass_search(net))


def _cli(case):
    from repro.blocks import compose
    from repro.codegen import generate_project
    from repro.scheduler import SchedulerConfig, find_schedule, schedule_from_result
    from repro.sim import run_schedule, verify_trace
    from repro.spec import paper_examples

    model = compose(paper_examples()[case])
    result = find_schedule(model, SchedulerConfig(), engine="reference")
    schedule = schedule_from_result(model, result)
    machine = run_schedule(model, schedule, dispatch_overhead=0)
    if verify_trace(model, machine):
        raise RuntimeError(f"{case}: reference schedule fails verification")
    stdout = (
        f"{machine.trace.summary()}\ntrace verified: "
        f"{len(machine.completions)} instance completions, "
        "all constraints met\n"
    )
    project = generate_project(model, schedule, "hostsim")
    return case, {
        **answer_of(result),
        "simulate_stdout": common.digest(stdout),
        "codegen_files": common.digest(project.files),
        "code_bytes": common.c_bytes(project.files),
    }


def generate() -> dict:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    answers = {
        "oracles": {
            "discrete": "reference",
            "dense": "legacy tuple StateClassEngine",
        },
        "grid_max_states": inputs.GRID_MAX_STATES,
    }
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        for section, func, keys in (
            ("cli", _cli, list(inputs.CASES)),
            ("dense", _dense, inputs.dense_keys()),
            ("grid", _grid, inputs.grid_keys()),
            ("service", _service, inputs.service_keys()),
        ):
            answers[section] = dict(pool.map(func, keys, chunksize=4))
            print(f"{section}: {len(keys)} answers", flush=True)
    return answers


def main() -> int:
    common.use_src()
    common.prepare_dirs()
    answers = generate()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
