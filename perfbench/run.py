"""The synthesis-pipeline benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loops; ``BENCHMARK.json`` says why each exists,
``perfbench/predictions.json`` which layer metric should move which
end-to-end metric where):

* ``cli-cold`` — one client running cold ``ezrt simulate @m`` and
  ``ezrt codegen @m`` processes in turn over the four case studies;
* ``search-grid`` — in-process compose → compile → ``find_schedule``
  (default engine, fixed ``max_states``) → extract → C → simulate →
  verify over seeded random task sets;
* ``dense-classes`` — the same loop on ``engine="stateclass"`` over
  wide-interval race nets, a feasible job net and the case studies;
* ``service-mix`` — ``ezrt serve`` with a two-thread HTTP client,
  about 40 % repeated specs.

A run first compiles bytecode and builds or loads the native cores
(not timed), then measures set-up several times, then runs the
workload for ``--seconds``.  Every verdict, ``states_visited`` count
and schedule digest is checked against ``perfbench/answers.json``
(produced by other engines, see :mod:`perfbench.answers`).

End-to-end times are reported in reference-host seconds: the shared
machines this runs on drift in speed, so a fixed loop is timed between
requests and between set-up samples, and every time is scaled by its
median (see :class:`perfbench.common.HostSpeed`); the report prints
the unscaled figures beside them.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` each request runs untraced and traced (see
:mod:`perfbench.tracing`) and the last line holds the per-layer
metrics, including the tracing overhead and the share of request time
no span covers; a Chrome trace is written under ``.perfbench_work/``.
The lines before it are a human-readable report; every run also
writes a result set, with its environment, under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from perfbench import common  # noqa: E402

WORKLOAD_NAMES = ("cli-cold", "search-grid", "dense-classes", "service-mix")
IMPORT_REPEATS = 5


def load_definition() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(setup: list[float], result, scale: float) -> dict[str, float]:
    """The end-to-end metrics, times multiplied by the run's host-speed
    ``scale`` (:class:`perfbench.common.HostSpeed`); a scale of 1.0
    gives them as measured on this host."""
    latencies = result.latencies or [0.0]
    return {
        "setup_s": statistics.median(setup) * scale,
        "latency_p50_s": common.quantile(latencies, 0.5) * scale,
        "latency_p90_s": common.quantile(latencies, 0.9) * scale,
        "throughput_rps": len(result.latencies) / (result.elapsed * scale),
        "peak_rss_mb": result.peak_rss_mb,
    }


_IMPORTS = (
    "import time; t0 = time.perf_counter(); import repro; "
    "t1 = time.perf_counter(); import repro.cli; "
    "print(t1 - t0, time.perf_counter() - t1)"
)


def import_layers() -> dict[str, float]:
    """Interpreter start (cold ``python -c pass``) and the package
    imports, timed inside cold processes."""
    interpreter = common.cold_seconds(
        [sys.executable, "-c", "pass"], IMPORT_REPEATS
    )
    repro_s, cli_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = common.run_checked([sys.executable, "-c", _IMPORTS])
        first, second = proc.stdout.split()
        repro_s.append(float(first))
        cli_s.append(float(second))
    return {
        "import.interpreter_s": statistics.median(interpreter),
        "import.repro_s": statistics.median(repro_s),
        "import.cli_s": statistics.median(cli_s),
    }


def traced_metrics(tracer, result) -> dict[str, float]:
    from perfbench import tracing

    metrics = tracing.layer_metrics(tracer, len(result.pairs))
    metrics.update(import_layers())
    plain = sum(p for p, _t in result.pairs)
    traced = sum(t for _p, t in result.pairs)
    metrics["trace.requests"] = len(result.pairs)
    metrics["trace.overhead_s"] = (traced - plain) / max(1, len(result.pairs))
    metrics["trace.overhead_share"] = traced / plain - 1.0 if plain else 0.0
    metrics["service.cached_share"] = result.notes.get("cached_share", 0.0)
    metrics["batch.computes"] = result.notes.get("computes", 0.0) / max(
        1, len(result.pairs)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.check_program()
        definition = load_definition()
    except (common.ProgramMissing, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    common.prepare_dirs()
    env = common.warm_up()

    from perfbench import answers, tracing, workloads

    workload = workloads.WORKLOADS[args.workload](answers.load(), args.seed)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup = workload.setup()
        result = workload.run(args.seconds, tracer)
    finally:
        workload.close()

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    scale = workload.speed.scale()
    raw = end_to_end(setup, result, 1.0)
    if args.trace:
        values = traced_metrics(tracer, result)
    else:
        values = end_to_end(setup, result, scale)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }

    failed = len(result.failures)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "env: " + json.dumps(env, sort_keys=True),
        f"requests: {result.attempted} attempted, {failed} failed, "
        f"failed_share={failed / max(1, result.attempted):.4f}, "
        f"latency samples={len(result.latencies)}, "
        f"set-up samples={len(setup)}",
    ]
    if not args.trace:
        lines.append(
            f"host speed: scale {scale:.4f} from "
            f"{len(workload.speed.samples)} probes; times below are in "
            "reference-host seconds, as measured in brackets"
        )
    for name, metric in metrics.items():
        note = ""
        if not args.trace and raw[name] != metric["value"]:
            note = f"  [raw {raw[name]:.6g}]"
        lines.append(
            f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}{note}"
        )
    if "code_bytes" in result.notes:
        lines.append(
            f"  {'code_bytes':<32} {result.notes['code_bytes']:>14} B "
            "(generated C of the four case studies)"
        )
    if "dispositions" in result.notes:
        lines.append(f"  dispositions: {result.notes['dispositions']}")
    if args.trace:
        trace_path = os.path.join(common.WORK, "traces", f"{tag}.json")
        tracing.write_chrome_trace(tracer.spans, trace_path, args.workload)
        lines.append("layers (traced requests):")
        lines += tracing.format_layer_table(tracer.spans, len(result.pairs))
        lines.append(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
    for failure in result.failures:
        lines.append(f"FAILED {failure}")
    for finding in workload.findings():
        lines.append(f"finding: {finding}")
    if failed:
        lines.append(
            f"finding: {failed} of {result.attempted} requests failed "
            f"on {args.workload}"
        )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": result.attempted,
        "failed": failed,
        "failures": result.failures,
        "notes": result.notes,
        "setup_samples": setup,
        "latency_samples": len(result.latencies),
        "host_speed_scale": scale,
        "raw": raw,
        "metrics": metrics,
    }
    results_dir = os.path.join(common.WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
