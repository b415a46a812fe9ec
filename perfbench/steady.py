"""Steadiness mode and result-set comparison.

Run one workload repeatedly, each time with another seed, and print
for every end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them) against the metric's
bound from ``BENCHMARK.json``::

    python3 perfbench/steady.py run --workload search-grid --runs 10
    python3 perfbench/steady.py run --workload all --runs 10 --first-seed 101

Each workload's runs are saved as one result set (with the
environment) under ``.perfbench_work/steady/``.  Compare two result sets
of the same workload::

    python3 perfbench/steady.py compare BASE.json NEW.json

``compare`` refuses (exit 3) when the two sets differ in native-core
status (a failed cffi build reads as a 2-4x regression otherwise) and
exits 1 when the new set fails a larger share of its requests (failed
requests leave the latency samples, so its timings are not judged) or
a metric's median got worse by more than its bound.  Every metric,
``setup_s`` included, is marked unresolved when the base set's spread
is wider than its bound.

Timings are in reference-host seconds (see
:class:`perfbench.common.HostSpeed`); the summary also prints each
metric's raw median and spread as measured on this host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from perfbench import common  # noqa: E402
from perfbench.run import WORKLOAD_NAMES, load_definition  # noqa: E402


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{seconds:g}",
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            + proc.stderr.strip()[-1000:]
        )
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    # the run's record holds what is not an end-to-end metric
    record_path = os.path.join(
        common.WORK, "results", f"{workload}-seed{seed}-trace0.json"
    )
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    run["latency_samples"] = record["latency_samples"]
    run["raw"] = record["raw"]
    run["host_speed_scale"] = record["host_speed_scale"]
    if "code_bytes" in record["notes"]:
        run["code_bytes"] = record["notes"]["code_bytes"]
    return record["env"], run


def summarize(result_set: dict, definition: dict) -> list[str]:
    lines = [
        f"{result_set['workload']}: {len(result_set['runs'])} runs, seeds "
        f"{result_set['seeds'][0]}..{result_set['seeds'][-1]}, "
        f"env {json.dumps(result_set['env'], sort_keys=True)}",
        f"  {'metric':<16} {'unit':<5} {'median':>11} {'q1':>11} "
        f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict"
        "  (raw: median, spread)",
    ]
    attempted = sum(run["attempted"] for run in result_set["runs"])
    failed = sum(run["failed"] for run in result_set["runs"])
    for metric in definition["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in result_set["runs"]]
        middle, q1, q3, share = spread(values)
        bound = metric["bound"]
        if share <= bound / 3:
            verdict = "steady (< bound/3)"
        elif share <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        raw_middle, _q1, _q3, raw_share = spread(
            [run["raw"][name] for run in result_set["runs"]]
        )
        lines.append(
            f"  {name:<16} {metric['unit']:<5} {middle:>11.5g} {q1:>11.5g} "
            f"{q3:>11.5g} {share:>7.3f} {bound:>6.2f}  {verdict:<18}"
            f"  ({raw_middle:.5g}, {raw_share:.3f})"
        )
    samples = [run.get("latency_samples", 0) for run in result_set["runs"]]
    lines.append(
        f"  requests: {attempted} attempted, {failed} failed "
        f"(failed_share {failed / max(1, attempted):.4f}); latency samples "
        f"per run {min(samples)}-{max(samples)}"
    )
    scales = [run["host_speed_scale"] for run in result_set["runs"]]
    lines.append(f"  host-speed scale {min(scales):.3f}-{max(scales):.3f}")
    code_bytes = {
        run["code_bytes"] for run in result_set["runs"] if "code_bytes" in run
    }
    if code_bytes:
        lines.append(f"  code_bytes: {sorted(code_bytes)} B")
    return lines


def cmd_run(args, definition) -> int:
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    seconds = args.seconds or definition["run_seconds"]
    out_dir = os.path.join(common.WORK, "steady")
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs, envs = [], []
        for seed in seeds:
            env, run = run_once(name, seed, seconds)
            envs.append(env)
            runs.append(run)
            print(f"  {name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in run["metrics"].items()
            ), flush=True)
        if len({common.core_status(env) for env in envs}) != 1:
            print(f"{name}: native-core status changed between runs; "
                  "refusing to summarize", file=sys.stderr)
            return 3
        result_set = {
            "workload": name,
            "seconds": seconds,
            "seeds": seeds,
            "env": envs[0],
            "runs": runs,
        }
        path = os.path.join(out_dir, f"{name}-seeds{seeds[0]}-{seeds[-1]}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result_set, fh, indent=1, sort_keys=True)
        print("\n".join(summarize(result_set, definition)))
        print(f"  result set: {os.path.relpath(path, ROOT)}", flush=True)
    return 0


def cmd_compare(args, definition) -> int:
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    if base["workload"] != new["workload"]:
        print("refusing: the result sets are of different workloads",
              file=sys.stderr)
        return 3
    if common.core_status(base["env"]) != common.core_status(new["env"]):
        print(
            "refusing: native-core status differs "
            f"({common.core_status(base['env'])} vs "
            f"{common.core_status(new['env'])})",
            file=sys.stderr,
        )
        return 3
    worse_any = False
    print(f"{base['workload']}: base {args.base} vs new {args.new}")
    shares = []
    for label, result_set in (("base", base), ("new", new)):
        attempted = sum(run["attempted"] for run in result_set["runs"])
        failed = sum(run["failed"] for run in result_set["runs"])
        shares.append(failed / max(1, attempted))
        print(f"  {label}: {attempted} attempted, {failed} failed "
              f"(failed_share {shares[-1]:.4f})")
    if shares[1] > shares[0]:
        # a request that fails fast leaves the latency samples, so no
        # timing of the new set can count as no worse
        print("  FAILED MORE: the new set fails a larger share of its "
              "requests; no metric is judged")
        return 1
    for metric in definition["end_to_end"]:
        name = metric["name"]
        before = [r["metrics"][name]["value"] for r in base["runs"]]
        after = [r["metrics"][name]["value"] for r in new["runs"]]
        b_mid, _bq1, _bq3, b_spread = spread(before)
        a_mid, _aq1, _aq3, _a_spread = spread(after)
        change = (a_mid - b_mid) / b_mid
        worse = change if metric["better"] == "lower" else -change
        if worse > metric["bound"]:
            verdict = "REGRESSION"
            worse_any = True
        elif b_spread > metric["bound"]:
            verdict = "unresolved (base spread wider than bound)"
        elif -worse > b_spread:
            verdict = "better"
        else:
            verdict = "no change within bound"
        print(f"  {name:<16} {b_mid:>11.5g} -> {a_mid:>11.5g} "
              f"({change:+.3f}, bound {metric['bound']:.2f})  {verdict}")
    return 1 if worse_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="repeat a workload over seeds")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    definition = load_definition()
    if args.command == "run":
        return cmd_run(args, definition)
    return cmd_compare(args, definition)


if __name__ == "__main__":
    sys.exit(main())
