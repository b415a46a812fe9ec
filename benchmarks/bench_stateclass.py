"""Experiment SC1 — dense-time state-class engine vs discrete search.

Acceptance benchmark of ``PreRuntimeScheduler(engine="stateclass")``.
Two properties are measured and gated:

1. **States-explored reduction on the wide-interval family**
   (:func:`repro.workloads.wide_interval_family`): jobs released
   within wide windows ``[o, o + width]`` competing for one processor,
   with an unreachable final marking so both engines must sweep their
   entire space (an exhaustive refutation — the state counts are then
   directly comparable).  The complete discrete search
   (``engine="incremental"``, ``delay_mode="full"``) visits one state
   per integer clock valuation, growing with ``width``; the class
   graph covers a whole window with one DBM and stays
   width-independent.  The gate asserts a
   :data:`MIN_STATES_REDUCTION`× reduction on every family member.

2. **Verdict equivalence on the paper models**: the dense engine must
   return the serial discrete verdict on every paper case study, and
   every feasible dense schedule is concretised to integer firing
   times and replayed through the checked reference engine (the
   replay runs inside the engine — a divergence raises instead of
   returning).

Results land in ``BENCH_stateclass.json`` at the repository root; CI
uploads it as an artifact, so the reduction trajectory is tracked PR
over PR.
"""

from __future__ import annotations

import json
import os
import platform

from repro.blocks import compose
from repro.scheduler import SchedulerConfig, find_schedule
from repro.scheduler.dfs import search
from repro.spec import (
    fig3_precedence,
    fig4_exclusion,
    fig8_preemptive,
    mine_pump,
)
from repro.workloads import wide_interval_family, wide_interval_job_net

#: Acceptance gate (ISSUE 4): on every wide-interval family member the
#: state-class engine must explore at least this factor fewer states
#: than the complete discrete search.  Measured 2.7-5.2x at widths
#: 4-8; 2.0 is the floor the issue demands.
MIN_STATES_REDUCTION = 2.0

WIDTHS = (4, 6, 8)

JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_stateclass.json"
)


def _wide_interval_rows():
    """Exhaustive refutations: full state-space sizes, both engines."""
    rows = []
    for label, net in wide_interval_family(widths=WIDTHS):
        compiled = net.compile()
        dense = search(compiled, SchedulerConfig(engine="stateclass"))
        discrete = search(
            compiled,
            SchedulerConfig(engine="incremental", delay_mode="full"),
        )
        assert not dense.feasible and not dense.exhausted, (
            f"{label}: dense refutation did not complete"
        )
        assert not discrete.feasible and not discrete.exhausted, (
            f"{label}: discrete refutation did not complete"
        )
        rows.append(
            {
                "model": label,
                "dense_states": dense.stats.states_visited,
                "discrete_states": discrete.stats.states_visited,
                "reduction": (
                    discrete.stats.states_visited
                    / dense.stats.states_visited
                ),
            }
        )
    return rows


def _paper_model_rows():
    """Verdict parity + reference replay on the paper case studies."""
    rows = []
    for spec in (
        fig3_precedence(),
        fig4_exclusion(),
        fig8_preemptive(),
        mine_pump(),
    ):
        model = compose(spec)
        dense = find_schedule(
            model, SchedulerConfig(engine="stateclass")
        )
        discrete = find_schedule(
            model, SchedulerConfig(engine="incremental")
        )
        assert dense.feasible == discrete.feasible, (
            f"{spec.name}: dense verdict diverged from discrete"
        )
        rows.append(
            {
                "model": spec.name,
                "feasible": dense.feasible,
                "dense_states": dense.stats.states_visited,
                "discrete_states": discrete.stats.states_visited,
                "makespan": dense.makespan,
                "windows": len(dense.interval_schedule or []),
            }
        )
    return rows


def test_stateclass_engine(report):
    wide = _wide_interval_rows()
    paper = _paper_model_rows()

    # a feasible family member exercises concretisation end to end
    feasible_net = wide_interval_job_net(feasible=True).compile()
    feasible = search(
        feasible_net, SchedulerConfig(engine="stateclass")
    )
    assert feasible.feasible and feasible.interval_schedule

    worst = min(row["reduction"] for row in wide)
    payload = {
        "bench": "stateclass",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "min_states_reduction": MIN_STATES_REDUCTION,
        "worst_reduction": worst,
        "target_met": worst >= MIN_STATES_REDUCTION,
        "wide_interval": wide,
        "paper_models": paper,
    }
    with open(os.path.abspath(JSON_PATH), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for row in wide:
        report(
            "SC1",
            f"{row['model']} states dense/discrete",
            f">= {MIN_STATES_REDUCTION}x fewer",
            f"{row['dense_states']}/{row['discrete_states']} "
            f"({row['reduction']:.1f}x)",
        )
    for row in paper:
        report(
            "SC1",
            f"{row['model']} verdict parity",
            "feasible" if row["feasible"] else "infeasible",
            f"ok ({row['dense_states']} classes)",
        )

    # -- gates --------------------------------------------------------
    for row in wide:
        assert row["reduction"] >= MIN_STATES_REDUCTION, (
            f"{row['model']}: dense search explored only "
            f"{row['reduction']:.2f}x fewer states than the complete "
            "discrete search"
        )


def test_json_artifact_shape(report):
    """The emitted artifact stays machine-readable across PRs."""
    if not os.path.exists(os.path.abspath(JSON_PATH)):
        test_stateclass_engine(report)
    with open(os.path.abspath(JSON_PATH), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["bench"] == "stateclass"
    assert payload["wide_interval"], "empty wide-interval sweep"
    for row in payload["wide_interval"]:
        assert row["dense_states"] > 0
        assert row["discrete_states"] > 0
    assert payload["paper_models"], "empty paper-model sweep"
