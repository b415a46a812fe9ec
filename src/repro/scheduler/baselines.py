"""Runtime (priority-driven) scheduling baselines.

The motivation for pre-runtime scheduling — the approach ezRealtime
implements, following Mok [10] — is that priority-driven *runtime*
schedulers are work-conserving and decide online, so task sets whose
feasibility requires inserted idle time or non-greedy orderings
(typically in the presence of exclusion relations and non-preemptable
sections) are unschedulable for them even though a pre-runtime schedule
exists.  This module provides the classical comparators:

* :func:`simulate_runtime` — a discrete-time simulator for EDF
  (earliest absolute deadline first), DM (deadline monotonic) and RM
  (rate monotonic) dispatching, honouring per-task preemptive /
  non-preemptive execution, precedence, exclusion and message delays;
* :func:`mok_trap` — a two-task specification where every
  work-conserving runtime policy misses a deadline but the pre-runtime
  scheduler (with delayed releases) succeeds;
* :func:`rm_overload_pair` — the classical pair where fixed-priority
  dispatching misses and EDF meets all deadlines.

The benches in ``benchmarks/bench_baselines.py`` tabulate the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.scheduler.schedule import ExecutionSegment
from repro.spec.builder import SpecBuilder
from repro.spec.model import EzRTSpec
from repro.spec.timing import TaskInstance, expand_instances, schedule_period

RUNTIME_POLICIES = ("edf", "dm", "rm")


@dataclass(frozen=True)
class DeadlineMiss:
    """A missed deadline observed during a runtime simulation."""

    task: str
    instance: int
    deadline: int
    completion: int | None  # None: still unfinished at the horizon


@dataclass
class RuntimeOutcome:
    """Result of one runtime-scheduling simulation."""

    policy: str
    horizon: int
    segments: list[ExecutionSegment] = field(default_factory=list)
    misses: list[DeadlineMiss] = field(default_factory=list)
    response_times: dict[str, int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        """True when every instance met its deadline."""
        return not self.misses

    def summary(self) -> str:
        verdict = "all deadlines met" if self.feasible else (
            f"{len(self.misses)} deadline miss(es)"
        )
        worst = ", ".join(
            f"{task}={value}"
            for task, value in sorted(self.response_times.items())
        )
        return (
            f"{self.policy.upper():3s}: {verdict}; worst response "
            f"times: {worst}"
        )


@dataclass
class _Job:
    """Mutable per-instance simulation state."""

    instance: TaskInstance
    remaining: int
    started: bool = False
    finished_at: int | None = None
    segment_start: int | None = None


def simulate_runtime(
    spec: EzRTSpec,
    policy: str = "edf",
    horizon: int | None = None,
    miss_policy: str = "continue",
) -> RuntimeOutcome:
    """Simulate priority-driven dispatching over the schedule period.

    ``policy`` selects the priority rule: ``"edf"`` (dynamic, earliest
    absolute deadline), ``"dm"`` (static, smallest relative deadline) or
    ``"rm"`` (static, smallest period).  ``miss_policy`` chooses what
    happens after a miss: ``"continue"`` keeps executing the late
    instance (recording the miss), ``"abort"`` drops its remaining work.

    Semantics of the specification's relations:

    * a non-preemptive instance, once started, runs to completion;
    * an instance may not *start* while an instance of an excluded task
      has started and not finished (and vice versa — symmetric);
    * instance ``k`` of a task may not start before instance ``k`` of
      each predecessor task has finished; message-mediated precedence
      additionally delays readiness by the bus grant and communication
      times (an infinite-capacity bus — a simplification, adequate for
      baseline comparisons).
    """
    if policy not in RUNTIME_POLICIES:
        raise SchedulingError(
            f"unknown runtime policy {policy!r}; expected one of "
            f"{RUNTIME_POLICIES}"
        )
    if miss_policy not in ("continue", "abort"):
        raise SchedulingError(
            f"unknown miss policy {miss_policy!r}"
        )
    end = horizon if horizon is not None else schedule_period(spec)
    jobs = [
        _Job(instance=i, remaining=i.computation)
        for i in expand_instances(spec, horizon=end)
    ]
    by_key = {(j.instance.task, j.instance.index): j for j in jobs}
    tasks = {t.name: t for t in spec.tasks}
    exclusion: dict[str, set[str]] = {t.name: set() for t in spec.tasks}
    for a, b in spec.exclusion_pairs():
        exclusion[a].add(b)
        exclusion[b].add(a)
    predecessors: dict[str, list[str]] = {
        t.name: [] for t in spec.tasks
    }
    for before, after in spec.precedence_pairs():
        predecessors[after].append(before)
    message_delay: dict[str, list[tuple[str, int]]] = {
        t.name: [] for t in spec.tasks
    }
    for message in spec.messages:
        if message.sender and message.precedes:
            message_delay[message.precedes].append(
                (
                    message.sender,
                    message.grant_bus + message.communication,
                )
            )

    def priority_key(job: _Job) -> tuple:
        task = tasks[job.instance.task]
        if policy == "edf":
            primary = job.instance.deadline
        elif policy == "dm":
            primary = task.deadline
        else:
            primary = task.period
        return (primary, spec.tasks.index(task), job.instance.index)

    # frontier structures: only released, unfinished jobs are scanned
    # each tick (the dense per-tick loop dominated profiles otherwise)
    pending = sorted(jobs, key=lambda j: j.instance.release)
    pending_index = 0
    active: list[_Job] = []
    open_by_task: dict[str, int] = {t.name: 0 for t in spec.tasks}

    def ready(job: _Job, now: int) -> bool:
        if job.finished_at is not None or job.remaining <= 0:
            return False
        if job.instance.release > now:
            return False
        name = job.instance.task
        for before in predecessors[name]:
            pred = by_key.get((before, job.instance.index))
            if pred is None or pred.finished_at is None:
                return False
            if pred.finished_at > now:
                return False
        for sender, delay in message_delay[name]:
            pred = by_key.get((sender, job.instance.index))
            if pred is None or pred.finished_at is None:
                return False
            if pred.finished_at + delay > now:
                return False
        if not job.started:
            for partner in exclusion[name]:
                if open_by_task[partner]:
                    return False
        return True

    outcome = RuntimeOutcome(policy=policy, horizon=end)
    running: _Job | None = None
    raw_segments: list[ExecutionSegment] = []

    def close_segment(job: _Job, now: int) -> None:
        if job.segment_start is not None:
            raw_segments.append(
                ExecutionSegment(
                    job.instance.task,
                    job.instance.index,
                    job.segment_start,
                    now,
                )
            )
            job.segment_start = None

    for now in range(end):
        while (
            pending_index < len(pending)
            and pending[pending_index].instance.release <= now
        ):
            active.append(pending[pending_index])
            pending_index += 1
        # deadline accounting (misses recorded exactly once per job)
        for job in active:
            if (
                job.finished_at is None
                and job.remaining > 0
                and job.instance.deadline == now
            ):
                outcome.misses.append(
                    DeadlineMiss(
                        job.instance.task,
                        job.instance.index,
                        job.instance.deadline,
                        None,
                    )
                )
                if miss_policy == "abort":
                    if running is job:
                        close_segment(job, now)
                        running = None
                    job.remaining = 0
                    job.finished_at = now
                    if job.started:
                        open_by_task[job.instance.task] -= 1
                    active[:] = [
                        j for j in active if j.finished_at is None
                    ]

        candidates = [j for j in active if ready(j, now)]
        chosen: _Job | None = None
        if (
            running is not None
            and running.remaining > 0
            and not tasks[running.instance.task].is_preemptive
        ):
            chosen = running  # non-preemptive: runs to completion
        elif candidates:
            chosen = min(candidates, key=priority_key)
            if (
                running is not None
                and running.remaining > 0
                and running in candidates
                and priority_key(running) <= priority_key(chosen)
            ):
                chosen = running
        elif running is not None and running.remaining > 0:
            chosen = running if ready(running, now) else None

        if chosen is not running and running is not None:
            close_segment(running, now)
        if chosen is not None:
            if chosen.segment_start is None:
                chosen.segment_start = now
            if not chosen.started:
                chosen.started = True
                open_by_task[chosen.instance.task] += 1
            chosen.remaining -= 1
            if chosen.remaining == 0:
                chosen.finished_at = now + 1
                open_by_task[chosen.instance.task] -= 1
                active[:] = [
                    j for j in active if j.finished_at is None
                ]
                close_segment(chosen, now + 1)
                response = now + 1 - chosen.instance.arrival
                task = chosen.instance.task
                outcome.response_times[task] = max(
                    outcome.response_times.get(task, 0), response
                )
                if now + 1 > chosen.instance.deadline:
                    # late completion: fix up the recorded miss
                    for i, miss in enumerate(outcome.misses):
                        if (
                            miss.task == task
                            and miss.instance == chosen.instance.index
                            and miss.completion is None
                        ):
                            outcome.misses[i] = DeadlineMiss(
                                miss.task,
                                miss.instance,
                                miss.deadline,
                                now + 1,
                            )
                            break
                chosen = None
        running = chosen

    if running is not None:
        close_segment(running, end)
    for job in jobs:
        if job.finished_at is None and job.remaining > 0:
            already = any(
                m.task == job.instance.task
                and m.instance == job.instance.index
                for m in outcome.misses
            )
            if not already and job.instance.deadline >= end:
                outcome.misses.append(
                    DeadlineMiss(
                        job.instance.task,
                        job.instance.index,
                        job.instance.deadline,
                        None,
                    )
                )
    outcome.segments = sorted(raw_segments, key=lambda s: s.start)
    return outcome


# ----------------------------------------------------------------------
# Canned comparison workloads
# ----------------------------------------------------------------------
def mok_trap() -> EzRTSpec:
    """A set no work-conserving runtime policy schedules (Mok [10]).

    ``LONG`` is a non-preemptive 6-unit task available at time 0;
    ``SHORT`` arrives at time 5 with a 2-unit deadline.  Any
    work-conserving scheduler starts ``LONG`` at 0 and blocks ``SHORT``
    past its deadline; the feasible schedule must leave the processor
    idle until ``SHORT`` is done (or start ``LONG`` late), which the
    pre-runtime scheduler finds once delayed releases are explored
    (``delay_mode="extremes"``).
    """
    return (
        SpecBuilder("mok-trap")
        .processor("proc0")
        .task("SHORT", computation=2, deadline=2, period=20, phase=5,
              scheduling="NP")
        .task("LONG", computation=6, deadline=20, period=20,
              scheduling="NP")
        .build()
    )


def rm_overload_pair() -> EzRTSpec:
    """The classical pair where RM/DM misses and EDF meets (U ≈ 0.97)."""
    return (
        SpecBuilder("rm-overload")
        .processor("proc0")
        .task("T1", computation=2, deadline=5, period=5, scheduling="P")
        .task("T2", computation=4, deadline=7, period=7, scheduling="P")
        .build()
    )


def exclusion_blocking_pair() -> EzRTSpec:
    """Preemptive pair with an exclusion relation that traps EDF.

    ``GUARD`` shares an exclusion with ``ALARM``.  Under EDF and DM the
    earlier-deadline ``BG`` runs first (0–3), pushing ``GUARD``'s
    critical instance to 3–8 — open exactly when ``ALARM`` arrives at 6
    with a 2-unit deadline, so runtime dispatching blocks ``ALARM`` past
    its deadline.  The pre-runtime search backtracks on that miss and
    emits ``GUARD`` at 0–5 instead, which no deadline-ordered
    work-conserving runtime policy ever tries.
    """
    return (
        SpecBuilder("exclusion-blocking")
        .processor("proc0")
        .task("ALARM", computation=2, deadline=2, period=25, phase=6,
              scheduling="P")
        .task("GUARD", computation=5, deadline=25, period=25,
              scheduling="P")
        .task("BG", computation=3, deadline=10, period=25,
              scheduling="P")
        .exclusion("ALARM", "GUARD")
        .build()
    )
