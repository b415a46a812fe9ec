"""Tests for the runtime-scheduling baseline simulators."""

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import (
    SchedulerConfig,
    exclusion_blocking_pair,
    find_schedule,
    mok_trap,
    rm_overload_pair,
    simulate_runtime,
)
from repro.spec import SpecBuilder


class TestBasicDispatch:
    def test_single_task(self):
        spec = (
            SpecBuilder("one")
            .task("A", computation=3, deadline=10, period=10)
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        assert outcome.feasible
        assert outcome.segments[0].start == 0
        assert outcome.segments[0].end == 3
        assert outcome.response_times["A"] == 3

    def test_two_instances(self):
        spec = (
            SpecBuilder("two")
            .task("A", computation=2, deadline=5, period=5)
            .build()
        )
        outcome = simulate_runtime(spec, "edf", horizon=10)
        starts = [s.start for s in outcome.segments]
        assert starts == [0, 5]

    def test_default_horizon_is_one_hyperperiod(self):
        spec = (
            SpecBuilder("two")
            .task("A", computation=2, deadline=5, period=5)
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        assert [s.start for s in outcome.segments] == [0]

    def test_release_respected(self):
        spec = (
            SpecBuilder("rel")
            .task("A", computation=2, deadline=10, period=10,
                  release=4)
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        assert outcome.segments[0].start == 4

    def test_phase_respected(self):
        spec = (
            SpecBuilder("ph")
            .task("A", computation=2, deadline=10, period=10, phase=3)
            .build()
        )
        outcome = simulate_runtime(spec, "dm", horizon=13)
        assert outcome.segments[0].start == 3

    def test_unknown_policy(self, two_task_spec):
        with pytest.raises(SchedulingError):
            simulate_runtime(two_task_spec, "lifo")


class TestPreemption:
    def test_edf_preempts(self):
        spec = (
            SpecBuilder("p")
            .task("LONG", computation=6, deadline=20, period=20,
                  scheduling="P")
            .task("SHORT", computation=2, deadline=3, period=20,
                  phase=2, scheduling="P")
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        assert outcome.feasible
        long_segments = [
            s for s in outcome.segments if s.task == "LONG"
        ]
        assert len(long_segments) == 2  # preempted by SHORT

    def test_non_preemptive_runs_to_completion(self):
        spec = (
            SpecBuilder("np")
            .task("LONG", computation=6, deadline=20, period=20,
                  scheduling="NP")
            .task("SHORT", computation=2, deadline=10, period=20,
                  phase=2, scheduling="P")
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        long_segments = [
            s for s in outcome.segments if s.task == "LONG"
        ]
        assert len(long_segments) == 1
        assert long_segments[0].duration == 6


class TestRelationsAtRuntime:
    def test_precedence_respected(self):
        spec = (
            SpecBuilder("prec")
            .task("B", computation=2, deadline=10, period=10)
            .task("A", computation=2, deadline=10, period=10)
            .precedence("A", "B")
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        a_end = next(
            s.end for s in outcome.segments if s.task == "A"
        )
        b_start = next(
            s.start for s in outcome.segments if s.task == "B"
        )
        assert b_start >= a_end

    def test_exclusion_blocks_start(self):
        spec = exclusion_blocking_pair()
        outcome = simulate_runtime(spec, "edf")
        guard = [s for s in outcome.segments if s.task == "GUARD"]
        alarm = [s for s in outcome.segments if s.task == "ALARM"]
        envelope = (guard[0].start, guard[-1].end)
        for seg in alarm:
            assert not (
                seg.start < envelope[1] and seg.end > envelope[0]
            )

    def test_message_delays_receiver(self):
        spec = (
            SpecBuilder("msg")
            .task("S", computation=1, deadline=10, period=10)
            .task("R", computation=2, deadline=10, period=10)
            .message("m", sender="S", receiver="R", communication=3,
                     grant_bus=1)
            .build()
        )
        outcome = simulate_runtime(spec, "edf")
        s_end = next(s.end for s in outcome.segments if s.task == "S")
        r_start = next(
            s.start for s in outcome.segments if s.task == "R"
        )
        assert r_start >= s_end + 4  # grant 1 + communication 3


class TestMissHandling:
    def test_miss_recorded_with_late_completion(self):
        spec = (
            SpecBuilder("late")
            .task("A", computation=6, deadline=10, period=10)
            .task("B", computation=6, deadline=10, period=10)
            .build(validate=True)
        )
        outcome = simulate_runtime(spec, "edf", horizon=20)
        assert not outcome.feasible
        completions = [
            m for m in outcome.misses if m.completion is not None
        ]
        assert completions
        assert all(
            m.completion > m.deadline for m in completions
        )

    def test_abort_policy_drops_work(self):
        spec = (
            SpecBuilder("abort")
            .task("A", computation=6, deadline=10, period=10)
            .task("B", computation=6, deadline=10, period=10)
            .build()
        )
        outcome = simulate_runtime(
            spec, "edf", horizon=20, miss_policy="abort"
        )
        assert not outcome.feasible

    def test_unknown_miss_policy(self, two_task_spec):
        with pytest.raises(SchedulingError):
            simulate_runtime(two_task_spec, "edf", miss_policy="shrug")


class TestCannedComparisons:
    """Pre-runtime synthesis against the run-time policy baselines."""

    def test_mok_trap_beats_every_runtime_policy(self):
        spec = mok_trap()
        for policy in ("edf", "dm", "rm"):
            assert not simulate_runtime(spec, policy).feasible
        model = compose(spec)
        for mode in ("earliest", "extremes"):
            assert find_schedule(
                model, SchedulerConfig(delay_mode=mode)
            ).feasible

    def test_rm_overload_edf_meets_dm_misses(self):
        spec = rm_overload_pair()
        assert simulate_runtime(spec, "edf").feasible
        assert not simulate_runtime(spec, "dm").feasible
        assert not simulate_runtime(spec, "rm").feasible
        assert find_schedule(compose(spec)).feasible

    def test_exclusion_traps_edf_and_dm(self):
        spec = exclusion_blocking_pair()
        assert not simulate_runtime(spec, "edf").feasible
        assert not simulate_runtime(spec, "dm").feasible
        assert find_schedule(compose(spec)).feasible

    def test_mine_pump_defeats_runtime_edf(self, mine_pump_spec):
        """The headline finding of experiment B1: the paper's own case
        study is runtime-unschedulable!  Work-conserving EDF lets the
        non-preemptive 25-unit CH4H start at t=75, blocking PMC's
        second instance (arrival 80, absolute deadline 100) until 100 —
        a miss.  The pre-runtime search hits the same trap, *backtracks*
        and schedules PDL at 75 instead; that non-greedy decision is
        precisely what priority-driven runtime dispatching cannot make
        (Mok's observation, the paper's reference [10])."""
        outcome = simulate_runtime(mine_pump_spec, "edf")
        assert not outcome.feasible
        miss = outcome.misses[0]
        assert (miss.task, miss.instance) == ("PMC", 2)
        assert miss.deadline == 100

    def test_mine_pump_defeats_dm_and_rm_too(self, mine_pump_spec):
        for policy in ("dm", "rm"):
            assert not simulate_runtime(
                mine_pump_spec, policy
            ).feasible

    def test_preemptive_mine_pump_is_runtime_schedulable(self):
        """Making every task preemptive removes the blocking: EDF then
        meets all deadlines — isolating non-preemptive blocking as the
        cause of the runtime failure."""
        from repro.spec import MINE_PUMP_TABLE1

        builder = SpecBuilder("mine-pump-p").processor("proc0")
        for name, c, d, p in MINE_PUMP_TABLE1:
            builder.task(
                name, computation=c, deadline=d, period=p,
                scheduling="P",
            )
        outcome = simulate_runtime(builder.build(), "edf")
        assert outcome.feasible

    def test_summaries_render(self):
        outcome = simulate_runtime(mok_trap(), "edf")
        text = outcome.summary()
        assert "EDF" in text and "miss" in text
