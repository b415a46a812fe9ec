"""Regression tests pinning the paper's published numbers (Section 5).

These are the reproduction's headline checks: each test enforces one
paper-vs-measured comparison.
"""

import pytest

from repro.blocks import BlockStyle, ComposerOptions, compose
from repro.scheduler import (
    find_schedule,
    schedule_from_result,
    validate_schedule,
)
from repro.spec import (
    MINE_PUMP_TABLE1,
    fig3_precedence,
    fig4_exclusion,
    fig8_preemptive,
    mine_pump,
    schedule_period,
    total_instances,
)


class TestTable1:
    def test_table_rows(self):
        """Table 1 exactly as printed."""
        spec = mine_pump()
        assert len(spec.tasks) == 10
        for (name, c, d, p), task in zip(MINE_PUMP_TABLE1, spec.tasks):
            assert task.name == name
            assert task.computation == c
            assert task.deadline == d
            assert task.period == p

    def test_782_instances(self):
        """'This problem has 10 tasks, implying 782 tasks' instances.'"""
        assert total_instances(mine_pump()) == 782

    def test_schedule_period(self):
        assert schedule_period(mine_pump()) == 30000


@pytest.mark.slow
class TestMinePumpSearch:
    @pytest.fixture(scope="class")
    def outcome(self):
        model = compose(mine_pump())
        result = find_schedule(model)
        return model, result

    def test_feasible(self, outcome):
        _model, result = outcome
        assert result.feasible

    def test_minimum_states_is_3130(self, outcome):
        """'minimum number of states is 3130'."""
        model, result = outcome
        assert model.minimum_firings() == 3130
        assert result.minimum_firings == 3130

    def test_visited_close_to_paper_3268(self, outcome):
        """'Our solution searched 3268 states.'  The exact count
        depends on tie-breaking details the paper does not give; the
        reproduction must stay within 10% of the published figure."""
        _model, result = outcome
        assert 3130 <= result.stats.states_visited <= 3595

    def test_backtrack_free_path(self, outcome):
        """The found schedule itself is the 3130-firing minimum path."""
        _model, result = outcome
        assert result.schedule_length == 3130

    def test_search_is_fast(self, outcome):
        """Paper: 330 ms on an Athlon 1800; modern hardware should be
        comfortably under 5 s even in CI."""
        _model, result = outcome
        assert result.stats.elapsed_seconds < 5.0

    def test_schedule_is_valid(self, outcome):
        model, result = outcome
        schedule = schedule_from_result(model, result)
        assert validate_schedule(model, schedule) == []
        assert schedule.makespan <= 30000

    def test_all_instances_scheduled(self, outcome):
        model, result = outcome
        schedule = schedule_from_result(model, result)
        scheduled = {
            (s.task, s.instance) for s in schedule.segments
        }
        assert len(scheduled) == 782


class TestFig3:
    def test_schedule_respects_precedence(self):
        model = compose(fig3_precedence())
        result = find_schedule(model)
        assert result.feasible
        schedule = schedule_from_result(model, result)
        for k in (1, 2):
            t1 = schedule.segments_of("T1", k)
            t2 = schedule.segments_of("T2", k)
            assert t2[0].start >= t1[-1].end

    def test_expanded_structure_matches_figure(self):
        model = compose(
            fig3_precedence(),
            ComposerOptions(style=BlockStyle.EXPANDED),
        )
        net = model.net
        # the figure's nodes (modulo naming convention)
        for node in (
            "pwa_T1", "pwr_T1", "pwg_T1", "pwc_T1", "pwf_T1", "pf_T1",
            "pwd_T1", "pdm_T1", "pwpc_T1", "pprec_T1_T2",
        ):
            assert net.has_place(node), node
        for node in (
            "tph_T1", "ta_T1", "tr_T1", "tg_T1", "tc_T1", "tf_T1",
            "td_T1", "tpc_T1",
        ):
            assert net.has_transition(node), node


class TestFig4:
    def test_schedule_respects_exclusion(self):
        model = compose(fig4_exclusion())
        result = find_schedule(model)
        assert result.feasible
        schedule = schedule_from_result(model, result)
        for k0 in (1, 2):
            t0 = schedule.segments_of("T0", k0)
            envelope = (t0[0].start, t0[-1].end)
            for k2 in (1, 2):
                for seg in schedule.segments_of("T2", k2):
                    assert not (
                        seg.start < envelope[1]
                        and seg.end > envelope[0]
                    )

    def test_computation_times_via_weights(self):
        """Fig. 4's '10' and '20' arc labels are the computation
        times of the preemptive unit-subtask encoding."""
        model = compose(fig4_exclusion())
        net = model.net
        assert net.input_weight("pwf_T0", "tf_T0") == 10
        assert net.input_weight("pwf_T2", "tf_T2") == 20


class TestFig8:
    @pytest.fixture(scope="class")
    def schedule(self):
        model = compose(fig8_preemptive())
        result = find_schedule(model)
        assert result.feasible
        return schedule_from_result(model, result)

    def test_table_shape(self, schedule):
        """Two instances of A/B/C, one of D; preemptions nest like the
        figure: B preempts A, C preempts B, D preempts B."""
        comments = [item.comment for item in schedule.items]
        assert "TaskB1 preempts TaskA1" in comments
        assert "TaskC1 preempts TaskB1" in comments
        assert "TaskD1 preempts TaskB1" in comments
        assert comments.count("TaskB1 resumes") == 2
        assert "TaskA1 resumes" in comments

    def test_resume_flags(self, schedule):
        flags = [
            (item.preempted, item.comment) for item in schedule.items
        ]
        for preempted, comment in flags:
            assert preempted == comment.endswith("resumes")

    def test_paper_format_rendering(self, schedule):
        from repro.codegen import render_paper_style

        text = render_paper_style(schedule.items)
        assert text.startswith(
            "struct ScheduleItem scheduleTable [SCHEDULE_SIZE] ="
        )
        assert "/* A1 starts */" in text
        assert "/* B1 preempts A1 */" in text
        assert "(int *)TaskA" in text
        assert text.rstrip().endswith("};")
