"""Figure 1 / Section 2.1 motivating-example tests — exact paper numbers."""

import pytest

from repro.experiments.motivating import (
    MotivatingExample,
    drf_schedule,
    packing_schedule,
)


class TestDRFSchedule:
    def test_all_jobs_finish_at_6t(self):
        schedule = drf_schedule()
        assert schedule.completion == {"A": 6, "B": 6, "C": 6}
        assert schedule.makespan == 6
        assert schedule.average_completion == pytest.approx(6.0)

    def test_drf_map_allocation_matches_paper(self):
        """DRF runs 6 A-maps and 2 maps each of B and C per round."""
        schedule = drf_schedule()
        first_round = schedule.rounds[0]
        assert first_round["A"][0] == 6
        assert first_round["B"][0] == 2
        assert first_round["C"][0] == 2

    def test_reduce_phase_shares_network(self):
        schedule = drf_schedule()
        reduce_rounds = schedule.rounds[3:]
        for r in reduce_rounds:
            assert r["A"][1] == r["B"][1] == r["C"][1] == 1


class TestPackingSchedule:
    def test_completions_are_2t_3t_4t(self):
        schedule = packing_schedule()
        assert sorted(schedule.completion.values()) == [2, 3, 4]

    def test_average_improves_50_percent(self):
        drf = drf_schedule()
        packing = packing_schedule()
        gain = 1 - packing.average_completion / drf.average_completion
        assert gain == pytest.approx(0.5)

    def test_makespan_improves_33_percent(self):
        drf = drf_schedule()
        packing = packing_schedule()
        gain = 1 - packing.makespan / drf.makespan
        assert gain == pytest.approx(1 / 3, abs=0.01)

    def test_every_job_finishes_no_later(self):
        drf = drf_schedule()
        packing = packing_schedule()
        for name in drf.completion:
            assert packing.completion[name] <= drf.completion[name]

    def test_reducers_overlap_next_jobs_mappers(self):
        """The packing gain comes from complementary phases co-running."""
        schedule = packing_schedule()
        overlap_rounds = [
            r for r in schedule.rounds
            if any(r[j][1] > 0 for j in "ABC")
            and any(r[j][0] > 0 for j in "ABC")
        ]
        assert overlap_rounds


class TestResourceFeasibility:
    @pytest.mark.parametrize("make", [drf_schedule, packing_schedule])
    def test_oversized_task_is_infeasible(self, make):
        """A 3-core map on a 2-core cluster never fits: the runner
        reports infeasibility instead of looping."""
        with pytest.raises(RuntimeError, match="infeasible"):
            make(MotivatingExample(capacity=(2.0, 36.0, 3.0)))

    @pytest.mark.parametrize("make", [drf_schedule, packing_schedule])
    def test_no_round_exceeds_capacity(self, make):
        example = MotivatingExample()
        schedule = make(example)
        for r in schedule.rounds:
            used = [0.0, 0.0, 0.0]
            for job in example.jobs:
                for phase_idx, count in enumerate(r[job.name]):
                    demand = job.phases[phase_idx].demand
                    for k in range(3):
                        used[k] += demand[k] * count
            for k in range(3):
                assert used[k] <= example.capacity[k] + 1e-9

    @pytest.mark.parametrize("make", [drf_schedule, packing_schedule])
    def test_all_tasks_run_exactly_once(self, make):
        example = MotivatingExample()
        schedule = make(example)
        for job in example.jobs:
            for phase_idx, phase in enumerate(job.phases):
                ran = sum(r[job.name][phase_idx] for r in schedule.rounds)
                assert ran == phase.count
