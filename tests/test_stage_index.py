"""StageIndex candidate-lookup tests."""

import pytest

from repro.schedulers.stage_index import StageIndex
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import TaskInput

from conftest import make_task, make_two_stage_job


def make_stage_with_locality():
    tasks = [
        make_task(inputs=[TaskInput(64, (0, 1))]),
        make_task(inputs=[TaskInput(64, (2, 3))]),
        make_task(inputs=[TaskInput(64, (0, 2))]),
    ]
    return Stage("s", tasks)


class TestCandidates:
    def test_local_candidate(self):
        stage = make_stage_with_locality()
        index = StageIndex()
        index.add_stage(stage)
        local = index.local_candidate(stage, 0)
        assert local is not None
        assert any(inp.is_local_to(0) for inp in local.inputs)

    def test_no_local_candidate(self):
        stage = make_stage_with_locality()
        index = StageIndex()
        index.add_stage(stage)
        assert index.local_candidate(stage, 7) is None

    def test_any_candidate(self):
        stage = make_stage_with_locality()
        index = StageIndex()
        index.add_stage(stage)
        assert index.any_candidate(stage) is stage.tasks[0]

    def test_claim_excludes_task(self):
        stage = make_stage_with_locality()
        index = StageIndex()
        index.add_stage(stage)
        first = index.any_candidate(stage)
        index.claim(first)
        assert index.any_candidate(stage) is not first

    def test_claim_all_empties_stage(self):
        stage = make_stage_with_locality()
        index = StageIndex()
        index.add_stage(stage)
        for task in stage.tasks:
            index.claim(task)
        assert index.any_candidate(stage) is None
        assert not index.has_candidates(stage)

    def test_finished_tasks_skipped(self):
        stage = make_stage_with_locality()
        task = stage.tasks[0]
        task.mark_running(0, 0.0)
        task.mark_finished(1.0)
        index = StageIndex()
        index.add_stage(stage)
        assert index.any_candidate(stage) is not task

    def test_unindexed_stage_returns_none(self):
        stage = make_stage_with_locality()
        index = StageIndex()
        assert index.any_candidate(stage) is None
        assert index.local_candidate(stage, 0) is None


class TestJobIndexing:
    def test_add_job_indexes_released_stages_only(self):
        job = make_two_stage_job(num_map=2, num_reduce=2)
        index = StageIndex()
        index.add_job(job)
        map_stage, reduce_stage = job.dag.stages
        assert index.has_candidates(map_stage)
        assert not index.has_candidates(reduce_stage)

    def test_indexed_stages(self):
        job = make_two_stage_job(num_map=2, num_reduce=2)
        index = StageIndex()
        index.add_job(job)
        stages = index.indexed_stages(job)
        assert [s.name for s in stages] == ["map"]

    def test_add_stage_idempotent(self):
        job = make_two_stage_job()
        index = StageIndex()
        index.add_job(job)
        map_stage = job.dag.roots()[0]
        index.claim(map_stage.tasks[0])
        index.add_stage(map_stage)  # must not resurrect the claimed task
        assert index.any_candidate(map_stage) is not map_stage.tasks[0]
