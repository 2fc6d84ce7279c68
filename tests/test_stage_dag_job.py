"""Stage, StageDag, and Job structural tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.workload.dag import StageDag
from repro.workload.job import Job, JobState
from repro.workload.stage import Stage
from repro.workload.task import TaskState

from conftest import make_simple_job, make_task, make_two_stage_job


def _tetris(config):
    scheduler = TetrisScheduler(config)
    scheduler.bind(Cluster(2, machines_per_rack=2))
    return scheduler


def finish(task, machine=0, t0=0.0, t1=1.0):
    task.mark_running(machine, t0)
    task.mark_finished(t1)


class TestStage:
    def test_root_stage_tasks_runnable(self):
        stage = Stage("s", [make_task(), make_task()])
        assert all(t.state is TaskState.RUNNABLE for t in stage.tasks)

    def test_child_stage_tasks_blocked(self):
        parent = Stage("p", [make_task()])
        child = Stage("c", [make_task()], parents=[parent])
        assert all(t.state is TaskState.BLOCKED for t in child.tasks)
        assert child in parent.children

    def test_finished_fraction(self):
        stage = Stage("s", [make_task() for _ in range(4)])
        assert stage.finished_fraction == 0.0
        finish(stage.tasks[0])
        assert stage.finished_fraction == 0.25
        assert stage.num_finished == 1

    def test_release_if_ready(self):
        parent = Stage("p", [make_task()])
        child = Stage("c", [make_task()], parents=[parent])
        assert not child.release_if_ready()
        finish(parent.tasks[0])
        assert child.release_if_ready()
        assert child.tasks[0].state is TaskState.RUNNABLE

    def test_empty_stage_is_finished(self):
        assert Stage("s", []).is_finished()
        assert Stage("s", []).finished_fraction == 1.0


class TestStageDag:
    def test_toposort_chain(self):
        a = Stage("a", [make_task()])
        b = Stage("b", [make_task()], parents=[a])
        c = Stage("c", [make_task()], parents=[b])
        # depth walks the topological order; listed out of order, the
        # chain still resolves parent-first
        assert StageDag([c, a, b]).depth() == 3

    def test_roots_and_leaves(self):
        a = Stage("a", [make_task()])
        b = Stage("b", [make_task()], parents=[a])
        dag = StageDag([a, b])
        assert dag.roots() == [a]
        assert dag.leaves() == [b]

    def test_depth(self):
        a = Stage("a", [make_task()])
        b = Stage("b", [make_task()], parents=[a])
        c = Stage("c", [make_task()], parents=[a])
        d = Stage("d", [make_task()], parents=[b, c])
        assert StageDag([a, b, c, d]).depth() == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            StageDag([Stage("x", []), Stage("x", [])])

    def test_cycle_rejected(self):
        a = Stage("a", [make_task()])
        b = Stage("b", [make_task()], parents=[a])
        a.parents.append(b)  # force a cycle
        b.children.append(a)
        with pytest.raises(ValueError):
            StageDag([a, b])

    def test_external_parent_rejected(self):
        outside = Stage("out", [make_task()])
        inside = Stage("in", [make_task()], parents=[outside])
        with pytest.raises(ValueError):
            StageDag([inside])


class _CountingTasks(list):
    """A task list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def reference_release_ready(dag):
    """The task-scanning barrier sweep the blocked counter replaced."""
    released = []
    for stage in dag.stages:
        if stage.is_finished():
            continue
        if any(t.state is TaskState.BLOCKED for t in stage.tasks):
            if stage.release_if_ready():
                released.append(stage)
    return released


class TestBarrierSweep:
    def test_blocked_counter_follows_transitions(self):
        parent = Stage("p", [make_task() for _ in range(3)])
        child = Stage("c", [make_task() for _ in range(4)], parents=[parent])
        assert (parent.num_blocked, child.num_blocked) == (0, 4)
        for task in parent.tasks:
            finish(task)
        assert child.release_if_ready()
        assert child.num_blocked == 0
        # a failed attempt goes back to runnable, never to blocked
        child.tasks[0].mark_running(0, 0.0)
        child.tasks[0].mark_failed(1.0)
        assert child.num_blocked == 0
        assert child.num_runnable == 4

    def test_task_finish_never_walks_task_lists(self):
        """A 200-task stage draining costs O(stages) counter reads per
        finish: the sweep walks no task list until a barrier lifts, and
        then only the released stage's (to unblock it)."""
        maps = Stage("map", [make_task() for _ in range(200)])
        mid = Stage("mid", [make_task() for _ in range(50)], parents=[maps])
        last = Stage("last", [make_task() for _ in range(50)], parents=[mid])
        dag = StageDag([maps, mid, last])
        for stage in dag:
            stage.tasks = _CountingTasks(stage.tasks)
        _CountingTasks.walks = 0
        for task in list.__iter__(maps.tasks):
            finish(task)
            released = dag.release_ready_stages()
            if not maps.is_finished():
                assert released == []
                assert _CountingTasks.walks == 0
        assert released == [mid]
        assert _CountingTasks.walks == 1  # mid's own unblocking walk
        assert dag.release_ready_stages() == []
        assert _CountingTasks.walks == 1

    def test_released_lists_match_the_task_scan(self):
        """Same stages, same order as the scanning sweep, on a diamond
        with two stages released by one finish."""

        def diamond():
            a = Stage("a", [make_task() for _ in range(2)])
            b = Stage("b", [make_task()], parents=[a])
            c = Stage("c", [make_task()], parents=[a])
            d = Stage("d", [make_task()], parents=[b, c])
            return StageDag([d, c, a, b])

        fast, slow = diamond(), diamond()
        for name in ("a", "b", "c", "d"):
            for dag, sweep in (
                (fast, fast.release_ready_stages),
                (slow, lambda: reference_release_ready(slow)),
            ):
                stage = next(s for s in dag if s.name == name)
                out = []
                for task in stage.tasks:
                    finish(task)
                    out.append([s.name for s in sweep()])
                if dag is fast:
                    got = out
            assert got == out
        assert fast.is_finished() and slow.is_finished()


class TestJob:
    def test_arrival(self):
        job = make_simple_job()
        assert job.state is JobState.WAITING
        job.arrive()
        assert job.state is JobState.ACTIVE

    def test_barrier_release_on_task_finish(self):
        job = make_two_stage_job(num_map=2, num_reduce=1)
        job.arrive()
        maps = job.dag.roots()[0].tasks
        finish(maps[0])
        assert job.note_task_finished() == []
        finish(maps[1])
        released = job.note_task_finished()
        assert len(released) == 1
        assert released[0].name == "reduce"

    def test_job_finishes_when_all_stages_done(self):
        job = make_simple_job(num_tasks=2)
        job.arrive()
        for task in job.all_tasks():
            finish(task)
        job.note_task_finished()
        assert job.is_finished
        job.mark_finished(42.0)
        assert job.finish_time == 42.0

    def test_completion_time(self):
        job = make_simple_job(arrival_time=10.0)
        assert job.completion_time is None
        job.mark_finished(30.0)
        assert job.completion_time == pytest.approx(20.0)

    def test_num_tasks(self):
        assert make_two_stage_job(num_map=4, num_reduce=2).num_tasks == 6

    def test_runnable_tasks_respect_barrier(self):
        job = make_two_stage_job(num_map=2, num_reduce=3)
        assert sum(len(stage.runnable_tasks()) for stage in job.dag) == 2

    def test_remaining_work_score_decreases(self):
        """Tetris's SRTF score p (§3.3.1) drops as the job's tasks finish."""
        scheduler = _tetris(TetrisConfig(fairness_knob=0.0))
        job = make_simple_job(num_tasks=3, cpu=2, cpu_work=20)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        before = scheduler._remaining_work(job, 0.0)
        task = job.all_tasks()[0]
        finish(task)
        job.note_task_finished()
        scheduler.on_task_finished(task, 1.0)
        after = scheduler._remaining_work(job, 1.0)
        assert 0 < after < before

    def test_barrier_tasks_skips_unreleased_stages(self):
        """Tetris's barrier set (§3.5) never holds an unreleased stage."""
        scheduler = _tetris(TetrisConfig(fairness_knob=0.0, barrier_knob=0.5))
        job = make_two_stage_job(num_map=2, num_reduce=2)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        map_stage, reduce_stage = job.dag.stages
        # reduce stage not released: never eligible, map stage at 50%
        finish(map_stage.tasks[0])
        assert scheduler._barrier_stages([job]) == {map_stage.stage_id}
        assert not reduce_stage.is_released()
