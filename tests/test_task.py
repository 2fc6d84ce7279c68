"""Task model tests."""

import pytest

from repro.resources import DEFAULT_MODEL
from repro.workload.task import Task, TaskInput, TaskState, TaskWork

from conftest import make_task


class TestTaskLifecycle:
    def test_initial_state_blocked(self):
        assert make_task().state is TaskState.BLOCKED

    def test_transitions(self):
        task = make_task()
        task.mark_runnable()
        assert task.state is TaskState.RUNNABLE
        task.mark_running(3, 10.0)
        assert task.state is TaskState.RUNNING
        assert task.machine_id == 3
        task.mark_finished(25.0)
        assert task.state is TaskState.FINISHED
        assert task.duration == pytest.approx(15.0)

    def test_running_requires_runnable(self):
        with pytest.raises(RuntimeError):
            make_task().mark_running(0, 0.0)

    def test_finish_requires_running(self):
        task = make_task()
        task.mark_runnable()
        with pytest.raises(RuntimeError):
            task.mark_finished(1.0)

    def test_duration_none_until_finished(self):
        assert make_task().duration is None

    def test_unique_ids(self):
        assert make_task().task_id != make_task().task_id


class TestTaskInputs:
    def test_input_mb(self):
        task = make_task(inputs=[TaskInput(100, (0,)), TaskInput(50, (1,))])
        assert task.input_mb == 150

    def test_remote_input_mb(self):
        task = make_task(inputs=[TaskInput(100, (0,)), TaskInput(50, (1,))])
        assert task.remote_input_mb(0) == 50
        assert task.remote_input_mb(2) == 150

    def test_is_local_to(self):
        inp = TaskInput(10, (3, 5))
        assert inp.is_local_to(3)
        assert not inp.is_local_to(4)


class TestPlacementAdjustedDemands:
    def test_local_placement_drops_network(self):
        task = make_task(diskr=50, netin=50,
                         inputs=[TaskInput(100, (0, 1))])
        d = task.demands_on(0)
        assert d.get("netin") == 0
        assert d.get("diskr") == 50

    def test_remote_placement_drops_disk_read(self):
        task = make_task(diskr=50, netin=50,
                         inputs=[TaskInput(100, (0, 1))])
        d = task.demands_on(5)
        assert d.get("netin") == 50
        assert d.get("diskr") == 0

    def test_mixed_placement_keeps_both(self):
        task = make_task(diskr=50, netin=50,
                         inputs=[TaskInput(100, (0,)), TaskInput(100, (1,))])
        d = task.demands_on(0)
        assert d.get("netin") == 50
        assert d.get("diskr") == 50

    def test_netout_always_cleared(self):
        task = make_task(netout=99, inputs=[TaskInput(10, (0,))])
        assert task.demands_on(0).get("netout") == 0
        assert task.demands_on(1).get("netout") == 0


class TestNominalDuration:
    def test_cpu_bound(self):
        task = make_task(cpu=2, cpu_work=30)
        assert task.nominal_duration() == pytest.approx(15.0)

    def test_io_bound(self):
        task = make_task(cpu=2, cpu_work=10, diskr=50,
                         inputs=[TaskInput(500, (0,))])
        assert task.nominal_duration() == pytest.approx(10.0)

    def test_write_bound(self):
        task = make_task(cpu=1, cpu_work=1, diskw=10, write_mb=100)
        assert task.nominal_duration() == pytest.approx(10.0)

    def test_duration_hint_overrides(self):
        task = Task(DEFAULT_MODEL.vector(cpu=1), TaskWork(100),
                    duration_hint=7.0)
        assert task.nominal_duration() == 7.0

    def test_empty_task_zero_duration(self):
        task = Task(DEFAULT_MODEL.vector(cpu=1), TaskWork())
        assert task.nominal_duration() == 0.0


class TestInputSizes:
    def test_sums_do_not_depend_on_the_interpreter(self):
        """Ten 0.1 MB inputs add left to right (1.0 under 3.12's sum())."""
        inputs = [TaskInput(0.1, (0,)) for _ in range(10)]
        task = make_task(inputs=inputs)
        assert task.input_mb == 0.9999999999999999
        assert task.remote_input_mb(1) == 0.9999999999999999
        assert task.remote_input_mb(0) == 0.0
