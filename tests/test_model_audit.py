"""Section 3.1 analytical-model auditor tests.

The auditor verifies realized schedules against the paper's constraint
families; here we check both that it certifies correct runs and that it
catches each kind of violation.
"""

import pytest

from repro.analysis.model import (
    AuditReport,
    Violation,
    audit_engine,
    audit_schedule,
)
from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import Engine

from conftest import make_simple_job, make_task, make_two_stage_job


def run_engine(scheduler, jobs, num_machines=4):
    cluster = Cluster(num_machines, machines_per_rack=2, seed=1)
    engine = Engine(cluster, scheduler, jobs)
    engine.run()
    return engine


class TestCleanRuns:
    def test_tetris_run_is_feasible(self):
        jobs = [make_two_stage_job(num_map=4, num_reduce=2,
                                   arrival_time=2.0 * i)
                for i in range(4)]
        engine = run_engine(TetrisScheduler(), jobs)
        report = audit_engine(engine)
        assert report.ok, report.violations[:5]

    def test_slot_fair_violates_only_unchecked_dims(self):
        """Slot-fair over-allocates CPU/disk/network but never memory
        (slots are memory-sized) — the auditor pinpoints exactly that."""
        jobs = []
        for i in range(6):
            job = make_simple_job(num_tasks=8, cpu=4, mem=2,
                                  cpu_work=40.0, arrival_time=float(i))
            jobs.append(job)
        engine = run_engine(SlotFairScheduler(), jobs, num_machines=1)
        report = audit_engine(engine)
        violated = report.violated_dimensions()
        assert "cpu" in violated
        assert "mem" not in violated
        # only capacity violations: execution/precedence/durations clean
        assert not report.of_kind("execution")
        assert not report.of_kind("precedence")
        assert not report.of_kind("duration")


class TestViolationDetection:
    def _finished_task(self, machine=0, start=0.0, finish=10.0, **kw):
        task = make_task(**kw)
        task.mark_runnable()
        task.mark_running(machine, start)
        task.mark_finished(finish)
        return task

    def test_unfinished_task_flagged(self):
        job = make_simple_job(num_tasks=1)
        report = audit_schedule([job], [], {})
        assert report.of_kind("execution")

    def test_precedence_violation_flagged(self):
        job = make_two_stage_job(num_map=1, num_reduce=1)
        map_task = job.dag.roots()[0].tasks[0]
        reduce_task = job.dag.leaves()[0].tasks[0]
        map_task.mark_running(0, 0.0)
        map_task.mark_finished(10.0)
        # reduce illegally starts before the barrier lifts
        reduce_task.state = map_task.state.__class__.RUNNABLE
        reduce_task.mark_running(0, 5.0)
        reduce_task.mark_finished(15.0)
        report = audit_schedule([job], [], {})
        assert report.of_kind("precedence")

    def test_duration_violation_flagged(self):
        job = make_simple_job(num_tasks=1, cpu=1, cpu_work=100.0)
        task = job.all_tasks()[0]
        task.mark_running(0, 0.0)
        task.mark_finished(1.0)  # impossibly fast: bound is 100s
        report = audit_schedule([job], [], {})
        assert report.of_kind("duration")

    def test_capacity_violation_flagged(self):
        cap = DEFAULT_MODEL.vector(cpu=4, mem=8)
        t1 = self._finished_task(cpu=3, mem=1, start=0.0, finish=10.0)
        t2 = self._finished_task(cpu=3, mem=1, start=5.0, finish=15.0)
        placements = [
            (t1, 0, 0.0, t1.demands),
            (t2, 0, 5.0, t2.demands),
        ]
        # wrap the loose tasks in jobs so execution checks pass
        from repro.workload.job import Job
        from repro.workload.stage import Stage

        report = audit_schedule([], placements, {0: cap})
        capacity_violations = report.of_kind("capacity")
        assert capacity_violations
        assert all(v.dimension == "cpu" for v in capacity_violations)

    def test_release_before_acquire_at_same_instant(self):
        """Back-to-back placements at the same timestamp do not create a
        phantom violation: the finishing task frees its booking first."""
        cap = DEFAULT_MODEL.vector(cpu=4, mem=8)
        t1 = self._finished_task(cpu=4, mem=1, start=0.0, finish=10.0)
        t2 = self._finished_task(cpu=4, mem=1, start=10.0, finish=20.0)
        placements = [
            (t1, 0, 0.0, t1.demands),
            (t2, 0, 10.0, t2.demands),
        ]
        report = audit_schedule([], placements, {0: cap})
        assert not report.of_kind("capacity")

    def test_report_helpers(self):
        report = AuditReport(
            [Violation("capacity", "x", dimension="cpu")]
        )
        assert not report.ok
        assert len(report) == 1
        assert report.violated_dimensions() == {"cpu"}


class TestTrackerAwareDefaults:
    def test_capacity_check_skipped_for_tracker_runs(self):
        """With the tracker, booked sums may exceed peak capacity by
        design (Section 4.1 reclamation); audit_engine skips eq. 1
        automatically."""
        from repro.estimation.tracker import ResourceTracker
        from repro.sim.engine import EngineConfig

        jobs = [make_simple_job(num_tasks=6, cpu=2, cpu_work=10,
                                arrival_time=float(i)) for i in range(3)]
        cluster = Cluster(2, machines_per_rack=2, seed=4)
        tracker = ResourceTracker(cluster)
        engine = Engine(cluster, TetrisScheduler(), jobs, tracker=tracker,
                        config=EngineConfig(tracker_period=1.0))
        engine.run()
        default_report = audit_engine(engine)
        assert not default_report.of_kind("capacity")
        forced = audit_engine(engine, include_capacity=True)
        assert len(forced) >= len(default_report)
