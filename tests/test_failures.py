"""Failure-injection tests: failed attempts re-run and everything else
stays consistent (the paper's simulator replays per-task failure
probabilities)."""

import pytest

from repro.analysis.model import audit_engine
from repro.cluster.cluster import Cluster
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import MAX_TASK_ATTEMPTS, Engine, EngineConfig
from repro.workload.task import TaskState

from conftest import make_simple_job, make_two_stage_job


def run_with_failures(scheduler, jobs, prob, num_machines=2, seed=0):
    cluster = Cluster(num_machines, machines_per_rack=2, seed=seed)
    engine = Engine(
        cluster, scheduler, jobs,
        config=EngineConfig(task_failure_prob=prob, seed=seed),
    )
    engine.run()
    return engine


class TestFailureInjection:
    def test_everything_finishes_despite_failures(self):
        jobs = [make_simple_job(num_tasks=10, cpu=2, cpu_work=10,
                                arrival_time=float(i)) for i in range(3)]
        engine = run_with_failures(TetrisScheduler(), jobs, prob=0.3)
        assert all(j.is_finished for j in jobs)
        assert engine.collector.task_failures > 0

    def test_attempt_counters(self):
        jobs = [make_simple_job(num_tasks=20, cpu=1, cpu_work=5)]
        engine = run_with_failures(TetrisScheduler(), jobs, prob=0.4)
        attempts = [t.attempts for t in jobs[0].all_tasks()]
        assert max(attempts) >= 1
        assert all(
            a < MAX_TASK_ATTEMPTS for a in attempts
        )

    def test_failures_prolong_jobs(self):
        jobs_a = [make_simple_job(num_tasks=16, cpu=4, cpu_work=40)]
        clean = run_with_failures(TetrisScheduler(), jobs_a, prob=0.0)
        jobs_b = [make_simple_job(num_tasks=16, cpu=4, cpu_work=40)]
        flaky = run_with_failures(TetrisScheduler(), jobs_b, prob=0.5)
        assert (
            flaky.collector.makespan() > clean.collector.makespan()
        )

    def test_machines_clean_after_failures(self):
        jobs = [make_two_stage_job(num_map=6, num_reduce=2)]
        engine = run_with_failures(TetrisScheduler(), jobs, prob=0.3)
        for machine in engine.cluster.machines:
            assert machine.num_running == 0
            assert machine.allocated.is_zero()
        assert engine.flows.num_active == 0

    def test_schedule_still_feasible_under_failures(self):
        jobs = [make_two_stage_job(num_map=4, num_reduce=2,
                                   arrival_time=2.0 * i)
                for i in range(3)]
        engine = run_with_failures(
            TetrisScheduler(TetrisConfig(fairness_knob=0.0)), jobs,
            prob=0.25,
        )
        report = audit_engine(engine)
        # only the *successful* attempt is in the placement log's
        # finish_time window, so feasibility checks still apply
        assert not report.of_kind("execution")
        assert not report.of_kind("precedence")

    @pytest.mark.parametrize("scheduler_factory", [
        SlotFairScheduler, CapacityScheduler,
    ])
    def test_slot_accounting_survives_failures(self, scheduler_factory):
        scheduler = scheduler_factory()
        jobs = [make_simple_job(num_tasks=12, mem=2, cpu_work=5)]
        engine = run_with_failures(scheduler, jobs, prob=0.4)
        assert all(j.is_finished for j in jobs)
        total = sum(scheduler._slots_free.values())
        assert total == scheduler.total_slots()

    def test_zero_probability_means_no_failures(self):
        jobs = [make_simple_job(num_tasks=10)]
        engine = run_with_failures(TetrisScheduler(), jobs, prob=0.0)
        assert engine.collector.task_failures == 0
        assert all(t.attempts == 0 for t in jobs[0].all_tasks())
