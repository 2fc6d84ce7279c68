"""Fairness policy unit tests (slot and DRF orderings)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL
from repro.schedulers.fairness_policy import (
    DRFFairnessPolicy,
    SlotFairnessPolicy,
)
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisScheduler

from conftest import make_simple_job


@pytest.fixture
def bound_scheduler():
    scheduler = TetrisScheduler()
    scheduler.bind(Cluster(2, machines_per_rack=2))
    return scheduler


def arrive(scheduler, *jobs):
    for job in jobs:
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)


class TestSlotFairnessPolicy:
    def test_total_slots(self, bound_scheduler):
        policy = SlotFairnessPolicy(slot_mem_gb=2.0)
        # 2 machines x (48 GB / 2 GB) slots
        assert policy.total_slots(bound_scheduler) == 48

    def test_deficit_orders_by_running_tasks(self, bound_scheduler):
        policy = SlotFairnessPolicy()
        idle = make_simple_job(num_tasks=4, name="idle")
        busy = make_simple_job(num_tasks=4, name="busy")
        arrive(bound_scheduler, idle, busy)
        # give 'busy' two running tasks
        for task in busy.all_tasks()[:2]:
            task.mark_running(0, 0.0)
        assert policy.deficit(bound_scheduler, idle) > policy.deficit(
            bound_scheduler, busy
        )

    def test_heterogeneous_total_matches_the_scheduler(self):
        """Slots are summed per machine (96/2 + 96/2 + 8/2 + 8/2), not
        the reference machine's count times the machine count (192) —
        one helper for the policy and the slot-fair scheduler."""
        big = DEFAULT_MODEL.vector(cpu=32, mem=96, diskr=400, diskw=400,
                                   netin=250, netout=250)
        small = DEFAULT_MODEL.vector(cpu=4, mem=8, diskr=50, diskw=50,
                                     netin=30, netout=30)
        cluster = Cluster(4, machines_per_rack=2,
                          machine_capacities=[big, big, small, small])
        tetris, slot_fair = TetrisScheduler(), SlotFairScheduler()
        tetris.bind(cluster)
        slot_fair.bind(cluster)
        policy = SlotFairnessPolicy(slot_mem_gb=2.0)
        assert policy.total_slots(tetris) == slot_fair.total_slots() == 104
        assert cluster.memory_slots(2.0) == ((48, 48, 4, 4), 104)
        # a machine smaller than one slot still holds one
        assert cluster.memory_slots(16.0) == ((6, 6, 1, 1), 14)

    def test_deficit_counts_running_tasks_only(self, bound_scheduler):
        policy = SlotFairnessPolicy()
        job = make_simple_job(num_tasks=6, name="mixed")
        arrive(bound_scheduler, job)
        tasks = job.all_tasks()
        for task in tasks[:3]:
            task.mark_running(0, 0.0)
        tasks[0].mark_finished(1.0)
        tasks[1].mark_failed(1.0)  # back to runnable
        fair = 48.0  # one active job
        assert policy.deficit(bound_scheduler, job) == (fair - 1) / fair
        assert len(job.running_tasks()) == 1

    def test_invalid_slot_size(self):
        with pytest.raises(ValueError):
            SlotFairnessPolicy(slot_mem_gb=0)


class TestDRFFairnessPolicy:
    def test_dominant_share_over_chosen_dims(self, bound_scheduler):
        policy = DRFFairnessPolicy(dims=("cpu", "mem"))
        job = make_simple_job(num_tasks=1)
        arrive(bound_scheduler, job)
        bound_scheduler.job_alloc[job.job_id].add_inplace(
            DEFAULT_MODEL.vector(cpu=16, mem=24)
        )
        # cpu share 16/32 = 0.5; mem share 24/96 = 0.25
        assert policy.dominant_share(
            bound_scheduler, job
        ) == pytest.approx(0.5)

    def test_ignores_other_dims(self, bound_scheduler):
        policy = DRFFairnessPolicy(dims=("cpu", "mem"))
        job = make_simple_job(num_tasks=1)
        arrive(bound_scheduler, job)
        bound_scheduler.job_alloc[job.job_id].add_inplace(
            DEFAULT_MODEL.vector(netin=250)
        )
        assert policy.dominant_share(bound_scheduler, job) == 0.0

    def test_deficit_is_fair_share_minus_dominant(self, bound_scheduler):
        policy = DRFFairnessPolicy()
        a = make_simple_job(num_tasks=1, name="a")
        b = make_simple_job(num_tasks=1, name="b")
        arrive(bound_scheduler, a, b)
        bound_scheduler.job_alloc[a.job_id].add_inplace(
            DEFAULT_MODEL.vector(cpu=8)
        )
        assert policy.deficit(bound_scheduler, a) == pytest.approx(
            0.5 - 8 / 32
        )
        assert policy.deficit(bound_scheduler, b) == pytest.approx(0.5)

    def test_unknown_job_has_zero_share(self, bound_scheduler):
        policy = DRFFairnessPolicy()
        job = make_simple_job(num_tasks=1)  # never arrived
        assert policy.dominant_share(bound_scheduler, job) == 0.0
