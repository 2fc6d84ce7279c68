"""Baseline scheduler behavior tests: FIFO, slot-fair, capacity, DRF."""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.sim.engine import Engine, EngineConfig

from conftest import make_simple_job, make_task


def schedule_once(scheduler, jobs, num_machines=2):
    """Bind, arrive every job, and run one scheduling round."""
    cluster = Cluster(num_machines, machines_per_rack=2)
    scheduler.bind(cluster)
    for job in jobs:
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    placements = scheduler.schedule(0.0)
    return cluster, placements


class TestFifo:
    def test_earlier_job_served_first(self):
        early = make_simple_job(num_tasks=64, arrival_time=0.0, cpu=8,
                                mem=24, name="early")
        late = make_simple_job(num_tasks=64, arrival_time=1.0, cpu=8,
                               mem=24, name="late")
        _, placements = schedule_once(FifoScheduler(), [early, late])
        # 2 machines x 2 tasks of (8 cpu / 24 mem) fit; all go to 'early'
        assert placements
        assert all(p.task.job.name == "early" for p in placements)

    def test_respects_cpu_and_memory(self):
        job = make_simple_job(num_tasks=10, cpu=8, mem=4)
        cluster, placements = schedule_once(FifoScheduler(), [job],
                                            num_machines=1)
        assert len(placements) == 2  # 16 cores / 8

    def test_ignores_network(self):
        """FIFO books network far beyond capacity — the over-allocation
        pathology."""
        tasks = 6
        from repro.workload.task import TaskInput

        job = make_simple_job(num_tasks=tasks, cpu=1, mem=1)
        for task in job.all_tasks():
            task.demands.set("netin", 100.0)
            task.inputs.append(TaskInput(10, (9,)))
        scheduler = FifoScheduler()
        scheduler.locality_delay = 0  # accept remote slots immediately
        cluster, placements = schedule_once(scheduler, [job],
                                            num_machines=1)
        # netin capacity is 125 but 6 x 100 get booked
        assert len(placements) == 6


class TestSlotFair:
    def test_slots_per_machine(self):
        scheduler = SlotFairScheduler(slot_mem_gb=2.0)
        scheduler.bind(Cluster(2))
        assert scheduler.slots_per_machine() == 24  # 48 GB / 2

    def test_task_slots_rounds_up(self):
        scheduler = SlotFairScheduler(slot_mem_gb=2.0)
        scheduler.bind(Cluster(1))
        assert scheduler.task_slots(make_task(mem=2.0)) == 1
        assert scheduler.task_slots(make_task(mem=3.0)) == 2
        assert scheduler.task_slots(make_task(mem=0.5)) == 1

    def test_fair_split_between_jobs(self):
        a = make_simple_job(num_tasks=100, mem=2, name="a")
        b = make_simple_job(num_tasks=100, mem=2, name="b")
        _, placements = schedule_once(
            SlotFairScheduler(slot_mem_gb=2.0), [a, b], num_machines=1
        )
        by_job = {"a": 0, "b": 0}
        for p in placements:
            by_job[p.task.job.name] += 1
        assert by_job["a"] == by_job["b"] == 12  # 24 slots split evenly

    def test_over_allocates_cpu(self):
        """Slots are defined on memory only; CPU gets oversubscribed."""
        job = make_simple_job(num_tasks=30, cpu=2, mem=2)
        cluster, placements = schedule_once(
            SlotFairScheduler(slot_mem_gb=2.0), [job], num_machines=1
        )
        assert len(placements) == 24  # every slot filled
        booked_cpu = sum(p.booked.get("cpu") for p in placements)
        assert booked_cpu == 48 > 16  # 3x the machine's cores

    def test_invalid_slot_size(self):
        with pytest.raises(ValueError):
            SlotFairScheduler(slot_mem_gb=0)

    def test_slots_returned_on_finish(self):
        job = make_simple_job(num_tasks=4, mem=2, cpu_work=5)
        cluster = Cluster(1)
        scheduler = SlotFairScheduler()
        engine = Engine(cluster, scheduler, [job])
        engine.run()
        assert scheduler._slots_free[0] == scheduler.slots_per_machine()


class TestCapacity:
    def test_round_robin_queue_assignment(self):
        scheduler = CapacityScheduler(num_queues=2)
        scheduler.bind(Cluster(1))
        jobs = [make_simple_job(num_tasks=1) for _ in range(4)]
        for job in jobs:
            job.arrive()
            scheduler.on_job_arrival(job, 0.0)
        queues = [scheduler._queue_of_job[j.job_id] for j in jobs]
        assert queues == [0, 1, 0, 1]

    def test_explicit_shares_normalized(self):
        scheduler = CapacityScheduler(queue_shares=[3, 1])
        assert scheduler.queue_shares == [0.75, 0.25]

    def test_invalid_shares(self):
        with pytest.raises(ValueError):
            CapacityScheduler(queue_shares=[0, 0])
        with pytest.raises(ValueError):
            CapacityScheduler(num_queues=0)

    def test_fifo_within_queue(self):
        scheduler = CapacityScheduler(num_queues=1)
        early = make_simple_job(num_tasks=60, mem=2, arrival_time=0.0,
                                name="early")
        late = make_simple_job(num_tasks=60, mem=2, arrival_time=1.0,
                               name="late")
        _, placements = schedule_once(scheduler, [early, late],
                                      num_machines=1)
        assert all(p.task.job.name == "early" for p in placements)

    def test_queue_deficits_are_frozen_within_a_round(self):
        """Pinned, not endorsed: ``_slots_used_by_queue`` advances only
        after the round, so the order of queues cannot change while a
        round hands out slots and one queue can take every free slot —
        here 24 against a guarantee of 12.  ROADMAP item 8 decides it."""
        scheduler = CapacityScheduler(num_queues=2)
        first = make_simple_job(num_tasks=30, mem=2, name="first")
        second = make_simple_job(num_tasks=30, mem=2, name="second")
        _, placements = schedule_once(scheduler, [first, second],
                                      num_machines=1)
        assert [p.task.job.name for p in placements] == ["first"] * 24
        assert scheduler._slots_used_by_queue == [24, 0]

    def test_runs_end_to_end(self):
        jobs = [make_simple_job(num_tasks=3, arrival_time=i)
                for i in range(3)]
        cluster = Cluster(2, machines_per_rack=2)
        Engine(cluster, CapacityScheduler(), jobs).run()
        assert all(j.is_finished for j in jobs)


class TestDRF:
    def test_lowest_dominant_share_served_first(self):
        # job a is memory-heavy, job b cpu-heavy
        a = make_simple_job(num_tasks=50, cpu=1, mem=12, name="a")
        b = make_simple_job(num_tasks=50, cpu=4, mem=1, name="b")
        cluster, placements = schedule_once(DRFScheduler(), [a, b],
                                            num_machines=1)
        by_job = {"a": 0, "b": 0}
        for p in placements:
            by_job[p.task.job.name] += 1
        # dominant shares equalize: a's memory share ~ b's cpu share
        a_share = by_job["a"] * 12 / 48
        b_share = by_job["b"] * 4 / 16
        assert abs(a_share - b_share) <= 0.25 + 1e-9
        assert by_job["a"] >= 1 and by_job["b"] >= 1

    def test_checks_only_its_dims(self):
        job = make_simple_job(num_tasks=10, cpu=2, mem=2)
        for task in job.all_tasks():
            task.demands.set("diskw", 150.0)
            task.work.write_mb = 100.0
        cluster, placements = schedule_once(DRFScheduler(), [job],
                                            num_machines=1)
        # disk would limit to 1 task; DRF happily places 8 (cpu-bound)
        assert len(placements) == 8

    def test_needs_dims(self):
        with pytest.raises(ValueError):
            DRFScheduler(dims=())

    def test_extended_dims(self):
        scheduler = DRFScheduler(dims=("cpu", "mem", "netin"))
        scheduler.locality_delay = 0  # accept remote slots immediately
        job = make_simple_job(num_tasks=10, cpu=1, mem=1)
        from repro.workload.task import TaskInput
        for task in job.all_tasks():
            task.demands.set("netin", 60.0)
            task.inputs.append(TaskInput(10, (99,)))
        # placing on machine 0, inputs at "machine 99" (remote) -> netin
        cluster, placements = schedule_once(scheduler, [job],
                                            num_machines=1)
        assert len(placements) == 2  # 125 // 60

    def test_runs_end_to_end(self):
        jobs = [make_simple_job(num_tasks=4, arrival_time=i)
                for i in range(3)]
        cluster = Cluster(2, machines_per_rack=2)
        Engine(cluster, DRFScheduler(), jobs).run()
        assert all(j.is_finished for j in jobs)
