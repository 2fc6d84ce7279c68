"""Tetris scheduler tests: packing, SRTF, fairness knob, barrier knob."""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL
from repro.schedulers.fairness_policy import (
    DRFFairnessPolicy,
    SlotFairnessPolicy,
)
from repro.schedulers.packing_only import PackingOnlyScheduler
from repro.schedulers.srtf import SRTFScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import TaskInput

from conftest import make_simple_job, make_task, make_two_stage_job


def schedule_once(scheduler, jobs, num_machines=2):
    cluster = Cluster(num_machines, machines_per_rack=2)
    scheduler.bind(cluster)
    for job in jobs:
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    return cluster, scheduler.schedule(0.0)


class TestConfigValidation:
    def test_defaults_are_paper_defaults(self):
        cfg = TetrisConfig()
        assert cfg.fairness_knob == 0.25
        assert cfg.barrier_knob == 0.9
        assert cfg.remote_penalty == 0.1
        assert cfg.scorer == "cosine"

    @pytest.mark.parametrize("field,value", [
        ("fairness_knob", 1.0),
        ("fairness_knob", -0.1),
        ("barrier_knob", 1.0),
        ("barrier_knob", 1.5),
        ("remote_penalty", 1.5),
        ("srtf_multiplier", -1),
        ("alignment_weight", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            TetrisConfig(**{field: value})


class TestNoOverAllocation:
    def test_full_vector_admission(self):
        """Only tasks whose peak demands fit are considered (Section 3.2),
        so booked demand never exceeds capacity on any dimension."""
        job = make_simple_job(num_tasks=20, cpu=1, mem=1)
        for task in job.all_tasks():
            task.demands.set("diskw", 80.0)
            task.work.write_mb = 100.0
        cluster, placements = schedule_once(TetrisScheduler(), [job],
                                            num_machines=1)
        assert len(placements) == 2  # diskw 200 // 80
        total = DEFAULT_MODEL.zeros()
        for p in placements:
            total.add_inplace(p.booked)
        assert total.fits_in(cluster.machine_capacity())

    def test_remote_source_headroom_checked(self):
        """A task reading remotely needs netout+diskr at the source."""
        cluster = Cluster(2, machines_per_rack=2)
        # saturate machine 1's netout in the scheduler's books
        blocker = make_task(netout=125)
        cluster.machine(1).place(blocker, blocker.demands)
        job = make_simple_job(num_tasks=1, cpu=1, mem=1)
        task = job.all_tasks()[0]
        task.demands.set("netin", 50.0)
        task.inputs.append(TaskInput(100, (1,)))
        scheduler = TetrisScheduler()
        scheduler.bind(cluster)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        placements = scheduler.schedule(0.0, machine_ids=[0])
        assert placements == []


class TestPacking:
    def test_complementary_tasks_share_a_machine(self):
        """A CPU-heavy and a memory-heavy job pack together instead of
        fragmenting."""
        cpu_job = make_simple_job(num_tasks=4, cpu=7, mem=2, name="cpu")
        mem_job = make_simple_job(num_tasks=4, cpu=1, mem=20, name="mem")
        cluster, placements = schedule_once(
            TetrisScheduler(TetrisConfig(fairness_knob=0.0)),
            [cpu_job, mem_job], num_machines=1,
        )
        placed_names = {p.task.job.name for p in placements}
        assert placed_names == {"cpu", "mem"}
        # 2 cpu tasks (14 cores, 4 GB) + 2 mem tasks (2 cores, 40 GB)
        assert len(placements) == 4

    def test_machine_prefers_its_local_task(self):
        """The remote penalty makes a machine pick the task whose input
        it holds over an equally-sized task with remote input.  The two
        variants are sized so their capacity-normalized demands tie
        (diskr 50/200 == netin 31.25/125); the 10% penalty then breaks
        the tie toward the local read."""
        cluster = Cluster(2, machines_per_rack=2)
        local = make_task(cpu=1, mem=1, diskr=50, netin=31.25, cpu_work=5,
                          inputs=[TaskInput(100.0, (0,))])
        remote = make_task(cpu=1, mem=1, diskr=50, netin=31.25, cpu_work=5,
                           inputs=[TaskInput(100.0, (1,))])
        job = Job([Stage("s", [remote, local])])
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        scheduler.bind(cluster)
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        placements = scheduler.schedule(0.0, machine_ids=[0])
        assert placements[0].task is local


class TestSRTFTerm:
    def test_small_job_preferred(self):
        """With identical task profiles, the job with fewer remaining
        tasks is served first (multi-resource SRTF, Section 3.3)."""
        small = make_simple_job(num_tasks=2, cpu=8, mem=8, name="small")
        big = make_simple_job(num_tasks=50, cpu=8, mem=8, name="big")
        cluster, placements = schedule_once(
            TetrisScheduler(TetrisConfig(fairness_knob=0.0)),
            [big, small], num_machines=1,
        )
        first_two = [p.task.job.name for p in placements[:2]]
        assert first_two == ["small", "small"]

    def test_packing_only_ignores_remaining_work(self):
        small = make_simple_job(num_tasks=2, cpu=8, mem=8, name="small")
        big = make_simple_job(num_tasks=50, cpu=8, mem=8, name="big")
        cluster, placements = schedule_once(
            PackingOnlyScheduler(), [big, small], num_machines=1
        )
        # identical alignment; order follows iteration, not job size
        assert len(placements) == 2

    def test_srtf_scheduler_orders_strictly_by_work(self):
        small = make_simple_job(num_tasks=2, cpu=2, mem=2, name="small")
        big = make_simple_job(num_tasks=40, cpu=2, mem=2, name="big")
        cluster, placements = schedule_once(
            SRTFScheduler(), [big, small], num_machines=1
        )
        assert [p.task.job.name for p in placements[:2]] == ["small"] * 2

    def test_ablation_constructors_validate(self):
        with pytest.raises(ValueError):
            SRTFScheduler(TetrisConfig(alignment_weight=1.0))
        with pytest.raises(ValueError):
            PackingOnlyScheduler(TetrisConfig(srtf_multiplier=1.0))


class TestFairnessKnob:
    def _two_jobs(self):
        starved = make_simple_job(num_tasks=10, cpu=2, mem=2,
                                  name="starved")
        greedy = make_simple_job(num_tasks=10, cpu=2, mem=2, name="greedy")
        return starved, greedy

    def test_knob_restricts_candidates(self):
        starved, greedy = self._two_jobs()
        cluster = Cluster(1)
        scheduler = TetrisScheduler(
            TetrisConfig(fairness_knob=0.5),
            fairness_policy=DRFFairnessPolicy(),
        )
        scheduler.bind(cluster)
        for job in (starved, greedy):
            job.arrive()
            scheduler.on_job_arrival(job, 0.0)
        # greedy already holds a big allocation
        scheduler.job_alloc[greedy.job_id].add_inplace(
            DEFAULT_MODEL.vector(cpu=10, mem=10)
        )
        candidates = scheduler.candidate_jobs()
        assert [j.name for j in candidates] == ["starved"]

    def test_knob_zero_considers_everyone(self):
        starved, greedy = self._two_jobs()
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.0))
        scheduler.bind(Cluster(1))
        for job in (starved, greedy):
            job.arrive()
            scheduler.on_job_arrival(job, 0.0)
        assert len(scheduler.candidate_jobs()) == 2

    def test_candidates_never_empty(self):
        job = make_simple_job(num_tasks=1)
        scheduler = TetrisScheduler(TetrisConfig(fairness_knob=0.99))
        scheduler.bind(Cluster(1))
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
        assert len(scheduler.candidate_jobs()) == 1

    def test_slot_fairness_policy_supported(self):
        job = make_simple_job(num_tasks=2)
        scheduler = TetrisScheduler(
            fairness_policy=SlotFairnessPolicy(slot_mem_gb=2.0)
        )
        cluster = Cluster(2, machines_per_rack=2)
        Engine(cluster, scheduler, [job]).run()
        assert job.is_finished


class TestBarrierKnob:
    def test_straggler_preference(self):
        """Once 90% of a stage is done, its stragglers win over tasks
        with better alignment."""
        job = make_two_stage_job(num_map=10, num_reduce=1)
        other = make_simple_job(num_tasks=20, cpu=8, mem=8, name="other")
        cluster = Cluster(1)
        scheduler = TetrisScheduler(
            TetrisConfig(fairness_knob=0.0, barrier_knob=0.9)
        )
        scheduler.bind(cluster)
        for j in (job, other):
            j.arrive()
            scheduler.on_job_arrival(j, 0.0)
        # finish 9 of 10 map tasks out-of-band
        for task in job.dag.roots()[0].tasks[:9]:
            task.mark_running(0, 0.0)
            task.mark_finished(1.0)
            scheduler.index.forget(task)
        placements = scheduler.schedule(1.0)
        assert placements[0].task.stage.name == "map"
        assert placements[0].task.job is job

    def test_barrier_disabled_at_zero(self):
        scheduler = TetrisScheduler(
            TetrisConfig(fairness_knob=0.0, barrier_knob=0.0)
        )
        scheduler.bind(Cluster(1))
        assert scheduler._barrier_stages([]) == set()


class TestRemotePenalty:
    def test_penalty_scales_alignment(self):
        cfg = TetrisConfig(remote_penalty=0.2)
        scheduler = TetrisScheduler(cfg)
        scheduler.bind(Cluster(2, machines_per_rack=2))
        demand = DEFAULT_MODEL.vector(cpu=2, mem=2)
        free = DEFAULT_MODEL.vector(cpu=16, mem=48)
        local = scheduler._score_alignment(demand, free, remote=False)
        remote = scheduler._score_alignment(demand, free, remote=True)
        assert remote == pytest.approx(0.8 * local)


class TestConsideredDims:
    def test_cpu_mem_only_tetris_over_allocates_io(self):
        """The Section 5.3.1 ablation: restricted to CPU+memory, Tetris
        books disk beyond capacity like the baselines."""
        job = make_simple_job(num_tasks=10, cpu=1, mem=1)
        for task in job.all_tasks():
            task.demands.set("diskw", 100.0)
            task.work.write_mb = 50.0
        scheduler = TetrisScheduler(
            TetrisConfig(considered_dims=("cpu", "mem"), fairness_knob=0.0)
        )
        cluster, placements = schedule_once(scheduler, [job],
                                            num_machines=1)
        assert len(placements) == 10  # full-dim Tetris would stop at 2


class TestEndToEnd:
    def test_mixed_workload_completes(self):
        jobs = [make_two_stage_job(num_map=4, num_reduce=2,
                                   arrival_time=i * 2.0)
                for i in range(4)]
        cluster = Cluster(4, machines_per_rack=2)
        Engine(cluster, TetrisScheduler(), jobs).run()
        assert all(j.is_finished for j in jobs)
