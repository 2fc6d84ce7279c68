"""The fair-share skeleton's identity bar and work-count guard.

``FairShareScheduler`` keeps the order incrementally and skips offers to
jobs with nothing left to claim.  Under delay scheduling an offer to a
job that *has* a candidate is a state transition, so the bar is the
strongest one available: for every baseline, the placement log (task,
machine, time, booked vector) hashes SHA-256-equal to the pre-skeleton
scheduler kept in ``baseline_oracles.py``, and the ``locality_defer``
event stream is byte-equal — across seeds, tracker on/off, every
``locality_delay`` regime, a heterogeneous cluster and injected task
failures.  The guard at the bottom compares work as counts, never as
time: counts repeat exactly run to run.
"""

import cProfile
import gc
import hashlib
import json
import pstats

import pytest

from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker
from repro.obs.trace import DecisionTrace
from repro.resources import DEFAULT_MODEL
from repro.schedulers.fair_share import FairShareScheduler
from repro.schedulers.registry import build_scheduler
from repro.sim.engine import Engine, EngineConfig
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

from baseline_oracles import ORACLES

BASELINES = sorted(ORACLES)
SEEDS = (0, 1, 11)


def _trace(seed, num_jobs=6):
    return generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=num_jobs,
            task_scale=0.04,
            arrival_horizon=150.0,
            seed=seed,
        )
    )


def _mixed_cluster(seed):
    big = DEFAULT_MODEL.vector(cpu=32, mem=96, diskr=400, diskw=400,
                               netin=250, netout=250)
    small = DEFAULT_MODEL.vector(cpu=8, mem=24, diskr=100, diskw=100,
                                 netin=60, netout=60)
    return Cluster(6, machines_per_rack=3, seed=seed,
                   machine_capacities=[big, big, big, small, small, small])


def _engine(scheduler, seed, tracker=False, delay=None, mixed=False,
            failure_prob=0.0, num_jobs=6, num_machines=6):
    cluster = (
        _mixed_cluster(seed) if mixed else Cluster(num_machines, seed=seed)
    )
    jobs = materialize_trace(_trace(seed, num_jobs), cluster, seed=seed)
    scheduler.locality_delay = delay
    return Engine(
        cluster,
        scheduler,
        jobs,
        tracker=ResourceTracker(cluster) if tracker else None,
        config=EngineConfig(seed=seed, task_failure_prob=failure_prob),
        decision_trace=DecisionTrace(),
    )


def _fingerprint(engine):
    """(placements, SHA-256 of the placement log, locality_defer bytes)."""
    engine.run()
    assert all(job.is_finished for job in engine.jobs)
    digest = hashlib.sha256()
    for task, machine_id, time, booked in engine.placement_log:
        digest.update(
            repr((task.job.name, task.stage.name, task.index, machine_id,
                  time)).encode()
        )
        digest.update(booked.data.tobytes())
    defers = "\n".join(
        json.dumps(event, separators=(",", ":"))
        for event in engine.trace.events("locality_defer")
    ).encode()
    return len(engine.placement_log), digest.hexdigest(), defers


def _assert_identical(name, **kwargs):
    got = _fingerprint(_engine(build_scheduler(name), **kwargs))
    want = _fingerprint(_engine(ORACLES[name](), **kwargs))
    assert got[0] == want[0] > 0
    assert got[1] == want[1], "placement logs differ"
    assert got[2] == want[2], "locality_defer streams differ"
    return got


class TestBaselineIdentity:
    @pytest.mark.parametrize("delay", [None, 0, 3])
    @pytest.mark.parametrize("tracker", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", BASELINES)
    def test_matches_oracle(self, name, seed, tracker, delay):
        _assert_identical(name, seed=seed, tracker=tracker, delay=delay)

    @pytest.mark.parametrize("name", BASELINES)
    def test_delay_scheduling_is_exercised(self, name):
        """The matrix is only a bar if offers are really declined."""
        _, _, defers = _assert_identical(name, seed=0, delay=3)
        assert defers.count(b"\n") > 10

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", BASELINES)
    def test_heterogeneous_cluster(self, name, seed):
        _assert_identical(name, seed=seed, mixed=True, tracker=True)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", BASELINES)
    def test_injected_task_failures(self, name, seed):
        engine = _engine(build_scheduler(name), seed=seed, failure_prob=0.25)
        got = _fingerprint(engine)
        assert engine.collector.task_failures > 0
        want = _fingerprint(
            _engine(ORACLES[name](), seed=seed, failure_prob=0.25)
        )
        assert got == want

    @pytest.mark.parametrize("name", BASELINES)
    def test_open_counts_match_the_index(self, name):
        """``_open`` (kept from callbacks) equals a recount of eligible
        tasks through the index at every round, failures included."""
        scheduler = build_scheduler(name)
        engine = _engine(scheduler, seed=1, failure_prob=0.2)
        inner = scheduler.schedule

        def checked(time, machine_ids=None):
            for job in scheduler.active_jobs:
                eligible = sum(
                    scheduler.index._eligible(task)
                    for stage in job.dag
                    if stage.stage_id in scheduler.index._entries
                    for task in stage.tasks
                )
                assert scheduler._open[job.job_id] == eligible
            return inner(time, machine_ids)

        scheduler.schedule = checked
        engine.run()
        assert scheduler._open == {}
        assert getattr(scheduler, "_arrival_pos", {}) == {}


class TestOneSkeleton:
    def test_baselines_share_the_loop(self):
        for name in BASELINES:
            cls = type(build_scheduler(name))
            assert issubclass(cls, FairShareScheduler)
            assert cls.schedule is FairShareScheduler.schedule or name in (
                "capacity", "drf"  # pre/post-round bookkeeping only
            )


class TestWorkCounts:
    """Counts, not clocks (ROADMAP item 1: they repeat exactly)."""

    @staticmethod
    def _profiled(scheduler):
        engine = _engine(scheduler, seed=0, tracker=True, num_jobs=12,
                         num_machines=24)
        gc.collect()  # earlier tests' finalizers are calls too
        profile = cProfile.Profile()
        profile.runcall(engine.run)
        return engine, pstats.Stats(profile).total_calls

    def test_slot_fair_leg_does_half_the_calls(self):
        builds = []
        oracle = ORACLES["slot-fair"]()
        order = oracle._job_order
        oracle._job_order = lambda: builds.append(1) or order()
        _, oracle_calls = self._profiled(oracle)

        scheduler = build_scheduler("slot-fair")
        engine, calls = self._profiled(scheduler)
        rounds = len(engine.round_log)
        assert 0 < scheduler.order_builds <= rounds < len(builds)
        assert calls <= 0.5 * oracle_calls, (calls, oracle_calls)

    def test_counts_repeat_exactly(self):
        first = self._profiled(build_scheduler("slot-fair"))[1]
        assert first == self._profiled(build_scheduler("slot-fair"))[1]
