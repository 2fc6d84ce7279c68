"""Properties of the signature-grouped candidate index (ISSUE 5).

Covers the grouping invariants the incremental scheduling core rests on:

- tasks whose remote-input locations differ never share a signature
  group (locality decisions are never cross-contaminated);
- cached group packs are invalidated when the estimator revises a
  stage's demands (unstable estimates flush the index) and when shuffle
  resolution re-pins a stage's inputs;
- machine-equivalence classes: machines agreeing on (capacity vector,
  which-inputs-are-local pattern) share one computed pack, while
  heterogeneous capacities and differing locality patterns get their
  own;
- the round table's cross-machine cache of each stage's queue-front
  representative, and its invalidation when a claim consumes the rep;
- the maintained per-stage rows behind the placeability plane
  (``StageRows``): after any interleaving of the stage index's
  eligibility changes, every row equals the lookup and the booking
  recomputed from scratch.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.resources import DEFAULT_MODEL
from repro.schedulers.candidates import CandidateIndex, signature_of
from repro.schedulers.tetris import TetrisScheduler
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import TaskInput

from conftest import make_simple_job, make_task


def _job_with_inputs(*inputs_per_task, netin=5.0):
    """One single-stage job; task ``i`` reads ``inputs_per_task[i]``."""
    tasks = [
        make_task(netin=netin, diskr=5.0, inputs=list(inputs))
        for inputs in inputs_per_task
    ]
    job = Job([Stage("s", tasks)])
    job.arrive()
    return job, tasks


def _bound_scheduler(cluster, job, estimator=None, time=0.0):
    scheduler = TetrisScheduler()
    scheduler.bind(cluster, estimator=estimator)
    scheduler.on_job_arrival(job, time)
    return scheduler


locations = st.lists(
    st.integers(min_value=0, max_value=7),
    min_size=0,
    max_size=3,
    unique=True,
).map(tuple)


class TestSignatureGrouping:
    @given(loc_a=locations, loc_b=locations)
    @settings(max_examples=80, deadline=None)
    def test_different_locations_never_share_a_group(self, loc_a, loc_b):
        """Same stage, same demands, same input size — the signatures
        coincide iff the replica locations do."""
        job, (task_a, task_b) = _job_with_inputs(
            [TaskInput(64.0, loc_a)], [TaskInput(64.0, loc_b)]
        )
        sig_a = signature_of(task_a, task_a.demands)
        sig_b = signature_of(task_b, task_b.demands)
        assert (sig_a == sig_b) == (loc_a == loc_b)

    def test_grouping_keeps_locality_decisions_apart(self):
        """Two peers whose only difference is where their input lives
        end up in distinct groups with distinct remote flags."""
        job, (local, remote) = _job_with_inputs(
            [TaskInput(64.0, (0,))], [TaskInput(64.0, (1,))]
        )
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        pack_local = scheduler.candidates.pack(local, 0)
        pack_remote = scheduler.candidates.pack(remote, 0)
        assert scheduler.candidates.num_groups == 2
        assert pack_local[2] is False  # input replica on machine 0
        assert pack_remote[2] is True
        # netin is adjusted away only for the all-local placement
        assert pack_local[0].get("netin") == 0.0
        assert pack_remote[0].get("netin") > 0.0


class TestEstimateRevisionInvalidation:
    def test_unstable_estimator_revision_flushes_group_reuse(self):
        """Under a ProfilingEstimator a completion can move every peer
        mean, so a cached group pack must not be served afterwards."""
        job = make_simple_job(num_tasks=4, cpu=2.0, mem=3.0)
        job.arrive()
        scheduler = _bound_scheduler(
            Cluster(2, seed=0), job, estimator=ProfilingEstimator()
        )
        tasks = job.all_tasks()
        before = scheduler.candidates.pack(tasks[0], 0)
        assert scheduler.candidates.num_groups >= 1
        misses_before = scheduler.candidates.stats["misses"]
        # one peer finishes: the estimator's peer statistics (and with
        # them the whole stage's estimates) may shift
        tasks[1].mark_running(1, 0.0)
        tasks[1].mark_finished(5.0)
        scheduler.on_task_finished(tasks[1], 5.0)
        assert scheduler.candidates.num_groups == 0
        assert scheduler.candidates.stats["invalidations"] >= 1
        after = scheduler.candidates.pack(tasks[0], 0)
        assert scheduler.candidates.stats["misses"] == misses_before + 1
        assert after is not before

    def test_stable_estimator_keeps_group_reuse(self):
        """The default oracle estimator never revises: peers keep
        hitting the cached pack across completions."""
        job = make_simple_job(num_tasks=4)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        tasks = job.all_tasks()
        before = scheduler.candidates.pack(tasks[0], 0)
        tasks[1].mark_running(1, 0.0)
        tasks[1].mark_finished(5.0)
        scheduler.on_task_finished(tasks[1], 5.0)
        assert scheduler.candidates.pack(tasks[2], 0) is before


class TestMachineEquivalenceClasses:
    def test_homogeneous_machines_share_one_pack(self):
        """An input-free group computes one pack for the whole cluster."""
        job = make_simple_job(num_tasks=2)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(3, seed=0), job)
        task = job.all_tasks()[0]
        first = scheduler.candidates.pack(task, 0)
        assert scheduler.candidates.pack(task, 1) is first
        assert scheduler.candidates.pack(task, 2) is first
        assert scheduler.candidates.stats["misses"] == 1
        assert scheduler.candidates.stats["hits"] == 2

    def test_heterogeneous_capacities_get_distinct_packs(self):
        """Byte-different capacity vectors are different classes: the
        capacity-normalized rows must not be shared between them."""
        small = DEFAULT_MODEL.vector(
            cpu=8, mem=32, diskr=100, diskw=100, netin=100, netout=100
        )
        big = small * 2.0
        cluster = Cluster(3, machine_capacities=[small, small, big], seed=0)
        job = make_simple_job(num_tasks=2, cpu=2.0, mem=4.0)
        job.arrive()
        scheduler = _bound_scheduler(cluster, job)
        task = job.all_tasks()[0]
        on_small = scheduler.candidates.pack(task, 0)
        assert scheduler.candidates.pack(task, 1) is on_small
        on_big = scheduler.candidates.pack(task, 2)
        assert on_big is not on_small
        assert scheduler.candidates.stats["misses"] == 2
        # same demand, twice the capacity: half the normalized row
        np.testing.assert_allclose(on_big[1], on_small[1] / 2.0)

    def test_local_input_pattern_splits_the_class(self):
        """Equal capacities share a pack only when the same inputs are
        replica-local; the machine holding the replica packs its own."""
        job, (task,) = _job_with_inputs([TaskInput(64.0, (1,))])
        scheduler = _bound_scheduler(Cluster(3, seed=0), job)
        remote_a = scheduler.candidates.pack(task, 0)
        local = scheduler.candidates.pack(task, 1)
        remote_b = scheduler.candidates.pack(task, 2)
        assert remote_b is remote_a
        assert local is not remote_a
        assert local[2] is False and remote_a[2] is True
        assert scheduler.candidates.stats["misses"] == 2


class TestRoundTableRepCache:
    def test_claim_invalidates_cached_queue_front(self):
        """The cross-machine rep cache must be refreshed after a claim —
        a stale entry would let two machines place the same task."""
        job = make_simple_job(num_tasks=3)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        stage = next(iter(job.dag))
        table = scheduler.candidates.round_table(
            scheduler.index, [job], lambda j: 0.0, set()
        )
        rep = table.any_rep_for(0, stage, scheduler.index)
        assert rep is not None
        scheduler.index.claim(rep)
        # cached until told otherwise (claims happen at one choke point)
        assert table.any_rep_for(0, stage, scheduler.index) is rep
        table.invalidate_stage_rep(stage.stage_id)
        fresh = table.any_rep_for(0, stage, scheduler.index)
        assert fresh is not None and fresh is not rep

    def test_invalidate_unknown_stage_is_a_noop(self):
        job = make_simple_job(num_tasks=1)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(1, seed=0), job)
        table = scheduler.candidates.round_table(
            scheduler.index, [job], lambda j: 0.0, set()
        )
        table.invalidate_stage_rep(999_999)  # must not raise


# -- the maintained stage rows behind the placeability plane --------------------

_NUM_MACHINES = 5

_task_inputs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 16.0, 64.0]),
        st.lists(
            st.integers(0, _NUM_MACHINES - 1), max_size=3, unique=True
        ).map(tuple),
    ),
    max_size=3,
)

#: demands on both sides of the 125 MB/s NIC and 200 MB/s disk caps
_task_specs = st.lists(
    st.tuples(
        _task_inputs,
        st.sampled_from([5.0, 124.0, 300.0]),
        st.sampled_from([5.0, 250.0]),
    ),
    min_size=1,
    max_size=6,
)

_index_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["claim", "start", "fail", "finish", "requeue", "forget",
             "reset_claims", "refresh"]
        ),
        st.integers(0, 5),
    ),
    max_size=40,
)


def assert_stage_rows_match_oracle(scheduler, stage):
    """The plane's analogue of ``oracle_available``: refresh the stage's
    maintained rows through their dirty entries, then recompute every
    row from scratch — the lookup through ``StageIndex``, the booking
    through ``booked_demands`` — and compare byte for byte."""
    index = scheduler.index
    rep = index.any_candidate(stage)
    rows = scheduler.candidates.stage_rows(index, stage, rep)
    assert rows.rep is rep
    for m in range(scheduler.cluster.num_machines):
        for plane, task in enumerate((index.local_candidate(stage, m), rep)):
            if plane == 0:
                assert rows.tasks[m] is task
            assert bool(rows.active[plane, m]) == (task is not None)
            if task is None:
                continue
            want = scheduler.booked_demands(task, m)
            assert rows.booked[plane, m].tobytes() == want.data.tobytes()
            assert bool(rows.remote[plane, m]) == (
                task.remote_input_mb(m) > 0
            )
            booked, _, remote = scheduler.candidates.pack(task, m)
            assert booked.data.tobytes() == want.data.tobytes()
            assert remote == bool(rows.remote[plane, m])


class TestStageRowsOracle:
    @given(specs=_task_specs, ops=_index_ops)
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_lookup_and_booking_from_scratch(self, specs, ops):
        """Random interleavings of ``claim`` / ``requeue`` / ``forget`` /
        ``reset_claims`` (with the state transitions the engine makes
        around them, and without) and refreshes at arbitrary points:
        whenever the rows are refreshed, they equal a from-scratch
        recomputation.  Nobody but the index is told what changed."""
        tasks = [
            make_task(
                netin=netin, diskr=diskr,
                inputs=[TaskInput(size, locs) for size, locs in inputs],
            )
            for inputs, netin, diskr in specs
        ]
        job = Job([Stage("s", tasks)])
        job.arrive()
        scheduler = _bound_scheduler(Cluster(_NUM_MACHINES, seed=0), job)
        stage = next(iter(job.dag))
        index = scheduler.index
        assert_stage_rows_match_oracle(scheduler, stage)
        for kind, i in ops:
            task = tasks[i % len(tasks)]
            state = task.state.name
            if kind == "claim" and index._eligible(task):
                index.claim(task)
            elif kind == "start" and state == "RUNNABLE":
                index.claim(task)
                task.mark_running(0, 0.0)
            elif kind == "fail" and state == "RUNNING":
                # the engine's order: requeue first, then the state flips
                index.requeue(task)
                task.mark_failed(1.0)
            elif kind == "finish" and state == "RUNNING":
                task.mark_finished(1.0)
                index.forget(task)
                if stage.is_finished():
                    return
            elif kind == "requeue" and state == "RUNNABLE":
                index.requeue(task)
            elif kind == "forget" and state == "RUNNABLE":
                index.forget(task)  # un-claims a task that never started
            elif kind == "reset_claims":
                index.reset_claims()
            elif kind == "refresh":
                assert_stage_rows_match_oracle(scheduler, stage)
        assert_stage_rows_match_oracle(scheduler, stage)

    def test_only_moved_fronts_are_re_resolved(self, monkeypatch):
        """A claim re-resolves the pools on the claimed task's input
        machines and nothing else; a quiet stage re-resolves nothing."""
        job, tasks = _job_with_inputs(
            [TaskInput(64.0, (0, 1))],
            [TaskInput(64.0, (2,))],
            [TaskInput(64.0, (0,))],
        )
        scheduler = _bound_scheduler(Cluster(4, seed=0), job)
        stage = next(iter(job.dag))
        index, candidates = scheduler.index, scheduler.candidates
        looked_up = []
        lookup = index.local_candidate
        monkeypatch.setattr(
            index, "local_candidate",
            lambda s, m: looked_up.append(m) or lookup(s, m),
        )
        candidates.stage_rows(index, stage, tasks[0])
        assert sorted(looked_up) == [0, 1, 2]
        del looked_up[:]
        candidates.stage_rows(index, stage, tasks[0])
        assert looked_up == []
        index.claim(tasks[0])
        rows = candidates.stage_rows(index, stage, index.any_candidate(stage))
        assert sorted(looked_up) == [0, 1]
        assert rows.tasks[:3] == [tasks[2], None, tasks[1]]
        assert rows.rep is tasks[1]

    def test_rows_go_where_the_packs_go(self):
        job, tasks = _job_with_inputs([TaskInput(64.0, (0,))])
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        stage = next(iter(job.dag))
        candidates = scheduler.candidates
        for drop in (
            lambda: candidates.invalidate_stage(stage),
            candidates.clear,
            lambda: scheduler.bind(scheduler.cluster),
        ):
            candidates.stage_rows(scheduler.index, stage, tasks[0])
            assert stage.stage_id in candidates._stage_rows
            drop()
            assert candidates._stage_rows == {}
