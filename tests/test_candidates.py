"""Properties of the per-stage candidate rows (``StageRows``).

Covers the invariants the Tetris round rests on:

- locality: a task's rows are remote exactly on the machines holding
  none of its input, and the booked vector is adjusted accordingly;
- capacity classes: the stage-queue front is booked once per class
  away from its input holders and once per holder, so heterogeneous
  clusters never share a row between byte-different capacities;
- invalidation: rows survive completions under a stable estimator and
  are dropped when an unstable estimator may revise estimates, when
  shuffle resolution re-pins a stage's inputs and when a stage drains;
- the round table refreshes exactly the claimed stage's rows;
- after any interleaving of the stage index's eligibility changes,
  every row equals the lookup and the booking recomputed from scratch,
  and only moved fronts are re-resolved — lazily, on the machines that
  are read.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.resources import DEFAULT_MODEL
from repro.schedulers.candidates import CandidateIndex
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


def _count_bookings(monkeypatch, candidates):
    booked = []
    book = candidates._book
    monkeypatch.setattr(
        candidates, "_book",
        lambda out, task, m: booked.append(m) or book(out, task, m),
    )
    return booked


locations = st.lists(
    st.integers(min_value=0, max_value=7),
    min_size=0,
    max_size=3,
    unique=True,
).map(tuple)


class TestLocality:
    @given(locs=locations)
    @settings(max_examples=60, deadline=None)
    def test_rep_row_is_remote_exactly_off_its_holders(self, locs):
        job, (task,) = _job_with_inputs([TaskInput(64.0, locs)])
        scheduler = _bound_scheduler(Cluster(8, seed=0), job)
        rows = scheduler.candidates.stage_rows(next(iter(job.dag)))
        scheduler.candidates.resolve(rows)
        assert rows.rep is task
        assert sorted(rows.holders) == sorted(locs)
        for m in range(8):
            # on a holder the rep is the pool front: scored in plane 0
            plane = 0 if m in locs else 1
            assert rows.active[plane, m] and not rows.active[1 - plane, m]
            assert bool(rows.remote[plane, m]) == (m not in locs)
            want = scheduler.booked_demands(task, m)
            assert rows.booked[plane, m].tobytes() == want.data.tobytes()

    def test_rows_keep_locality_decisions_apart(self):
        """Two peers whose only difference is where their input lives:
        each is local (netin adjusted away) only where its replica is."""
        job, (local, remote) = _job_with_inputs(
            [TaskInput(64.0, (0,))], [TaskInput(64.0, (1,))]
        )
        scheduler = _bound_scheduler(Cluster(3, seed=0), job)
        candidates = scheduler.candidates
        rows = candidates.stage_rows(next(iter(job.dag)))
        candidates.resolve(rows)
        assert rows.tasks == [local, remote, None]
        assert rows.rep is local
        # machine 0: the rep is its own pool front, scored once
        assert rows.active[0, 0] and not rows.active[1, 0]
        assert not rows.remote[0, 0]
        assert rows.booked[0, 0][DEFAULT_MODEL.index["netin"]] == 0.0
        # machine 1: its pool front and the (remote) rep are distinct
        assert rows.active[0, 1] and rows.active[1, 1]
        assert not rows.remote[0, 1] and rows.remote[1, 1]
        assert rows.booked[1, 1][DEFAULT_MODEL.index["netin"]] > 0.0


class TestEstimateRevisionInvalidation:
    def test_unstable_estimator_revision_drops_rows(self):
        """Under a ProfilingEstimator a completion can move every peer
        mean, so no row may be served afterwards."""
        job = make_simple_job(num_tasks=4, cpu=2.0, mem=3.0)
        job.arrive()
        scheduler = _bound_scheduler(
            Cluster(2, seed=0), job, estimator=ProfilingEstimator()
        )
        stage = next(iter(job.dag))
        tasks = job.all_tasks()
        before = scheduler.candidates.stage_rows(stage)
        # one peer finishes: the estimator's peer statistics (and with
        # them the whole stage's estimates) may shift
        tasks[1].mark_running(1, 0.0)
        tasks[1].mark_finished(5.0)
        scheduler.on_task_finished(tasks[1], 5.0)
        assert scheduler.candidates._stage_rows == {}
        assert scheduler.candidates.invalidations["full"] >= 1
        after = scheduler.candidates.stage_rows(stage)
        assert after is not before
        want = scheduler.booked_demands(after.rep, 0)
        assert after.booked[1, 0].tobytes() == want.data.tobytes()

    def test_stable_estimator_keeps_rows(self, monkeypatch):
        """The default oracle estimator never revises: a completion of a
        task that is not the rep books nothing again."""
        job = make_simple_job(num_tasks=4)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        stage = next(iter(job.dag))
        tasks = job.all_tasks()
        rows = scheduler.candidates.stage_rows(stage)
        booked = _count_bookings(monkeypatch, scheduler.candidates)
        scheduler.index.claim(tasks[1])
        tasks[1].mark_running(1, 0.0)
        tasks[1].mark_finished(5.0)
        scheduler.on_task_finished(tasks[1], 5.0)
        assert scheduler.candidates.stage_rows(stage) is rows
        assert booked == []


class TestCapacityClasses:
    def test_homogeneous_cluster_books_the_rep_once(self, monkeypatch):
        """An input-free rep is booked once for the whole cluster."""
        job = make_simple_job(num_tasks=2)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(3, seed=0), job)
        booked = _count_bookings(monkeypatch, scheduler.candidates)
        rows = scheduler.candidates.stage_rows(next(iter(job.dag)))
        assert len(booked) == 1
        assert rows.active[1].all()
        assert (rows.booked[1] == rows.booked[1, 0]).all()

    def test_heterogeneous_capacities_book_once_per_class(self, monkeypatch):
        """Byte-different capacity vectors are different classes: a rate
        capped at capacity books differently on each."""
        small = DEFAULT_MODEL.vector(
            cpu=8, mem=32, diskr=100, diskw=100, netin=100, netout=100
        )
        big = small * 2.0
        cluster = Cluster(3, machine_capacities=[small, small, big], seed=0)
        job = make_simple_job(num_tasks=2, cpu=2.0, mem=4.0)
        for task in job.all_tasks():
            task.demands.set("diskw", 150.0)
        job.arrive()
        scheduler = _bound_scheduler(cluster, job)
        booked = _count_bookings(monkeypatch, scheduler.candidates)
        rows = scheduler.candidates.stage_rows(next(iter(job.dag)))
        assert sorted(booked) == [0, 2]
        diskw = DEFAULT_MODEL.index["diskw"]
        assert rows.booked[1, 0][diskw] == rows.booked[1, 1][diskw] == 100.0
        assert rows.booked[1, 2][diskw] == 150.0
        for m in range(3):
            want = scheduler.booked_demands(rows.rep, m)
            assert rows.booked[1, m].tobytes() == want.data.tobytes()

    def test_holders_book_their_own_rep_row(self, monkeypatch):
        """Equal capacities share the rep's row only away from its
        input; on the machine holding the replica the rep is booked
        when the row is read — once, as that machine's pool front."""
        job, (task,) = _job_with_inputs([TaskInput(64.0, (1,))])
        scheduler = _bound_scheduler(Cluster(3, seed=0), job)
        booked = _count_bookings(monkeypatch, scheduler.candidates)
        rows = scheduler.candidates.stage_rows(next(iter(job.dag)))
        assert booked == [0]
        assert rows.stale[1].tolist() == [False, True, False]
        scheduler.candidates.resolve(rows)
        # the rep is machine 1's pool front: booked once, in plane 0
        assert booked == [0, 1]
        assert rows.active[0, 1] and not rows.active[1, 1]
        assert rows.remote[1, 0] and rows.remote[1, 2]
        assert not rows.remote[0, 1]
        assert (rows.booked[1, 0] == rows.booked[1, 2]).all()


class TestRoundTable:
    def test_claim_refreshes_the_claimed_stage(self):
        """A claim moves the rep for every machine not yet visited — a
        stale rep would let two machines place the same task."""
        job = make_simple_job(num_tasks=3)
        job.arrive()
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        stage = next(iter(job.dag))
        table = scheduler.candidates.round_table(
            [job], lambda j: 0.0, lambda s: False
        )
        rows = table.rows[0]
        rep = rows.rep
        assert rep is not None and table.task_at(1, 0) is rep
        scheduler.index.claim(rep)
        assert table.refresh(stage) == 0
        assert rows.rep is not None and rows.rep is not rep
        assert table.task_at(1, 1) is rows.rep

    def test_refresh_unknown_stage_is_a_noop(self):
        job = make_simple_job(num_tasks=1)
        job.arrive()
        other = make_simple_job(num_tasks=1)
        scheduler = _bound_scheduler(Cluster(1, seed=0), job)
        table = scheduler.candidates.round_table(
            [job], lambda j: 0.0, lambda s: False
        )
        assert table.refresh(next(iter(other.dag))) is None

    def test_gather_reads_row_two_si_plus_slot(self):
        jobs = [make_simple_job(num_tasks=2, cpu=c) for c in (1.0, 3.0)]
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(2, seed=0))
        for job in jobs:
            job.arrive()
            scheduler.on_job_arrival(job, 0.0)
        table = scheduler.candidates.round_table(
            jobs, lambda j: 0.0, lambda s: False
        )
        booked, remote, active = scheduler.candidates.gather(table, 1)
        assert booked.shape == (4, DEFAULT_MODEL.dims)
        assert active.tolist() == [False, True, False, True]
        cpu = DEFAULT_MODEL.index["cpu"]
        assert booked[1, cpu] == 1.0 and booked[3, cpu] == 3.0


class TestPooledPlanes:
    def test_slots_recycle_and_rows_follow_growth(self):
        """Past the first pool size the planes are reallocated: every
        live stage's rows are views into the new planes."""
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(2, seed=0))
        jobs = [make_simple_job(num_tasks=1, cpu=0.5 * (i + 1)) for i in range(20)]
        for job in jobs:
            job.arrive()
            scheduler.on_job_arrival(job, 0.0)
        candidates = scheduler.candidates
        rows = [candidates.stage_rows(next(iter(j.dag))) for j in jobs]
        assert candidates.booked.shape[0] >= 20
        cpu = DEFAULT_MODEL.index["cpu"]
        for i, r in enumerate(rows):
            assert r.booked.base is candidates.booked
            assert candidates.booked[r.slot, 1, 0, cpu] == 0.5 * (i + 1)
        slot = rows[3].slot
        task = jobs[3].all_tasks()[0]
        scheduler.index.claim(task)
        task.mark_running(0, 0.0)
        task.mark_finished(1.0)
        scheduler.on_task_finished(task, 1.0)
        fresh = make_simple_job(num_tasks=1)
        fresh.arrive()
        scheduler.on_job_arrival(fresh, 1.0)
        assert candidates.stage_rows(next(iter(fresh.dag))).slot == slot

    def test_bind_resets_the_planes(self):
        candidates = CandidateIndex()
        assert candidates.booked.shape[0] == 0
        scheduler = TetrisScheduler()
        scheduler.bind(Cluster(3, seed=0))
        assert scheduler.candidates.booked.shape[1:] == (
            2, 3, DEFAULT_MODEL.dims,
        )


# -- the maintained stage rows ---------------------------------------------------

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
    """The analogue of ``oracle_available``: refresh the stage's
    maintained rows through their dirty entries, then recompute every
    row from scratch — the lookup through ``StageIndex``, the booking
    through ``booked_demands`` — and compare byte for byte."""
    index = scheduler.index
    rep = index.any_candidate(stage)
    rows = scheduler.candidates.stage_rows(stage)
    scheduler.candidates.resolve(rows)
    assert rows.rep is rep
    assert not rows.stale.any()
    for m in range(scheduler.cluster.num_machines):
        local = index.local_candidate(stage, m)
        assert rows.tasks[m] is local
        want = (local, None if rep is local else rep)
        for plane, task in enumerate(want):
            assert bool(rows.active[plane, m]) == (task is not None)
            if task is None:
                continue
            expect = scheduler.booked_demands(task, m)
            assert rows.booked[plane, m].tobytes() == expect.data.tobytes()
            assert bool(rows.remote[plane, m]) == (
                task.remote_input_mb(m) > 0
            )


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
        """Fronts are re-resolved lazily, on the machines read; a claim
        marks the pools on the claimed task's input machines and
        nothing else; a quiet stage re-resolves nothing."""
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
        rows = candidates.stage_rows(stage)
        assert looked_up == []
        assert rows.stale[0].tolist() == [True, True, True, False]
        assert rows.stale[1].tolist() == [True, True, False, False]
        candidates.resolve(rows, [2])
        assert looked_up == [2]
        candidates.resolve(rows)
        assert sorted(looked_up) == [0, 1, 2]
        del looked_up[:]
        candidates.resolve(candidates.stage_rows(stage))
        assert looked_up == []
        index.claim(tasks[0])
        rows = candidates.stage_rows(stage)
        candidates.resolve(rows)
        assert sorted(looked_up) == [0, 1]
        assert rows.tasks[:3] == [tasks[2], None, tasks[1]]
        assert rows.rep is tasks[1]

    def test_rows_dropped_on_invalidation(self):
        job, tasks = _job_with_inputs([TaskInput(64.0, (0,))])
        scheduler = _bound_scheduler(Cluster(2, seed=0), job)
        stage = next(iter(job.dag))
        candidates = scheduler.candidates
        for drop in (
            lambda: candidates.invalidate_stage(stage),
            candidates.clear,
            lambda: scheduler.bind(scheduler.cluster),
        ):
            candidates.stage_rows(stage)
            assert stage.stage_id in candidates._stage_rows
            drop()
            assert candidates._stage_rows == {}
        assert candidates.invalidations == {"full": 1, "shuffle": 1}
