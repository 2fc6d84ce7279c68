"""Resource tracker tests (Sections 4.1 and 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.estimation.tracker import ResourceTracker, TrackerConfig
from repro.resources import DEFAULT_MODEL, EPSILON, ResourceVector
from repro.sim.fluid import FlowSpec, FlowTable

from conftest import make_task


def oracle_available(tracker, machine, time=None):
    """The scalar availability formula the plane replaced — one machine
    at a time through ``ResourceVector`` objects, walking every live
    placement in the cluster.  Kept here as the bit-identity oracle for
    ``ResourceTracker.available_matrix``."""
    if time is None:
        time = tracker.last_report_time
    allowance = ResourceVector.zeros_like(machine.capacity)
    ramp = tracker.config.ramp_seconds
    if ramp > 0:
        for placed_time, machine_id, booked in tracker._placements.values():
            if machine_id != machine.machine_id:
                continue
            age = time - placed_time
            if age < ramp:
                allowance.add_inplace(booked * (1.0 - age / ramp))
    model = machine.capacity.model
    used = machine.observed_usage + allowance
    for name, fluid in zip(model.names, model.fluid_mask):
        if not fluid:
            used.set(name, max(used.get(name), machine.allocated.get(name)))
    return (machine.capacity - used).clamp_nonnegative()


@pytest.fixture
def cluster():
    return Cluster(2, machines_per_rack=2)


@pytest.fixture
def flows(cluster):
    return FlowTable(
        cluster.model, [m.capacity.data for m in cluster.machines]
    )


class TestReports:
    def test_observed_usage_reflects_flows(self, cluster, flows):
        flows.add_flow(
            FlowSpec(work=1000, nominal_rate=80, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster)
        tracker.report(10.0, flows)
        assert cluster.machine(0).observed_usage.get("diskw") == pytest.approx(80)
        assert cluster.machine(1).observed_usage.get("diskw") == 0.0

    def test_rigid_usage_from_allocation(self, cluster, flows):
        cluster.machine(0).place(make_task(mem=10))
        tracker = ResourceTracker(cluster)
        tracker.report(0.0, flows)
        assert cluster.machine(0).observed_usage.get("mem") == 10


class TestRampAllowance:
    def test_allowance_decays_linearly(self, cluster):
        tracker = ResourceTracker(
            cluster, TrackerConfig(ramp_seconds=10.0)
        )
        task = make_task(cpu=4)
        booked = DEFAULT_MODEL.vector(cpu=4)
        tracker.note_placement(task, 0, booked, time=0.0)
        machine = cluster.machine(0)
        assert tracker.ramp_allowance(machine, 0.0).get("cpu") == pytest.approx(4)
        assert tracker.ramp_allowance(machine, 5.0).get("cpu") == pytest.approx(2)
        assert tracker.ramp_allowance(machine, 10.0).get("cpu") == 0.0

    def test_completion_clears_allowance(self, cluster):
        tracker = ResourceTracker(cluster)
        task = make_task(cpu=4)
        tracker.note_placement(task, 0, DEFAULT_MODEL.vector(cpu=4), 0.0)
        tracker.note_completion(task)
        assert tracker.ramp_allowance(cluster.machine(0), 0.0).is_zero()

    def test_allowance_scoped_to_machine(self, cluster):
        tracker = ResourceTracker(cluster)
        tracker.note_placement(make_task(), 1, DEFAULT_MODEL.vector(cpu=4), 0.0)
        assert tracker.ramp_allowance(cluster.machine(0), 0.0).is_zero()


class TestAvailability:
    def test_overestimate_reclaimed(self, cluster, flows):
        """Booked 8 cores but the task only burns 2: after the ramp
        window the tracker reclaims the idle 6 (Section 4.1 — unused
        resources are reported and re-allocated to new tasks)."""
        machine = cluster.machine(0)
        task = make_task(cpu=8)
        machine.place(task, DEFAULT_MODEL.vector(cpu=8))
        flows.add_flow(
            FlowSpec(work=1000, nominal_rate=2, slots=((0, "cpu"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(100.0, flows)
        avail = tracker.available(machine, time=100.0)
        assert avail.get("cpu") == pytest.approx(16 - 2)

    def test_booked_memory_never_reclaimed(self, cluster, flows):
        """Peak memory stays reserved for the task's lifetime — giving a
        task less than its peak risks thrashing (Section 3.1)."""
        machine = cluster.machine(0)
        task = make_task(mem=10)
        machine.place(task, DEFAULT_MODEL.vector(mem=10))
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(100.0, flows)
        # observed memory is the allocation itself; available excludes it
        avail = tracker.available(machine, time=100.0)
        assert avail.get("mem") == pytest.approx(48 - 10)

    def test_unbooked_activity_shrinks_availability(self, cluster, flows):
        """Ingestion consumes disk the scheduler never booked; the
        tracker makes the scheduler see it (Figure 6 mechanism)."""
        flows.add_flow(
            FlowSpec(work=100000, nominal_rate=150, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(5.0, flows)
        avail = tracker.available(cluster.machine(0), time=5.0)
        assert avail.get("diskw") == pytest.approx(200 - 150)

    def test_availability_never_negative(self, cluster, flows):
        flows.add_flow(
            FlowSpec(work=1e6, nominal_rate=500, slots=((0, "diskw"),))
        )
        flows.add_flow(
            FlowSpec(work=1e6, nominal_rate=500, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(1.0, flows)
        avail = tracker.available(cluster.machine(0), time=1.0)
        assert (avail.data >= -EPSILON).all()

    def test_ramp_blocks_premature_reclaim(self, cluster, flows):
        machine = cluster.machine(0)
        task = make_task(diskw=100)
        machine.place(task, DEFAULT_MODEL.vector(diskw=100))
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=10.0))
        tracker.note_placement(task, 0, DEFAULT_MODEL.vector(diskw=100), 0.0)
        tracker.report(1.0, flows)  # task has no flows yet: observed 0
        avail = tracker.available(machine, time=1.0)
        # the decayed allowance (90% of the booking at age 1s of 10s)
        # still protects the fresh task's booking from being reclaimed
        assert avail.get("diskw") == pytest.approx(200 - 90)


# -- the availability plane ---------------------------------------------------

_amount = st.floats(min_value=0.0, max_value=64.0, allow_nan=False)
_demand = st.fixed_dictionaries(
    {
        "cpu": _amount,
        "mem": _amount,
        "diskr": st.floats(0.0, 300.0),
        "diskw": st.floats(0.0, 300.0),
        "netin": st.floats(0.0, 200.0),
    }
)
_gap = st.floats(min_value=0.0, max_value=7.0, allow_nan=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("place"), st.integers(0, 2), _demand, _gap),
        st.tuples(st.just("note"), st.integers(0, 2), _demand, _gap),
        st.tuples(st.just("book"), st.integers(0, 2), _demand, _gap),
        st.tuples(st.just("finish"), st.integers(0, 40)),
        st.tuples(st.just("unbook"), st.integers(0, 40)),
        st.tuples(
            st.just("report"),
            _gap,
            st.integers(0, 2),
            st.sampled_from([0.0, 40.0, 150.0, 500.0]),
        ),
        st.tuples(st.just("read")),
    ),
    min_size=1,
    max_size=40,
)


class TestAvailabilityPlane:
    @staticmethod
    def _assert_plane_is_oracle(tracker, cluster):
        plane = tracker.available_matrix()
        for machine in cluster.machines:
            want = oracle_available(tracker, machine)
            assert plane[machine.machine_id].tobytes() == want.data.tobytes()
            got = tracker.available(machine)
            assert got.data.tobytes() == want.data.tobytes()

    @given(_ops, st.sampled_from([0.0, 3.0, 10.0]))
    @settings(deadline=None, max_examples=150)
    def test_rows_bit_identical_to_scalar_oracle(self, ops, ramp):
        """Random interleavings of allocations (``Machine.place`` /
        ``remove``), tracker notes (with and without the allocation they
        normally accompany) and reports: after every step, every row of
        the plane — refreshed incrementally from dirty flags — equals the
        scalar formula bit for bit.  Several young placements land on
        one machine, placements can be newer than the last report (the
        clock runs ahead of it), and ramp 0 disables the allowance."""
        cluster = Cluster(3, machines_per_rack=3)
        flows = FlowTable(
            cluster.model, [m.capacity.data for m in cluster.machines]
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=ramp))
        now = 0.0
        placed = []  # (task, machine) with a live allocation
        noted = []  # tasks the tracker holds a record for
        for op in ops:
            kind = op[0]
            if kind in ("place", "note", "book"):
                _, machine_id, demand, gap = op
                now += gap
                task = make_task()
                booked = DEFAULT_MODEL.vector(**demand)
                if kind != "note":
                    cluster.machine(machine_id).place(task, booked)
                    placed.append((task, machine_id))
                if kind != "book":
                    tracker.note_placement(task, machine_id, booked, now)
                    noted.append(task)
            elif kind == "finish" and noted:
                tracker.note_completion(noted.pop(op[1] % len(noted)))
            elif kind == "unbook" and placed:
                task, machine_id = placed.pop(op[1] % len(placed))
                cluster.machine(machine_id).remove(task)
            elif kind == "report":
                _, gap, machine_id, rate = op
                now += gap
                if rate > 0:
                    flows.add_flow(
                        FlowSpec(
                            work=1e9,
                            nominal_rate=rate,
                            slots=((machine_id, "diskw"),),
                        )
                    )
                tracker.report(now, flows)
            self._assert_plane_is_oracle(tracker, cluster)

    def test_explicit_time_matches_oracle(self, cluster, flows):
        machine = cluster.machine(0)
        tracker = ResourceTracker(cluster)
        for k, placed_at in enumerate((0.0, 2.0, 4.5)):
            task = make_task()
            booked = DEFAULT_MODEL.vector(cpu=1.0 + k, diskw=30.0 * (k + 1))
            machine.place(task, booked)
            tracker.note_placement(task, 0, booked, placed_at)
        tracker.report(5.0, flows)
        for time in (None, 5.0, 3.0, 9.0, 14.0, 20.0):
            got = tracker.available(machine, time)
            want = oracle_available(tracker, machine, time)
            assert got.data.tobytes() == want.data.tobytes()

    def test_plane_is_cached_between_changes(self, cluster, flows):
        """Clean reads return the same storage without recomputing;
        a note refreshes only its own machine's row."""
        tracker = ResourceTracker(cluster)
        tracker.report(1.0, flows)
        plane = tracker.available_matrix()
        assert tracker.available_matrix() is plane
        assert not tracker._any_dirty
        calls = []
        rows_of = tracker._available_rows
        tracker._available_rows = lambda ids, time: (
            calls.append(list(ids)) or rows_of(ids, time)
        )
        tracker.available_matrix()
        assert calls == []
        tracker.note_placement(
            make_task(), 1, DEFAULT_MODEL.vector(cpu=2), 1.0
        )
        tracker.available_matrix()
        assert calls == [[1]]

    def test_allocation_change_without_a_note_is_seen(self, cluster, flows):
        """The rigid floor reads ``allocated``: a bare ``Machine.place``
        moves ``alloc_gen``, which the next read reconciles."""
        tracker = ResourceTracker(cluster)
        tracker.report(1.0, flows)
        before = tracker.available_matrix()[0].copy()
        cluster.machine(0).place(make_task(), DEFAULT_MODEL.vector(mem=10))
        after = tracker.available_matrix()[0]
        assert after[DEFAULT_MODEL.index["mem"]] == before[
            DEFAULT_MODEL.index["mem"]
        ] - 10
        assert np.array_equal(
            tracker.available_matrix()[1],
            oracle_available(tracker, cluster.machine(1)).data,
        )

    def test_allowance_is_evaluated_at_the_last_report(self, cluster, flows):
        """Pinned semantics (a known fidelity question, see
        ``available_matrix``): the scheduler-facing view ages placements
        against ``last_report_time``, so one made *after* the report has
        a negative age and is charged more than its booking."""
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=10.0))
        tracker.report(4.0, flows)
        tracker.note_placement(
            make_task(), 0, DEFAULT_MODEL.vector(diskw=50), 5.0
        )
        avail = tracker.available(cluster.machine(0))
        # age = 4 - 5 = -1 s  ->  factor 1 - (-1 / 10) = 1.1
        assert avail.get("diskw") == 200 - 50 * (1.0 - (4.0 - 5.0) / 10.0)
        assert avail.get("diskw") < 200 - 50


def full_walk_ramp_rows(tracker, machine_ids, time):
    """The allowance summed over *every* live record of each machine in
    placement order — the walk ``_ramp_rows`` cuts short at the first
    record too old to contribute."""
    out = np.zeros((len(machine_ids), tracker.cluster.model.dims))
    ramp = tracker.config.ramp_seconds
    if ramp <= 0:
        return out
    for k, machine_id in enumerate(machine_ids):
        row = out[k]
        for placed_time, _, booked in tracker._by_machine[machine_id].values():
            age = time - placed_time
            if age < ramp:
                row += booked.data * (1.0 - age / ramp)
    return out


class TestNewestFirstRampWalk:
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("place"), st.integers(0, 2), _demand, _gap),
                st.tuples(st.just("replace"), st.integers(0, 40), _gap),
                st.tuples(st.just("finish"), st.integers(0, 40)),
                st.tuples(st.just("report"), _gap),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([3.0, 10.0]),
    )
    @settings(deadline=None, max_examples=150)
    def test_equals_full_walk(self, ops, ramp):
        """Placements on a clock that runs ahead of the last report
        (negative ages), re-placements that move a record to the end,
        and completions: after every step, the allowance rows at the
        last report, at the clock and between them equal the full walk
        bit for bit."""
        cluster = Cluster(3, machines_per_rack=3)
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=ramp))
        flows = FlowTable(
            cluster.model, [m.capacity.data for m in cluster.machines]
        )
        now = 0.0
        live = []  # (task, machine_id, booked)
        machine_ids = [0, 1, 2]
        for op in ops:
            if op[0] == "place":
                _, machine_id, demand, gap = op
                now += gap
                task = make_task()
                booked = DEFAULT_MODEL.vector(**demand)
                tracker.note_placement(task, machine_id, booked, now)
                live.append((task, machine_id, booked))
            elif op[0] == "replace" and live:
                _, pick, gap = op
                now += gap
                task, machine_id, booked = live.pop(pick % len(live))
                machine_id = (machine_id + 1) % 3
                tracker.note_placement(task, machine_id, booked, now)
                live.append((task, machine_id, booked))
            elif op[0] == "finish" and live:
                tracker.note_completion(live.pop(op[1] % len(live))[0])
            elif op[0] == "report":
                now += op[1]
                tracker.report(now, flows)
            report = tracker.last_report_time
            for time in (report, now, (report + now) / 2, now + ramp / 2):
                got = tracker._ramp_rows(machine_ids, time)
                want = full_walk_ramp_rows(tracker, machine_ids, time)
                assert got.tobytes() == want.tobytes()
