"""Machine placement/accounting tests."""

import pytest

from repro.cluster.machine import Machine
from repro.resources import DEFAULT_MODEL

from conftest import make_task


@pytest.fixture
def machine():
    return Machine(
        0,
        DEFAULT_MODEL.vector(
            cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125
        ),
    )


class TestPlacement:
    def test_place_updates_allocation(self, machine):
        task = make_task(cpu=2, mem=4)
        task.mark_runnable()
        machine.place(task)
        assert machine.allocated.get("cpu") == 2
        assert machine.allocated.get("mem") == 4
        assert machine.num_running == 1

    def test_remove_restores_allocation(self, machine):
        task = make_task(cpu=2, mem=4)
        machine.place(task)
        machine.remove(task)
        assert machine.allocated.is_zero()
        assert machine.num_running == 0

    def test_double_place_rejected(self, machine):
        task = make_task()
        machine.place(task)
        with pytest.raises(RuntimeError):
            machine.place(task)

    def test_remove_unplaced_rejected(self, machine):
        with pytest.raises(RuntimeError):
            machine.remove(make_task())

    def test_explicit_booked_demands(self, machine):
        task = make_task(cpu=1)
        booked = DEFAULT_MODEL.vector(cpu=3, mem=6)
        machine.place(task, booked)
        assert machine.allocated.get("cpu") == 3
        assert machine.placed_demands(task) == booked
        machine.remove(task)
        assert machine.allocated.is_zero()

    def test_over_allocation_is_representable(self, machine):
        """Baseline schedulers can book beyond capacity in fluid dims."""
        t1 = make_task(netin=100)
        t2 = make_task(netin=100)
        machine.place(t1, t1.demands)
        machine.place(t2, t2.demands)
        assert machine.allocated.get("netin") == 200  # > 125 capacity
        assert machine.free().get("netin") == -75
        assert machine.free_clamped().get("netin") == 0


def can_fit(machine, demands):
    """Full-vector admission check (what Tetris enforces)."""
    return (machine.allocated + demands).fits_in(machine.capacity)


class TestCapacityQueries:
    def test_can_fit(self, machine):
        assert can_fit(machine, DEFAULT_MODEL.vector(cpu=16, mem=48))
        assert not can_fit(machine, DEFAULT_MODEL.vector(cpu=17))

    def test_can_fit_after_placement(self, machine):
        machine.place(make_task(cpu=10, mem=10))
        assert can_fit(machine, DEFAULT_MODEL.vector(cpu=6))
        assert not can_fit(machine, DEFAULT_MODEL.vector(cpu=7))
