"""Rack topology tests."""

import pytest

from repro.cluster.topology import Topology


class TestTopology:
    def test_rack_assignment(self):
        topo = Topology(10, machines_per_rack=4)
        assert topo.rack_of(0) == 0
        assert topo.rack_of(3) == 0
        assert topo.rack_of(4) == 1
        assert topo.rack_of(9) == 2
        assert topo.num_racks == 3

    def test_rack_members(self):
        topo = Topology(10, machines_per_rack=4)
        assert topo.rack_members(0) == [0, 1, 2, 3]
        assert topo.rack_members(2) == [8, 9]

    def test_same_rack(self):
        topo = Topology(8, machines_per_rack=4)
        assert topo.same_rack(0, 3)
        assert not topo.same_rack(3, 4)

    def test_single_machine(self):
        topo = Topology(1)
        assert topo.num_racks == 1
        assert topo.rack_of(0) == 0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Topology(0)
        with pytest.raises(ValueError):
            Topology(4, machines_per_rack=0)
