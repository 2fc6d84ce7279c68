"""Cluster aggregate tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL, FB_MACHINE_CAPACITY

from conftest import make_task


class TestCluster:
    def test_default_capacity_is_facebook_profile(self):
        cluster = Cluster(3)
        assert cluster.machine_capacity() == FB_MACHINE_CAPACITY

    def test_total_capacity(self):
        cluster = Cluster(4)
        assert cluster.total_capacity().get("cpu") == 4 * 16

    def test_total_allocated(self):
        cluster = Cluster(2)
        cluster.machine(0).place(make_task(cpu=2, mem=4))
        cluster.machine(1).place(make_task(cpu=1, mem=1))
        total = cluster.total_allocated()
        assert total.get("cpu") == 3
        assert total.get("mem") == 5

    def test_total_running_tasks(self):
        cluster = Cluster(2)
        cluster.machine(0).place(make_task())
        assert cluster.total_running_tasks() == 1

    def test_custom_capacity(self):
        cap = DEFAULT_MODEL.vector(cpu=4, mem=8, diskr=50, diskw=50,
                                   netin=10, netout=10)
        cluster = Cluster(2, machine_capacity=cap)
        assert cluster.machine_capacity() == cap

    def test_topology_wiring(self):
        cluster = Cluster(32, machines_per_rack=8)
        assert cluster.topology.num_racks == 4

    def test_blockstore_shares_topology(self):
        cluster = Cluster(8, machines_per_rack=4)
        block = cluster.blockstore.add_block(64.0)
        assert all(0 <= m < 8 for m in block.replicas)
