"""Block store placement tests."""

import numpy as np
import pytest

from repro.cluster.blockstore import BlockStore
from repro.cluster.topology import Topology


@pytest.fixture
def store():
    return BlockStore(
        Topology(12, machines_per_rack=4),
        replication=3,
        rng=np.random.default_rng(0),
    )


class TestBlockPlacement:
    def test_replica_count(self, store):
        block = store.add_block(128.0)
        assert len(block.replicas) == 3
        assert len(set(block.replicas)) == 3

    def test_second_replica_same_rack(self, store):
        topo = store.topology
        for _ in range(20):
            block = store.add_block(64.0)
            assert topo.same_rack(block.replicas[0], block.replicas[1])

    def test_pinned_primary(self, store):
        block = store.add_block(64.0, primary=5)
        assert block.replicas[0] == 5

    def test_replication_capped_by_cluster_size(self):
        store = BlockStore(Topology(2, machines_per_rack=2), replication=5)
        block = store.add_block(10.0)
        assert len(block.replicas) == 2

    def test_stored_mb_accounting(self, store):
        store.add_block(100.0)
        assert sum(store.stored_mb) == pytest.approx(300.0)

    def test_negative_size_rejected(self, store):
        with pytest.raises(ValueError):
            store.add_block(-1.0)

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            BlockStore(Topology(4), replication=0)
