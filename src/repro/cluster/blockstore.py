"""An HDFS-like block store: replicated blocks placed across machines.

Map tasks read replicated input blocks; their preferred machines are the
replica holders.  The store also records where task outputs land so that
downstream (shuffle) reads know their sources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import Topology

__all__ = ["Block", "BlockStore"]

_block_ids = itertools.count()


@dataclass(frozen=True)
class Block:
    """One replicated block of data."""

    block_id: int
    size_mb: float
    replicas: Tuple[int, ...]


class BlockStore:
    """Places blocks on machines with rack-aware replication.

    The default policy mimics HDFS: first replica on a uniformly random
    machine, second on a different machine in the same rack, third in a
    different rack.
    """

    def __init__(
        self,
        topology: Topology,
        replication: int = 3,
        rng: Optional[np.random.Generator] = None,
    ):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.topology = topology
        self.replication = min(replication, topology.num_machines)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.blocks: Dict[int, Block] = {}
        #: megabytes stored per machine, for evacuation/ingestion accounting
        self.stored_mb: List[float] = [0.0] * topology.num_machines

    # -- placement -------------------------------------------------------------
    def _pick_replicas(self, primary: Optional[int]) -> Tuple[int, ...]:
        topo = self.topology
        if primary is None:
            primary = int(self.rng.integers(topo.num_machines))
        replicas = [primary]
        # second replica: same rack, different machine (if the rack has one)
        rack_peers = [
            m for m in topo.rack_members(topo.rack_of(primary)) if m != primary
        ]
        if len(replicas) < self.replication and rack_peers:
            replicas.append(int(self.rng.choice(rack_peers)))
        # remaining replicas: off-rack machines
        while len(replicas) < self.replication:
            candidate = int(self.rng.integers(topo.num_machines))
            if candidate in replicas:
                continue
            replicas.append(candidate)
        return tuple(replicas)

    def add_block(
        self, size_mb: float, primary: Optional[int] = None
    ) -> Block:
        """Store a new block; returns it with its replica placement."""
        if size_mb < 0:
            raise ValueError("block size must be non-negative")
        block = Block(next(_block_ids), size_mb, self._pick_replicas(primary))
        self.blocks[block.block_id] = block
        for machine in block.replicas:
            self.stored_mb[machine] += size_mb
        return block
