"""Test-only oracles for ``FlowTable``, moved out of ``repro.sim.fluid``:
the lazy completion min-heap and the full-table throughput sum.

``HeapFlowTable`` is a ``FlowTable`` that, wherever the table writes a
flow's finish instant, also pushes ``(instant, generation, flow id)`` on
a heap, and answers ``time_to_next_completion`` by popping stale
entries (retired or re-rated flows) off the top.
``tests/test_fluid_oracle.py`` drives it beside the array version and
requires bit-identical answers.

``slot_throughput`` is the whole-table ``np.add.at`` the table's kept
per-slot throughput replaced; the same tests require byte-equal
answers.  Not importable from ``src/`` on purpose: the engine runs on
the finish-instant array and the kept throughput only.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.sim.fluid import MAX_SLOTS, FlowTable

__all__ = ["HeapFlowTable", "slot_throughput"]


class HeapFlowTable(FlowTable):
    """``FlowTable`` answering from the lazy completion heap."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (absolute finish instant, generation, flow id) lazy min-heap
        self._heap: List[Tuple[float, int, int]] = []
        self.stale_pops = 0

    def _schedule_finish(self, flows) -> None:
        super()._schedule_finish(flows)
        for idx in flows:
            heapq.heappush(
                self._heap,
                (
                    self._clock + self._remaining[idx] / self._rate[idx],
                    int(self._gen[idx]),
                    int(idx),
                ),
            )

    def time_to_next_completion(self) -> float:
        self._recompute_rates()
        heap = self._heap
        while heap:
            _, gen, idx = heap[0]
            if self._active[idx] and self._gen[idx] == gen:
                return float(self._remaining[idx] / self._rate[idx])
            heapq.heappop(heap)
            self.stale_pops += 1
        return float("inf")


def slot_throughput(table: FlowTable) -> np.ndarray:
    """Achieved rate per (machine, fluid-dim), shape (M, F): one
    ``np.add.at`` over every active non-fixed flow."""
    table._recompute_rates()
    throughput = np.zeros(table._num_slots)
    idx = np.flatnonzero(table._active & ~table._fixed)
    if idx.size:
        slots = table._slots[idx]
        valid = slots >= 0
        np.add.at(
            throughput,
            slots[valid],
            np.repeat(table._rate[idx], MAX_SLOTS)[valid.reshape(-1)],
        )
    return throughput.reshape(table.num_machines, table._nf)
