"""Test-only oracle: the lazy completion min-heap of ``FlowTable``,
moved out of ``repro.sim.fluid``.

``HeapFlowTable`` is a ``FlowTable`` that, wherever the table writes a
flow's finish instant, also pushes ``(instant, generation, flow id)`` on
a heap, and answers ``time_to_next_completion`` by popping stale
entries (retired or re-rated flows) off the top.
``tests/test_fluid_oracle.py`` drives it beside the array version and
requires bit-identical answers.  Not importable from ``src/`` on
purpose: the engine runs on the finish-instant array only.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.sim.fluid import FlowTable

__all__ = ["HeapFlowTable"]


class HeapFlowTable(FlowTable):
    """``FlowTable`` answering from the lazy completion heap."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (absolute finish instant, generation, flow id) lazy min-heap
        self._heap: List[Tuple[float, int, int]] = []
        self.stale_pops = 0

    def _schedule_finish(self, flows) -> None:
        super()._schedule_finish(flows)
        for idx in np.atleast_1d(flows):
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
