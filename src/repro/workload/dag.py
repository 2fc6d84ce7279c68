"""Stage DAG utilities: topological order, frontier, barrier queries."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence

from repro.workload.stage import Stage

__all__ = ["StageDag"]


class StageDag:
    """The DAG of stages of one job.

    Built from the stages' ``parents`` links; validates acyclicity and gives
    the queries the engine needs: which stages to release and whether the
    job is finished.
    """

    def __init__(self, stages: Sequence[Stage]):
        self.stages: List[Stage] = list(stages)
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        known = set(id(s) for s in self.stages)
        for stage in self.stages:
            for parent in stage.parents:
                if id(parent) not in known:
                    raise ValueError(
                        f"stage {stage.name!r} has a parent outside the DAG"
                    )
        self._order = self._toposort()

    def _toposort(self) -> List[Stage]:
        indegree: Dict[int, int] = {id(s): len(s.parents) for s in self.stages}
        by_id = {id(s): s for s in self.stages}
        queue = deque(s for s in self.stages if not s.parents)
        order: List[Stage] = []
        while queue:
            stage = queue.popleft()
            order.append(stage)
            for child in stage.children:
                if id(child) not in indegree:
                    continue
                indegree[id(child)] -= 1
                if indegree[id(child)] == 0:
                    queue.append(by_id[id(child)])
        if len(order) != len(self.stages):
            raise ValueError("stage graph has a cycle")
        return order

    # -- queries ---------------------------------------------------------------
    def roots(self) -> List[Stage]:
        return [s for s in self.stages if not s.parents]

    def leaves(self) -> List[Stage]:
        return [s for s in self.stages if not s.children]

    def depth(self) -> int:
        """Length of the longest stage chain."""
        depth_of: Dict[int, int] = {}
        for stage in self._order:
            parent_depth = max(
                (depth_of[id(p)] for p in stage.parents), default=0
            )
            depth_of[id(stage)] = parent_depth + 1
        return max(depth_of.values(), default=0)

    def release_ready_stages(self) -> List[Stage]:
        """Unblock every stage whose parents have all finished.

        O(stages) per call: whether a stage still holds blocked tasks is
        read off its transition-maintained counter, not by scanning its
        task list (this runs on every task finish).
        """
        released = []
        for stage in self.stages:
            if stage.num_blocked and stage.release_if_ready():
                released.append(stage)
        return released

    def is_finished(self) -> bool:
        return all(s.is_finished() for s in self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)
