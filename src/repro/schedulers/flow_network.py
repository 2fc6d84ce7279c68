"""A Quincy-style min-cost-flow scheduler (Isard et al., SOSP 2009).

The paper's Section 5.2.2 notes that *"scalability was a key reason
behind our choice to avoid more complex solutions based on flow-networks
and integer linear programming"*.  This module provides the comparator
that claim refers to: a scheduler that, on every round, builds the
classic Quincy flow network

    tasks -> (preferred machines | rack aggregators | cluster) -> sink
          -> unscheduled

and solves a min-cost flow (via networkx's successive-shortest-path
implementation).  Costs encode data locality (free on a replica holder,
progressively more expensive per locality level) and a high price for
leaving a task unscheduled; machine capacities come from memory-defined
slots, as in the original system.

networkx is an optional dependency (the ``flow`` extra, ``pip install
'repro[flow]'``): it is imported where the graph is built and solved, so
importing :mod:`repro` never loads it, and constructing this scheduler
without it raises an :class:`ImportError` that names the extra.

Simplifications vs. the real Quincy: no preemption (consistent with the
rest of this reproduction), slot capacities instead of Quincy's
min-flow bounds, and one global round per invocation instead of
incremental flow updates.  The point of including it is (a) a
locality-optimal baseline and (b) the Table 7-style comparison of
per-round decision latency against Tetris's greedy matching
(`benchmarks/test_flow_network.py`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.schedulers.base import Placement, Scheduler
from repro.schedulers.stage_index import StageIndex
from repro.workload.job import Job
from repro.workload.task import Task, TaskState

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FlowNetworkScheduler"]

#: arc costs per locality level (scaled integers; nx wants ints)
COST_NODE_LOCAL = 0
COST_RACK_LOCAL = 5
COST_CLUSTER = 10
COST_UNSCHEDULED = 100


class FlowNetworkScheduler(Scheduler):
    """Min-cost-flow task assignment with memory-defined slot capacities.

    Parameters
    ----------
    slot_mem_gb:
        Slot size used for machine capacities (as in Quincy's cluster).
    max_tasks_per_round:
        Cap on runnable tasks entered into one flow problem; the network
        (and the solve time) grows with this — which is precisely the
        scalability story the benchmark measures.
    """

    name = "flow-network"

    def __init__(
        self,
        slot_mem_gb: float = 2.0,
        max_tasks_per_round: int = 500,
    ):
        super().__init__()
        try:
            import networkx  # noqa: F401
        except ImportError as exc:
            raise ImportError(
                "the flow-network scheduler needs networkx: "
                "pip install 'repro[flow]'"
            ) from exc
        if slot_mem_gb <= 0:
            raise ValueError("slot size must be positive")
        if max_tasks_per_round <= 0:
            raise ValueError("max_tasks_per_round must be positive")
        self.slot_mem_gb = slot_mem_gb
        self.max_tasks_per_round = max_tasks_per_round
        self.index = StageIndex()
        self._slots_free: Dict[int, int] = {}
        self._slots_by_task: Dict[int, int] = {}

    # -- wiring / callbacks -----------------------------------------------
    def bind(self, cluster, estimator=None, tracker=None) -> None:
        super().bind(cluster, estimator=estimator, tracker=tracker)
        self._slots_free = dict(
            enumerate(cluster.memory_slots(self.slot_mem_gb)[0])
        )

    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self.index.add_job(job)

    def on_stage_released(self, stage, time: float) -> None:
        self.index.add_stage(stage)

    def _release_slots(self, task: Task, machine_id) -> None:
        slots = self._slots_by_task.pop(task.task_id, 0)
        if machine_id is not None:
            self._slots_free[machine_id] += slots

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self.index.forget(task)
        self._release_slots(task, task.machine_id)

    def on_task_failed(self, task: Task, time: float) -> None:
        machine_id = task.machine_id
        super().on_task_failed(task, time)
        self._release_slots(task, machine_id)

    # -- the flow network -------------------------------------------------
    def _runnable_tasks(self) -> List[Task]:
        tasks: List[Task] = []
        for job in self.runnable_jobs():
            for stage in self.index.indexed_stages(job):
                for task in stage.tasks:
                    if (
                        task.state is TaskState.RUNNABLE
                        and task.task_id not in self.index._claimed
                    ):
                        tasks.append(task)
                        if len(tasks) >= self.max_tasks_per_round:
                            return tasks
        return tasks

    def _task_slots(self, task: Task) -> int:
        mem = self.estimated_demands(task).get("mem")
        return max(1, math.ceil(mem / self.slot_mem_gb))

    def build_network(self, tasks: List[Task]) -> nx.DiGraph:
        """The Quincy graph for one round (exposed for benchmarking)."""
        import networkx as nx

        graph = nx.DiGraph()
        topo = self.cluster.topology
        demand_total = len(tasks)
        graph.add_node("sink", demand=demand_total)
        graph.add_node("unsched", demand=0)
        graph.add_edge("unsched", "sink", capacity=demand_total, weight=0)
        graph.add_node("cluster", demand=0)
        for rack in range(topo.num_racks):
            graph.add_node(f"rack{rack}", demand=0)
            graph.add_edge(
                "cluster", f"rack{rack}", capacity=demand_total, weight=0
            )
        for machine in self.cluster.machines:
            node = f"m{machine.machine_id}"
            free = self._slots_free[machine.machine_id]
            graph.add_node(node, demand=0)
            rack = topo.rack_of(machine.machine_id)
            graph.add_edge(f"rack{rack}", node, capacity=demand_total,
                           weight=0)
            graph.add_edge(node, "sink", capacity=max(free, 0), weight=0)
        for task in tasks:
            node = f"t{task.task_id}"
            graph.add_node(node, demand=-1)
            graph.add_edge(node, "unsched", capacity=1,
                           weight=COST_UNSCHEDULED)
            graph.add_edge(node, "cluster", capacity=1, weight=COST_CLUSTER)
            preferred = {
                loc for inp in task.inputs for loc in inp.locations
            }
            for machine_id in preferred:
                if 0 <= machine_id < self.cluster.num_machines:
                    graph.add_edge(
                        node, f"m{machine_id}", capacity=1,
                        weight=COST_NODE_LOCAL,
                    )
            racks = {topo.rack_of(m) for m in preferred
                     if 0 <= m < self.cluster.num_machines}
            for rack in racks:
                graph.add_edge(node, f"rack{rack}", capacity=1,
                               weight=COST_RACK_LOCAL)
        return graph

    def _extract_assignments(
        self, tasks: List[Task], flow: Dict
    ) -> List[Tuple[Task, int]]:
        """Trace each task's unit of flow to the machine it reaches."""
        # remaining unit-capacity through aggregator nodes per machine
        machine_take: Dict[int, int] = {
            m.machine_id: flow[f"m{m.machine_id}"].get("sink", 0)
            for m in self.cluster.machines
        }
        assignments: List[Tuple[Task, int]] = []
        direct_pool: List[Task] = []
        for task in tasks:
            out = flow[f"t{task.task_id}"]
            direct = [
                int(node[1:])
                for node, units in out.items()
                if units > 0 and node.startswith("m")
            ]
            if direct:
                assignments.append((task, direct[0]))
                machine_take[direct[0]] -= 1
            elif (
                out.get("cluster", 0) > 0
                or any(
                    units > 0 and node.startswith("rack")
                    for node, units in out.items()
                )
            ):
                direct_pool.append(task)
        # tasks routed through aggregators take any machine with flow left
        for task in direct_pool:
            for machine_id, take in machine_take.items():
                if take > 0:
                    assignments.append((task, machine_id))
                    machine_take[machine_id] -= 1
                    break
        return assignments

    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        import networkx as nx

        tasks = self._runnable_tasks()
        if not tasks:
            return []
        graph = self.build_network(tasks)
        try:
            flow = nx.min_cost_flow(graph)
        except nx.NetworkXUnfeasible:  # pragma: no cover - guarded above
            return []
        placements: List[Placement] = []
        for task, machine_id in self._extract_assignments(tasks, flow):
            slots = self._task_slots(task)
            if self._slots_free[machine_id] < slots:
                continue
            booked = self.booked_demands(task, machine_id)
            self.index.claim(task)
            self._slots_free[machine_id] -= slots
            self._slots_by_task[task.task_id] = slots
            placements.append(Placement(task, machine_id, booked))
        return placements
