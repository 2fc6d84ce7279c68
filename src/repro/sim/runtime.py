"""Task runtime model: translate a placed task into fluid flows (eq. 5).

The terms of equation (5) of the paper map one-to-one onto flows:

==============================  ============================================
term                            flow
==============================  ============================================
f_cpu / cpu rate                fixed-rate ``cpu`` flow (cores are rigid)
f_diskW / diskW rate            ``write`` flow through (machine, diskw)
f_diskR local / diskR rate      ``local read`` flow through (machine, diskr)
remote reads                    per-source flows through (src, diskr),
                                (src, netout) and (dst, netin)
==============================  ============================================

The task completes when all of its flows complete, i.e. its duration is the
max over the terms — exactly eq. (5), with the achieved rates determined by
contention in the :class:`~repro.sim.fluid.FlowTable`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.cluster.topology import Topology
from repro.resources import ResourceVector, ordered_sum
from repro.sim.fluid import FlowSpec
from repro.workload.task import NEGLIGIBLE_WORK, Task

__all__ = ["build_flows", "choose_read_source"]

#: fall-back transfer rate (MB/s) when a task with remote input has no
#: declared network demand — a mis-estimated placement still makes progress
FALLBACK_RATE_MBPS = 1.0


def choose_read_source(
    topology: Topology, machine_id: int, locations: Tuple[int, ...]
) -> int:
    """Pick which replica a remote read streams from.

    Prefers a replica in the reader's rack (cheaper in real CLOS fabrics),
    falling back to the first replica.
    """
    if not locations:
        raise ValueError("input has no locations")
    for loc in locations:
        if topology.same_rack(machine_id, loc):
            return loc
    return locations[0]


def build_flows(
    task: Task,
    machine_id: int,
    topology: Topology,
    demands: Optional[ResourceVector] = None,
) -> List[FlowSpec]:
    """Flows created by running ``task`` on ``machine_id``.

    ``demands`` are the task's *actual* peak rates (defaults to the task's
    own demand vector); the booked estimate is the scheduler's business and
    does not change physics.
    """
    if demands is None:
        demands = task.demands
    tag = ("task", task.task_id)
    specs: List[FlowSpec] = []

    cpu_rate = demands.get("cpu")
    if task.work.cpu_core_seconds > NEGLIGIBLE_WORK:
        rate = cpu_rate if cpu_rate > 0 else FALLBACK_RATE_MBPS
        specs.append(
            FlowSpec(
                work=task.work.cpu_core_seconds,
                nominal_rate=rate,
                slots=((machine_id, "cpu"),),
                tag=tag,
            )
        )

    local_mb = 0.0
    remote_by_source: Dict[int, float] = defaultdict(float)
    for inp in task.inputs:
        if inp.size_mb <= NEGLIGIBLE_WORK:
            continue
        if inp.is_local_to(machine_id):
            local_mb += inp.size_mb
        else:
            source = choose_read_source(topology, machine_id, inp.locations)
            remote_by_source[source] += inp.size_mb

    if local_mb > NEGLIGIBLE_WORK:
        # a task that expected to stream this data over the network reads
        # it at least that fast from the local disk
        rate = max(
            demands.get("diskr"), demands.get("netin"), FALLBACK_RATE_MBPS
        )
        specs.append(
            FlowSpec(
                work=local_mb,
                nominal_rate=rate,
                slots=((machine_id, "diskr"),),
                tag=tag,
            )
        )

    if remote_by_source:
        netin = demands.get("netin")
        total_remote = ordered_sum(remote_by_source.values())
        aggregate_rate = netin if netin > 0 else FALLBACK_RATE_MBPS
        for source, size_mb in sorted(remote_by_source.items()):
            rate = aggregate_rate * (size_mb / total_remote)
            specs.append(
                FlowSpec(
                    work=size_mb,
                    nominal_rate=max(rate, 1e-6),
                    slots=(
                        (source, "diskr"),
                        (source, "netout"),
                        (machine_id, "netin"),
                    ),
                    tag=tag,
                )
            )

    if task.work.write_mb > NEGLIGIBLE_WORK:
        diskw = demands.get("diskw")
        rate = diskw if diskw > 0 else FALLBACK_RATE_MBPS
        specs.append(
            FlowSpec(
                work=task.work.write_mb,
                nominal_rate=rate,
                slots=((machine_id, "diskw"),),
                tag=tag,
            )
        )

    return specs
