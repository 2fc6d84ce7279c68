"""Fluid-rate flow table: proportional-share contention on disk and network.

Every piece of in-flight work is a *flow*:

- a **cpu** flow burns core-seconds at a fixed rate (cores are rigidly
  allocated, so they never contend);
- a **local read** flow moves bytes through ``diskr`` on one machine;
- a **remote read** flow moves bytes through ``diskr`` and ``netout`` at the
  source machine and ``netin`` at the destination;
- a **write** flow moves bytes through ``diskw``;
- an **external** flow (ingestion, evacuation) uses any slots it declares.

Each (machine, fluid-dimension) pair is a *slot* with a fixed capacity.
When the nominal demand on a slot exceeds its capacity, every flow through
it is scaled down proportionally — and a *contention penalty* makes the aggregate throughput drop below capacity, modeling incast, disk
seeks and cache misses (Section 2.1): with over-subscription ratio r > 1
the aggregate achieved throughput is capacity / (1 + sigma * (r - 1)).

Rate maintenance is *sparse*.  A flow's rate depends only on the scales
of its own slots, and a slot's scale depends only on the sum of its
members' **nominal** rates — nominals are constants, so there is no
feedback from achieved rates back into demands.  The slot-connected
"component" an ``add_flow``/``remove_flow``/completion can touch
therefore collapses to the one-hop neighborhood: the flow's slots, and
the flows sharing those slots.  ``_recompute_rates`` resums demand and
rescales exactly those dirty slots and re-rates exactly those touched
flows; everything else keeps its arrays untouched.  (Slot capacities are
fixed at construction; a capacity change would dirty the slot the same
way.)  The resummation accumulates each dirty slot's members in
ascending flow-id order — the order a full ``np.add.at`` rebuild uses —
so the sparse path is bit-identical to :meth:`reference_rates`, the
retained full-table oracle.

A dirty slot holds one to three flows, so the per-slot and per-flow
arithmetic runs on Python floats (list mirrors of capacity, sigma,
scale, nominal and rate, and a slot-id tuple per flow) and writes back
to the numpy arrays only the flows it re-rated: numpy's fixed cost per
call would exceed the work.  The whole-table paths — ``advance`` and
the finish-instant min — stay single array operations.

``time_to_next_completion`` reads a per-flow *finish instant* array:
whenever a flow's rate is set, ``clock + remaining/rate`` is written
beside it (the instant is invariant under ``advance``, both terms move
together), a retired flow reads ``+inf``, and the query is a min over
the array.  Exact ties between instants go to the lowest (per-flow
generation, flow id), the order a lazy min-heap of the same entries
pops in (``tests/fluid_oracle.py`` keeps that heap as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.resources import ResourceModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry

__all__ = ["FlowTable", "FlowSpec", "CONTENTION_SIGMA"]

#: a flow touches at most this many (machine, dimension) slots
MAX_SLOTS = 3

#: work below this is considered complete (guards float error)
WORK_TOLERANCE = 1e-7

#: contention penalty slope sigma of every fluid dimension but cpu: 0
#: would be pure proportional sharing; 0.5 makes a 2x over-subscribed
#: resource deliver only ~67% of its capacity in aggregate — the
#: "sharply lower throughput" of Section 2.1 (switch-buffer incast,
#: disk-seek and cache-miss overheads).  CPU time-sharing is lossless
#: (sigma 0).
CONTENTION_SIGMA = 0.5


@dataclass(frozen=True)
class FlowSpec:
    """Description of a flow to register.

    ``slots`` are (machine_id, dim_name) pairs; the flow demands
    ``nominal_rate`` on each of them simultaneously (a transfer moves at one
    rate through disk and both NICs).  ``fixed`` flows ignore contention.
    """

    work: float
    nominal_rate: float
    slots: Tuple[Tuple[int, str], ...] = ()
    fixed: bool = False
    tag: Optional[object] = None


class FlowTable:
    """Store of all active flows with sparse rate updates."""

    def __init__(
        self,
        model: ResourceModel,
        machine_capacities: Sequence[Sequence[float]],
    ):
        self.model = model
        self._fluid_dims = [
            i for i, fluid in enumerate(model.fluid_mask) if fluid
        ]
        self._fluid_index = {d: k for k, d in enumerate(self._fluid_dims)}
        self._dim_slot = {
            model.names[d]: k for d, k in self._fluid_index.items()
        }
        self.num_machines = len(machine_capacities)
        nf = len(self._fluid_dims)
        caps = np.asarray(machine_capacities, dtype=float)
        #: capacity per (machine, fluid-dim) slot, flattened
        self._slot_capacity: List[float] = (
            caps[:, self._fluid_dims].reshape(-1).tolist()
        )
        self._num_slots = self.num_machines * nf
        self._nf = nf
        dim_sigmas = [
            0.0 if model.names[d] == "cpu" else CONTENTION_SIGMA
            for d in self._fluid_dims
        ]
        #: contention penalty slope per slot
        self._slot_sigma: List[float] = dim_sigmas * self.num_machines

        # flow arrays, grown on demand
        n = 64
        self._remaining = np.zeros(n)
        self._nominal = np.zeros(n)
        self._rate = np.zeros(n)
        self._slots = np.full((n, MAX_SLOTS), -1, dtype=np.int64)
        self._fixed = np.zeros(n, dtype=bool)
        self._active = np.zeros(n, dtype=bool)
        #: absolute finish instant per flow (+inf when not active)
        self._finish = np.full(n, np.inf)
        #: per-flow generation, bumped whenever the finish instant is
        #: written or retired: the tie break between equal instants
        self._gen = np.zeros(n, dtype=np.int64)
        self._free: List[int] = list(range(n))
        self._tags: Dict[int, object] = {}
        #: Python mirrors of ``_nominal``, of ``_rate`` (for flows
        #: re-rated by contention) and of each ``_slots`` row, unpadded
        self._nominal_of: List[float] = [0.0] * n
        self._rate_of: List[float] = [0.0] * n
        self._slots_of: List[Tuple[int, ...]] = [()] * n

        # sparse-maintenance state
        #: contention scale per slot, kept equal to what a full rebuild
        #: would produce (see _recompute_rates)
        self._slot_scale: List[float] = [1.0] * self._num_slots
        #: non-fixed active flow ids touching each slot
        self._slot_members: List[Set[int]] = [
            set() for _ in range(self._num_slots)
        ]
        self._dirty_slots: Set[int] = set()
        #: achieved throughput per slot as of the last slot_throughput(),
        #: and the slots whose members or member rates moved since
        self._throughput = np.zeros(self._num_slots)
        self._throughput_dirty: Set[int] = set()
        #: internal absolute clock: the sum of every advance() dt, the
        #: reference frame for the finish instants
        self._clock = 0.0

        #: plain-int effectiveness counters (always maintained; the obs
        #: Registry reads them, see :meth:`declare_metrics`).
        #: ``heap_entries`` counts finish instants written and
        #: ``stale_heap_pops`` stays 0: the names predate the array
        self.stats: Dict[str, int] = {
            "sparse_recomputes": 0,
            "slots_recomputed": 0,
            "flows_recomputed": 0,
            "heap_entries": 0,
            "stale_heap_pops": 0,
        }

    # -- observability ---------------------------------------------------------
    def declare_metrics(self, registry: "Registry") -> None:
        """Sparse-recompute effectiveness counters, read from ``stats``."""
        stats = self.stats
        registry.counter(
            "repro_fluid_sparse_recomputes_total",
            "Sparse rate recomputations (dirty-neighborhood passes)",
            lambda: stats["sparse_recomputes"],
        )
        registry.counter(
            "repro_fluid_slots_recomputed_total",
            "Slots whose demand/scale was resummed across all sparse passes",
            lambda: stats["slots_recomputed"],
        )
        registry.counter(
            "repro_fluid_flows_recomputed_total",
            "Flows re-rated across all sparse passes",
            lambda: stats["flows_recomputed"],
        )

    # -- registration ----------------------------------------------------------
    def _slot_index(self, machine_id: int, dim_name: str) -> int:
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"machine {machine_id} out of range")
        try:
            k = self._dim_slot[dim_name]
        except KeyError:
            raise ValueError(
                f"{dim_name!r} is not a fluid dimension of the model"
            ) from None
        return machine_id * self._nf + k

    def _grow(self) -> None:
        old = len(self._remaining)
        new = old * 2
        self._remaining = np.resize(self._remaining, new)
        self._nominal = np.resize(self._nominal, new)
        self._rate = np.resize(self._rate, new)
        grown_slots = np.full((new, MAX_SLOTS), -1, dtype=np.int64)
        grown_slots[:old] = self._slots
        self._slots = grown_slots
        fixed = np.zeros(new, dtype=bool)
        fixed[:old] = self._fixed
        self._fixed = fixed
        active = np.zeros(new, dtype=bool)
        active[:old] = self._active
        self._active = active
        finish = np.full(new, np.inf)
        finish[:old] = self._finish
        self._finish = finish
        gen = np.zeros(new, dtype=np.int64)
        gen[:old] = self._gen
        self._gen = gen
        self._nominal_of.extend([0.0] * old)
        self._rate_of.extend([0.0] * old)
        self._slots_of.extend([()] * old)
        self._free.extend(range(old, new))

    def _schedule_finish(self, flows: Sequence[int]) -> None:
        """Write the finish instants of ``flows`` (ascending ids) after
        their rates were set.

        The absolute instant ``clock + remaining/rate`` is invariant
        under advance(), so it stays correct until the rate changes,
        which writes it again.  One to three flows at a time: element
        writes cost less than fancy indexing, with the same float64
        operations.
        """
        clock = self._clock
        finish, gen = self._finish, self._gen
        remaining, rate = self._remaining, self._rate
        for flow_id in flows:
            finish[flow_id] = clock + remaining[flow_id] / rate[flow_id]
            gen[flow_id] += 1
        self.stats["heap_entries"] += len(flows)

    def add_flow(self, spec: FlowSpec) -> int:
        """Register a flow; returns its id.  Zero-work flows are rejected."""
        if spec.work <= 0:
            raise ValueError(f"flow work must be positive: {spec.work}")
        if spec.nominal_rate <= 0:
            raise ValueError(
                f"flow nominal rate must be positive: {spec.nominal_rate}"
            )
        if len(spec.slots) > MAX_SLOTS:
            raise ValueError(f"flow touches too many slots: {spec.slots}")
        slots = tuple(
            [
                self._slot_index(machine_id, dim_name)
                for machine_id, dim_name in spec.slots
            ]
        )
        if not self._free:
            self._grow()
        idx = self._free.pop()
        self._remaining[idx] = spec.work
        self._nominal[idx] = spec.nominal_rate
        self._nominal_of[idx] = float(spec.nominal_rate)
        self._rate[idx] = spec.nominal_rate
        self._slots[idx] = slots + (-1,) * (MAX_SLOTS - len(slots))
        self._slots_of[idx] = slots
        self._fixed[idx] = spec.fixed
        self._active[idx] = True
        if spec.tag is not None:
            self._tags[idx] = spec.tag
        if spec.fixed or not slots:
            # contention never touches this flow: its rate is final now,
            # so its finish instant can be written immediately
            self._schedule_finish((idx,))
        else:
            members = self._slot_members
            for slot in slots:
                members[slot].add(idx)
            self._dirty_slots.update(slots)
        return idx

    def _deactivate(self, flow_id: int) -> None:
        """Retire a flow: free its id, clear its finish instant, and
        dirty the slots it was contending on."""
        self._active[flow_id] = False
        self._finish[flow_id] = np.inf
        self._gen[flow_id] += 1
        self._free.append(flow_id)
        if not self._fixed[flow_id]:
            slots = self._slots_of[flow_id]
            members = self._slot_members
            for slot in slots:
                members[slot].discard(flow_id)
            self._dirty_slots.update(slots)

    def remove_flow(self, flow_id: int) -> None:
        if not self._active[flow_id]:
            raise ValueError(f"flow {flow_id} is not active")
        self._deactivate(flow_id)
        self._tags.pop(flow_id, None)

    @property
    def num_active(self) -> int:
        return int(self._active.sum())

    def remaining_work(self, flow_id: int) -> float:
        if not self._active[flow_id]:
            raise ValueError(f"flow {flow_id} is not active")
        return float(self._remaining[flow_id])

    def current_rate(self, flow_id: int) -> float:
        self._recompute_rates()
        return float(self._rate[flow_id])

    # -- rate computation ----------------------------------------------------
    def _recompute_rates(self) -> None:
        """Refresh rates for the dirty-slot neighborhood only.

        Per dirty slot: resum the members' nominal demand from 0.0 in
        ascending flow-id order (an explicit loop, not ``sum()``, whose
        compensated float summation would round differently), the
        order and operations of a full ``np.add.at`` rebuild, and
        recompute the contention scale with the rebuild's formula.
        Then re-rate exactly the flows touching a dirty slot.  Clean
        slots keep their stored scale, which by induction equals the
        full rebuild's.
        """
        dirty = self._dirty_slots
        if not dirty:
            return
        slots = sorted(dirty)
        dirty.clear()
        nominal = self._nominal_of
        slot_members = self._slot_members
        capacity = self._slot_capacity
        sigma = self._slot_sigma
        scale = self._slot_scale
        touched: Set[int] = set()
        for s in slots:
            members = slot_members[s]
            demand = 0.0
            if members:
                for flow_id in sorted(members):
                    demand += nominal[flow_id]
                touched.update(members)
            cap = capacity[s]
            ratio = demand / cap if cap > 0 else float("inf")
            if demand > 0 and ratio > 1.0:
                # proportional share times the contention penalty
                scale[s] = 1.0 / (ratio * (1.0 + sigma[s] * (ratio - 1.0)))
            else:
                scale[s] = 1.0
        throughput_dirty = self._throughput_dirty
        throughput_dirty.update(slots)
        if touched:
            flows = sorted(touched)
            rate_of = self._rate_of
            slots_of = self._slots_of
            rate_array = self._rate
            for flow_id in flows:
                least = 1.0
                for s in slots_of[flow_id]:
                    if scale[s] < least:
                        least = scale[s]
                rate = nominal[flow_id] * least
                if rate != rate_of[flow_id]:
                    rate_of[flow_id] = rate
                    throughput_dirty.update(slots_of[flow_id])
                rate_array[flow_id] = rate
            self._schedule_finish(flows)
        self.stats["sparse_recomputes"] += 1
        self.stats["slots_recomputed"] += len(slots)
        self.stats["flows_recomputed"] += len(touched)

    def reference_rates(self) -> np.ndarray:
        """Full-table rate rebuild — the pre-sparse implementation, kept
        as the verification oracle.  Returns a fresh rate array without
        touching any table state; the sparse-maintained ``_rate`` must
        equal it on every active flow (property-tested to 1e-9, and by
        construction bit-identical)."""
        rate = self._rate.copy()
        active = self._active
        if not active.any():
            return rate
        idx = np.flatnonzero(active & ~self._fixed)
        demand = np.zeros(self._num_slots)
        if idx.size:
            slots = self._slots[idx]
            valid = slots >= 0
            np.add.at(
                demand,
                slots[valid],
                np.repeat(self._nominal[idx], MAX_SLOTS)[valid.reshape(-1)],
            )
        capacity = np.asarray(self._slot_capacity)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(capacity > 0, demand / capacity, np.inf)
        over = ratio > 1.0
        scale = np.ones(self._num_slots)
        sigma = np.asarray(self._slot_sigma)[over]
        scale[over] = 1.0 / (ratio[over] * (1.0 + sigma * (ratio[over] - 1.0)))
        scale[demand <= 0] = 1.0
        if idx.size:
            slots = self._slots[idx]
            slot_scale = np.where(slots >= 0, scale[np.maximum(slots, 0)], 1.0)
            rate[idx] = self._nominal[idx] * slot_scale.min(axis=1)
        fixed_idx = np.flatnonzero(active & self._fixed)
        rate[fixed_idx] = self._nominal[fixed_idx]
        return rate

    # -- time stepping ----------------------------------------------------------
    def time_to_next_completion(self) -> float:
        """Seconds until the earliest active flow finishes (inf if none).

        The least finish instant names the earliest finisher
        (exact ties: lowest generation, then lowest id); the returned
        interval is computed fresh from its current remaining work and
        rate.
        """
        self._recompute_rates()
        finish = self._finish
        best = finish.min()
        if best == np.inf:
            return float("inf")
        ties = (finish == best).nonzero()[0]
        idx = int(ties[0])
        if ties.size > 1:
            idx = int(ties[self._gen[ties].argmin()])
        return float(self._remaining[idx] / self._rate[idx])

    def advance(self, dt: float) -> List[int]:
        """Progress all flows by ``dt`` seconds; return ids that completed.

        One whole-array update: free flow ids burn stale work too, which
        nothing reads (``add_flow`` overwrites it), and each active flow
        gets exactly the elementwise ``remaining - rate * dt``.
        """
        if dt < 0:
            raise ValueError(f"negative dt: {dt}")
        self._recompute_rates()
        self._clock += dt
        if dt > 0:
            self._remaining -= self._rate * dt
        done = (self._remaining <= WORK_TOLERANCE) & self._active
        completed = done.nonzero()[0].tolist()
        for flow_id in completed:
            self._deactivate(flow_id)
        return completed

    def completed_tags(self, completed: Iterable[int]) -> List[object]:
        out = []
        for flow_id in completed:
            tag = self._tags.pop(flow_id, None)
            if tag is not None:
                out.append(tag)
        return out

    # -- observation -----------------------------------------------------------
    def slot_demand(self) -> np.ndarray:
        """Nominal demand per (machine, fluid-dim), shape (M, F).

        This is what a naive utilization counter would report — it exceeds
        capacity when a scheduler over-allocates (Figure 5c of the paper).
        """
        demand = np.zeros(self._num_slots)
        idx = np.flatnonzero(self._active & ~self._fixed)
        if idx.size:
            slots = self._slots[idx]
            valid = slots >= 0
            np.add.at(
                demand,
                slots[valid],
                np.repeat(self._nominal[idx], MAX_SLOTS)[valid.reshape(-1)],
            )
        return demand.reshape(self.num_machines, self._nf)

    def slot_throughput(self) -> np.ndarray:
        """Achieved rate per (machine, fluid-dim), shape (M, F).

        Re-sums, in ascending flow id from 0.0 (the order and operations
        of a full ``np.add.at`` over the active flows), only the slots
        whose members or member rates moved since the last call.
        """
        self._recompute_rates()
        throughput = self._throughput
        if self._throughput_dirty:
            rate_of = self._rate_of
            slot_members = self._slot_members
            for s in self._throughput_dirty:
                total = 0.0
                for flow_id in sorted(slot_members[s]):
                    total += rate_of[flow_id]
                throughput[s] = total
            self._throughput_dirty.clear()
        return throughput.reshape(self.num_machines, self._nf).copy()

    def fluid_dim_names(self) -> Tuple[str, ...]:
        return tuple(self.model.names[d] for d in self._fluid_dims)
