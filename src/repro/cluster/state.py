"""The structure-of-arrays cluster state plane.

Hot per-machine state lives here as contiguous ``(machines, dims)``
numpy matrices — capacity, booked allocations, observed usage — plus a
per-machine occupancy counter.  :class:`~repro.cluster.machine.Machine`
objects are thin views over the rows: their ``capacity`` /
``allocated`` / ``observed_usage`` vectors wrap matrix rows without
copying (``ResourceVector`` preserves array views), so every in-place
mutation made through the object API writes straight into the matrices
and every matrix-level kernel sees it immediately.

The clamped free matrix — what the packing hot path reads — is
maintained lazily: ``place``/``remove`` only flag the touched row
dirty, and :meth:`ClusterState.free_clamped_matrix` refreshes all dirty
rows in one vectorized pass.  The refresh computes exactly
``max(capacity - allocated, 0)`` elementwise, the same float operations
as the scalar ``Machine.free().clamp_nonnegative()`` path, so both
views of the free vector are bit-identical.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

import numpy as np

from repro.resources import ResourceModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources import ResourceVector

__all__ = ["ClusterState"]


class ClusterState:
    """Flat array state for a set of machines.

    Attributes
    ----------
    capacity, allocated, observed:
        ``(num_machines, dims)`` float64 matrices.  ``capacity`` is
        fixed after construction; ``allocated`` and ``observed`` are
        mutated in place through the :class:`Machine` row views.
    num_running:
        ``(num_machines,)`` int64 occupancy counters, maintained by
        ``Machine.place``/``Machine.remove``.
    """

    __slots__ = (
        "model",
        "capacity",
        "allocated",
        "observed",
        "num_running",
        "_free_clamped",
        "_free_dirty",
        "_any_dirty",
        "alloc_gen",
    )

    def __init__(self, model: ResourceModel, capacities: np.ndarray):
        capacities = np.ascontiguousarray(capacities, dtype=float)
        if capacities.ndim != 2 or capacities.shape[1] != model.dims:
            raise ValueError(
                f"expected (machines, {model.dims}) capacities, "
                f"got shape {capacities.shape}"
            )
        self.model = model
        self.capacity = capacities
        num = capacities.shape[0]
        self.allocated = np.zeros_like(capacities)
        self.observed = np.zeros_like(capacities)
        self.num_running = np.zeros(num, dtype=np.int64)
        # allocated starts at zero, so free == capacity (clamped is a
        # no-op on non-negative capacities but applied for identity
        # with the scalar path)
        self._free_clamped = np.maximum(capacities - self.allocated, 0.0)
        self._free_dirty = np.zeros(num, dtype=bool)
        self._any_dirty = False
        #: monotone allocation version: bumped on every allocation
        #: change (all mutations funnel through ``mark_dirty``), so
        #: derived caches can validate with one integer compare instead
        #: of re-reading free rows
        self.alloc_gen = 0

    @classmethod
    def from_capacities(
        cls, capacities: Sequence["ResourceVector"]
    ) -> "ClusterState":
        model = capacities[0].model
        return cls(model, np.stack([c.data for c in capacities]))

    @property
    def num_machines(self) -> int:
        return self.capacity.shape[0]

    # -- dirty-row maintenance --------------------------------------------
    def mark_dirty(self, row: int) -> None:
        """Flag a machine's free row stale after an allocation change."""
        self._free_dirty[row] = True
        self._any_dirty = True
        self.alloc_gen += 1

    def _refresh(self) -> None:
        rows = np.flatnonzero(self._free_dirty)
        # max(capacity - allocated, 0) per element: identical float ops
        # to Machine.free().clamp_nonnegative()
        fresh = self.capacity[rows] - self.allocated[rows]
        np.maximum(fresh, 0.0, out=fresh)
        self._free_clamped[rows] = fresh
        self._free_dirty[rows] = False
        self._any_dirty = False

    # -- matrix views ------------------------------------------------------
    def free_clamped_matrix(self) -> np.ndarray:
        """The ``(machines, dims)`` clamped free matrix, freshly
        reconciled.  Shared storage — callers must not mutate it."""
        if self._any_dirty:
            self._refresh()
        return self._free_clamped

    def free_clamped_row(self, row: int) -> np.ndarray:
        """One machine's clamped free vector (shared row view)."""
        if self._any_dirty and self._free_dirty[row]:
            fresh = self.capacity[row] - self.allocated[row]
            np.maximum(fresh, 0.0, out=fresh)
            self._free_clamped[row] = fresh
            self._free_dirty[row] = False
            # _any_dirty stays conservatively True; the next full-matrix
            # refresh clears it
        return self._free_clamped[row]

    def __repr__(self) -> str:
        return (
            f"ClusterState(machines={self.num_machines}, "
            f"dims={self.model.dims})"
        )
