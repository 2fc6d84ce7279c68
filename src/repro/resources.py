"""Resource vectors and resource models.

Everything in this reproduction is expressed in terms of a small set of
resource *dimensions*.  The paper (Tables 4 and 5) tracks six of them per
machine and per task:

- ``cpu``     -- cores
- ``mem``     -- GB of RAM
- ``diskr``   -- disk read bandwidth, MB/s
- ``diskw``   -- disk write bandwidth, MB/s
- ``netin``   -- network bandwidth into the machine, MB/s
- ``netout``  -- network bandwidth out of the machine, MB/s

A :class:`ResourceModel` names the dimensions and classifies each one as
*rigid* (CPU, memory: allocated exactly, never over-committed by a scheduler
that checks them) or *fluid* (disk and network bandwidth: actual consumption
is a rate, and contention squeezes everyone proportionally).

A :class:`ResourceVector` is a point in that space, backed by a small numpy
array.  Vectors are used for machine capacities, free resources, task peak
demands and utilization samples.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ResourceModel",
    "ResourceVector",
    "DEFAULT_MODEL",
    "FB_MACHINE_CAPACITY",
    "ordered_sum",
]

#: Comparison slack for capacity checks, in absolute units.  Fluid rates are
#: MB/s (order 1e2) and rigid units are cores/GB (order 1e1), so 1e-9 is far
#: below any meaningful quantity.
EPSILON = 1e-9


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right from 0.0, on every interpreter alike.

    From Python 3.12 the builtin ``sum()`` adds floats with compensated
    summation, so its result can differ from 3.11's in the last bits, and
    a last-bit difference can change a placement.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class ResourceModel:
    """Names and classifies the resource dimensions used by a simulation.

    Parameters
    ----------
    names:
        Ordered dimension names, e.g. ``("cpu", "mem", "diskr", ...)``.
    fluid:
        Names of the dimensions whose consumption is a *rate* subject to
        proportional-share contention (disk and network bandwidth).  The
        rest are rigid (CPU cores, memory).
    """

    __slots__ = ("names", "index", "fluid_mask", "rigid_mask", "_hash")

    def __init__(self, names: Sequence[str], fluid: Iterable[str] = ()):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate resource names in {names!r}")
        self.names: Tuple[str, ...] = tuple(names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        fluid = set(fluid)
        unknown = fluid - set(self.names)
        if unknown:
            raise ValueError(f"fluid dimensions {sorted(unknown)} not in model")
        self.fluid_mask = np.array([n in fluid for n in self.names], dtype=bool)
        self.rigid_mask = ~self.fluid_mask
        self._hash = hash(self.names + tuple(sorted(fluid)))

    @property
    def dims(self) -> int:
        return len(self.names)

    def fluid_names(self) -> Tuple[str, ...]:
        return tuple(n for n, f in zip(self.names, self.fluid_mask) if f)

    def rigid_names(self) -> Tuple[str, ...]:
        return tuple(n for n, f in zip(self.names, self.rigid_mask) if f)

    def zeros(self) -> "ResourceVector":
        return ResourceVector(self, np.zeros(self.dims))

    def mask(self, names: Optional[Iterable[str]] = None) -> np.ndarray:
        """Boolean dimension mask selecting ``names`` (None selects all).

        Used by the batched packing path to restrict fit checks and
        alignment scoring to a subset of dimensions without rebuilding
        :class:`ResourceVector` objects per candidate.
        """
        if names is None:
            return np.ones(self.dims, dtype=bool)
        out = np.zeros(self.dims, dtype=bool)
        for name in names:
            try:
                out[self.index[name]] = True
            except KeyError:
                raise KeyError(
                    f"unknown resource {name!r}; model has {self.names}"
                ) from None
        return out

    def vector(self, **values: float) -> "ResourceVector":
        """Build a vector from keyword values; unnamed dimensions are zero.

        >>> DEFAULT_MODEL.vector(cpu=2, mem=4).get("cpu")
        2.0
        """
        data = np.zeros(self.dims)
        for name, value in values.items():
            try:
                data[self.index[name]] = value
            except KeyError:
                raise KeyError(
                    f"unknown resource {name!r}; model has {self.names}"
                ) from None
        return ResourceVector(self, data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ResourceModel)
            and self.names == other.names
            and bool(np.array_equal(self.fluid_mask, other.fluid_mask))
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ResourceModel({self.names!r}, fluid={self.fluid_names()!r})"


class ResourceVector:
    """A vector of resource quantities under a :class:`ResourceModel`.

    Arithmetic returns new vectors; the ``*_inplace`` variants mutate and are
    used on the simulator hot path.  All comparisons tolerate ``EPSILON`` of
    floating-point slack.
    """

    __slots__ = ("model", "data")

    def __init__(self, model: ResourceModel, data: np.ndarray):
        self.model = model
        self.data = np.asarray(data, dtype=float)
        if self.data.shape != (model.dims,):
            raise ValueError(
                f"expected {model.dims} dimensions, got shape {self.data.shape}"
            )

    # -- construction -----------------------------------------------------
    def copy(self) -> "ResourceVector":
        return ResourceVector(self.model, self.data.copy())

    @classmethod
    def zeros_like(cls, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(other.model, np.zeros(other.model.dims))

    # -- element access ---------------------------------------------------
    def get(self, name: str) -> float:
        return float(self.data[self.model.index[name]])

    def set(self, name: str, value: float) -> None:
        self.data[self.model.index[name]] = value

    def as_dict(self) -> Dict[str, float]:
        return {n: float(v) for n, v in zip(self.model.names, self.data)}

    def __iter__(self) -> Iterator[float]:
        return iter(self.data)

    # -- arithmetic -------------------------------------------------------
    def _check(self, other: "ResourceVector") -> None:
        if other.model is not self.model and other.model != self.model:
            raise ValueError("resource vectors from different models")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        self._check(other)
        return ResourceVector(self.model, self.data + other.data)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        self._check(other)
        return ResourceVector(self.model, self.data - other.data)

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(self.model, self.data * float(scalar))

    __rmul__ = __mul__

    def add_inplace(self, other: "ResourceVector") -> None:
        self._check(other)
        self.data += other.data

    def sub_inplace(self, other: "ResourceVector") -> None:
        self._check(other)
        self.data -= other.data

    def clamp_nonnegative(self) -> "ResourceVector":
        return ResourceVector(self.model, np.maximum(self.data, 0.0))

    def elementwise_min(self, other: "ResourceVector") -> "ResourceVector":
        self._check(other)
        return ResourceVector(self.model, np.minimum(self.data, other.data))

    # -- comparisons / predicates ------------------------------------------
    def fits_in(self, other: "ResourceVector") -> bool:
        """True if this vector is <= ``other`` in every dimension (with slack)."""
        self._check(other)
        return bool(np.all(self.data <= other.data + EPSILON))

    def is_zero(self) -> bool:
        return bool(np.all(np.abs(self.data) <= EPSILON))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ResourceVector)
            and self.model == other.model
            and bool(np.allclose(self.data, other.data, atol=EPSILON))
        )

    def __hash__(self) -> int:  # pragma: no cover - vectors are not dict keys
        return hash((self.model, self.data.tobytes()))

    # -- scoring helpers ----------------------------------------------------
    def normalized_by(self, capacity: "ResourceVector") -> "ResourceVector":
        """Divide by ``capacity`` per-dimension; zero-capacity dims map to 0.

        Normalizing both task demands and machine availability by the
        machine's capacity is how the paper makes the alignment score
        insensitive to units (Section 3.2).
        """
        self._check(capacity)
        out = np.zeros(self.model.dims)
        nz = capacity.data > EPSILON
        out[nz] = self.data[nz] / capacity.data[nz]
        return ResourceVector(self.model, out)

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """Max over dimensions of self/capacity — DRF's dominant share."""
        return float(np.max(self.normalized_by(capacity).data, initial=0.0))

    def total(self) -> float:
        return float(self.data.sum())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={v:g}" for n, v in zip(self.model.names, self.data) if v
        )
        return f"ResourceVector({inner or '0'})"


#: The paper's six-dimension model (Tables 4 and 5).  CPU is fluid because
#: cores time-share: over-committing CPU slows everyone proportionally
#: (with no extra penalty — see repro.sim.fluid.CONTENTION_SIGMA).  Memory
#: is the only rigid resource: a task's peak memory is held for its whole
#: lifetime.
DEFAULT_MODEL = ResourceModel(
    names=("cpu", "mem", "diskr", "diskw", "netin", "netout"),
    fluid=("cpu", "diskr", "diskw", "netin", "netout"),
)

#: Machine profile used for the Facebook trace replay (Section 5.1):
#: 16 cores, 48 GB memory, 4 disks at 50 MB/s each, 1 Gbps NIC (125 MB/s).
FB_MACHINE_CAPACITY = DEFAULT_MODEL.vector(
    cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125
)
