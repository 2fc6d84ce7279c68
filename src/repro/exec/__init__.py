"""Parallel execution of run grids: specs and backends.

The run pipeline is layered so every sweep in the paper — schedulers ×
knobs × seeds (Figures 4–11, Tables 5–7) — is a list of independent,
serializable :class:`RunSpec` cells that any backend can execute:

- :mod:`repro.exec.spec` — :class:`RunSpec` (frozen, picklable run
  description) and :func:`execute`, the single spec → ``RunResult``
  entry point; :func:`run_specs` fans a spec list out over a backend
  and returns :class:`RunOutcome` rows in spec order;
- :mod:`repro.exec.backends` — :class:`SerialBackend` (default,
  current behavior) and :class:`ProcessPoolBackend` (multiprocessing
  with per-run failure isolation, timeouts that kill hung workers,
  bounded retries, progress callbacks).

Key invariant (property-tested): a grid run with ``workers=N`` is
bit-identical, metric for metric, to the serial run — parallelism is an
execution detail, never an experimental variable.
"""

from repro.exec.backends import (
    ExecutionError,
    ProcessPoolBackend,
    SerialBackend,
    TaskOutcome,
    get_backend,
    resolve_workers,
)
from repro.exec.spec import (
    RunOutcome,
    RunSpec,
    execute,
    raise_on_failure,
    run_specs,
)

__all__ = [
    "ExecutionError",
    "ProcessPoolBackend",
    "SerialBackend",
    "TaskOutcome",
    "get_backend",
    "resolve_workers",
    "RunOutcome",
    "RunSpec",
    "execute",
    "raise_on_failure",
    "run_specs",
]
