"""The motivating example of Section 2.1 / Figure 1.

Three map-reduce jobs on a cluster with 18 cores, 36 GB of memory and a
3 Gbps network:

- job A: 18 map tasks of (1 core, 2 GB); 3 reduce tasks of 1 Gbps;
- jobs B, C: 6 map tasks of (3 cores, 1 GB); 3 reduce tasks of 1 Gbps;
- every task runs for exactly ``t`` time units, and a strict barrier
  separates the phases.

DRF equalizes dominant shares at 1/3 (A on memory, B and C on cores), so
all map phases crawl along together and every job finishes at 6t.  A
packing scheduler runs one job's map phase at full tilt and overlaps its
network-bound reducers with the next job's CPU/memory-bound mappers:
jobs finish at 2t, 3t and 4t — average completion time drops by 50% and
makespan by 33%, and the result holds under any job permutation.

This module reproduces both schedules with small, faithful round-based
implementations of DRF progressive filling and dot-product packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resources import ordered_sum

__all__ = [
    "MotivatingExample",
    "RoundSchedule",
    "drf_schedule",
    "packing_schedule",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a job: ``count`` tasks of the given demand vector."""

    count: int
    demand: Tuple[float, ...]  # (cores, memory GB, network Gbps)


@dataclass(frozen=True)
class JobSpec:
    name: str
    phases: Tuple[PhaseSpec, ...]


@dataclass
class MotivatingExample:
    """The Figure 1 setup (capacities and job phase specs)."""

    capacity: Tuple[float, ...] = (18.0, 36.0, 3.0)
    jobs: Tuple[JobSpec, ...] = (
        JobSpec("A", (PhaseSpec(18, (1, 2, 0)), PhaseSpec(3, (0, 0, 1)))),
        JobSpec("B", (PhaseSpec(6, (3, 1, 0)), PhaseSpec(3, (0, 0, 1)))),
        JobSpec("C", (PhaseSpec(6, (3, 1, 0)), PhaseSpec(3, (0, 0, 1)))),
    )


@dataclass
class RoundSchedule:
    """Result of a round-based schedule of the example.

    ``rounds[r][job][phase]`` is the number of that job's phase tasks run
    during round r (each round is ``t`` long).  Completion times and
    makespan are in units of t.
    """

    rounds: List[Dict[str, List[int]]]
    completion: Dict[str, int]

    @property
    def makespan(self) -> int:
        return max(self.completion.values())

    @property
    def average_completion(self) -> float:
        return sum(self.completion.values()) / len(self.completion)


class _State:
    """Remaining tasks and barrier state during a round-based run."""

    def __init__(self, example: MotivatingExample):
        self.example = example
        self.remaining = {
            job.name: [phase.count for phase in job.phases]
            for job in example.jobs
        }
        self.phase_of = {job.name: 0 for job in example.jobs}
        self.completion: Dict[str, int] = {}

    def runnable_demand(self, name: str) -> Optional[Tuple[float, ...]]:
        """Demand of this job's currently-runnable phase, if any."""
        job = next(j for j in self.example.jobs if j.name == name)
        phase = self.phase_of[name]
        if phase >= len(job.phases):
            return None
        if self.remaining[name][phase] == 0:
            return None
        return job.phases[phase].demand

    def start_task(self, name: str) -> int:
        phase = self.phase_of[name]
        self.remaining[name][phase] -= 1
        return phase

    def end_round(self, round_index: int, ran: Dict[str, List[int]]) -> None:
        """Advance barriers after every running task finished the round."""
        for job in self.example.jobs:
            name = job.name
            phase = self.phase_of[name]
            while (
                phase < len(job.phases) and self.remaining[name][phase] == 0
            ):
                phase += 1
            self.phase_of[name] = phase
            if phase >= len(job.phases) and name not in self.completion:
                if any(ran[name]):
                    self.completion[name] = round_index + 1

    def done(self) -> bool:
        return all(
            self.phase_of[j.name] >= len(j.phases)
            for j in self.example.jobs
        )


def _run_rounds(example: MotivatingExample, pick) -> RoundSchedule:
    """Run rounds until completion; ``pick(state, free)`` chooses the next
    job to start a task for (or None when nothing should start)."""
    state = _State(example)
    rounds: List[Dict[str, List[int]]] = []
    for round_index in range(100):
        if state.done():
            break
        free = np.array(example.capacity, dtype=float)
        begin_round = getattr(pick, "begin_round", None)
        if begin_round is not None:
            begin_round()
        ran = {
            job.name: [0] * len(job.phases) for job in example.jobs
        }
        while True:
            name = pick(state, free)
            if name is None:
                break
            demand = np.array(state.runnable_demand(name))
            phase = state.start_task(name)
            ran[name][phase] += 1
            free -= demand
        if not any(any(counts) for counts in ran.values()):
            raise RuntimeError(
                "schedule is infeasible: no runnable task fits "
                "(a task's demand exceeds every bin)"
            )
        rounds.append(ran)
        state.end_round(round_index, ran)
    else:
        raise RuntimeError("example did not converge")
    return RoundSchedule(rounds=rounds, completion=state.completion)


def drf_schedule(
    example: Optional[MotivatingExample] = None,
) -> RoundSchedule:
    """DRF progressive filling: next task to the lowest dominant share."""
    example = example if example is not None else MotivatingExample()
    capacity = np.array(example.capacity, dtype=float)
    round_used: Dict[str, np.ndarray] = {}

    def begin_round() -> None:
        for job in example.jobs:
            round_used[job.name] = np.zeros(len(capacity))

    def pick(state: _State, free: np.ndarray) -> Optional[str]:
        best = None
        best_share = float("inf")
        for job in example.jobs:
            demand = state.runnable_demand(job.name)
            if demand is None:
                continue
            d = np.array(demand, dtype=float)
            if np.any(d > free + 1e-9):
                continue
            share = float(
                np.max(
                    np.where(capacity > 0, round_used[job.name] / capacity, 0)
                )
            )
            if share < best_share - 1e-12:
                best_share = share
                best = job.name
        if best is not None:
            round_used[best] += np.array(
                state.runnable_demand(best), dtype=float
            )
        return best

    pick.begin_round = begin_round
    return _run_rounds(example, pick)


def packing_schedule(
    example: Optional[MotivatingExample] = None,
) -> RoundSchedule:
    """Dot-product packing with an SRTF tie-break (what Tetris does)."""
    example = example if example is not None else MotivatingExample()
    capacity = np.array(example.capacity, dtype=float)

    def remaining_work(state: _State, name: str) -> float:
        job = next(j for j in example.jobs if j.name == name)
        total = 0.0
        for phase_index, phase in enumerate(job.phases):
            d = np.array(phase.demand, dtype=float)
            normalized = float(
                np.sum(np.where(capacity > 0, d / capacity, 0))
            )
            total += normalized * state.remaining[name][phase_index]
        return total

    def pick(state: _State, free: np.ndarray) -> Optional[str]:
        free_norm = np.where(capacity > 0, free / capacity, 0)
        fitting: List[Tuple[str, float, float]] = []
        for job in example.jobs:
            demand = state.runnable_demand(job.name)
            if demand is None:
                continue
            d = np.array(demand, dtype=float)
            if np.any(d > free + 1e-9):
                continue
            d_norm = np.where(capacity > 0, d / capacity, 0)
            alignment = float(np.dot(d_norm, free_norm))
            fitting.append(
                (job.name, alignment, remaining_work(state, job.name))
            )
        if not fitting:
            return None
        # Tetris's combined score a - (a_bar/p_bar) * p  (Section 3.3.2)
        a_bar = ordered_sum(f[1] for f in fitting) / len(fitting)
        p_bar = ordered_sum(f[2] for f in fitting) / len(fitting)
        epsilon = a_bar / p_bar if p_bar > 0 else 0.0
        return max(fitting, key=lambda f: f[1] - epsilon * f[2])[0]

    return _run_rounds(example, pick)
