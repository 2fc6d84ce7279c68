"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

import repro
from repro.cluster.cluster import Cluster
from repro.resources import DEFAULT_MODEL, ResourceVector
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskInput, TaskWork


def config_dataclasses() -> Dict[str, type]:
    """Every ``*Config`` dataclass the ``repro`` package defines, by
    name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                name.endswith("Config")
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == info.name
            ):
                found[name] = obj
    return found


def make_task(
    cpu: float = 1.0,
    mem: float = 2.0,
    diskr: float = 0.0,
    diskw: float = 0.0,
    netin: float = 0.0,
    netout: float = 0.0,
    cpu_work: float = 10.0,
    write_mb: float = 0.0,
    inputs: Sequence[TaskInput] = (),
) -> Task:
    """A task with the given peak demands and work."""
    demands = DEFAULT_MODEL.vector(
        cpu=cpu, mem=mem, diskr=diskr, diskw=diskw, netin=netin, netout=netout
    )
    return Task(demands, TaskWork(cpu_work, write_mb), inputs=inputs)


def make_simple_job(
    num_tasks: int = 4,
    arrival_time: float = 0.0,
    cpu: float = 1.0,
    mem: float = 2.0,
    cpu_work: float = 10.0,
    name: Optional[str] = None,
    template: Optional[str] = None,
) -> Job:
    """A one-stage CPU-only job."""
    tasks = [
        make_task(cpu=cpu, mem=mem, cpu_work=cpu_work)
        for _ in range(num_tasks)
    ]
    stage = Stage("only", tasks)
    return Job(
        [stage], arrival_time=arrival_time, name=name, template=template
    )


def make_two_stage_job(
    num_map: int = 4,
    num_reduce: int = 2,
    arrival_time: float = 0.0,
    name: Optional[str] = None,
) -> Job:
    """A map-reduce job with a barrier between the stages."""
    maps = [
        make_task(cpu=1, mem=2, cpu_work=10.0) for _ in range(num_map)
    ]
    reduces = [
        make_task(cpu=1, mem=1, netin=50.0, diskr=50.0, cpu_work=5.0,
                  inputs=[TaskInput(100.0, ())])
        for _ in range(num_reduce)
    ]
    map_stage = Stage("map", maps)
    reduce_stage = Stage("reduce", reduces, parents=[map_stage])
    return Job([map_stage, reduce_stage], arrival_time=arrival_time, name=name)


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster(4, machines_per_rack=2, seed=7)


@pytest.fixture
def capacity() -> ResourceVector:
    return DEFAULT_MODEL.vector(
        cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125
    )
