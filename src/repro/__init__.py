"""Tetris: multi-resource packing for cluster schedulers (SIGCOMM 2014).

A from-scratch reproduction of the paper's system and evaluation:

- :mod:`repro.resources` — resource vectors and models;
- :mod:`repro.cluster` — machines, racks, HDFS-like block store;
- :mod:`repro.workload` — tasks, stages, jobs, DAGs, trace generation;
- :mod:`repro.sim` — the discrete-event fluid simulator;
- :mod:`repro.schedulers` — Tetris plus every baseline and ablation;
- :mod:`repro.estimation` — demand estimators and the resource tracker;
- :mod:`repro.enforcement` — token-bucket I/O enforcement;
- :mod:`repro.activity` — ingestion/evacuation background load;
- :mod:`repro.metrics`, :mod:`repro.analysis` — evaluation metrics;
- :mod:`repro.experiments` — the harness reproducing each table/figure.

Quickstart::

    from repro import (
        Cluster, TetrisScheduler, generate_workload_suite,
        WorkloadSuiteConfig, run_trace, ExperimentConfig,
    )

    trace = generate_workload_suite(WorkloadSuiteConfig(num_jobs=40))
    result = run_trace(trace, TetrisScheduler(),
                       ExperimentConfig(num_machines=50))
    print(result.summary())
"""

from repro.resources import (
    DEFAULT_MODEL,
    FB_MACHINE_CAPACITY,
    ResourceModel,
    ResourceVector,
)
from repro.cluster import Cluster, Machine, Topology
from repro.workload import (
    BingTraceConfig,
    FacebookTraceConfig,
    Job,
    Stage,
    Task,
    TaskInput,
    TaskWork,
    WorkloadSuiteConfig,
    generate_bing_trace,
    generate_facebook_trace,
    generate_workload_suite,
)
from repro.workload.trace import materialize_trace, load_trace, save_trace
from repro.schedulers import (
    CapacityScheduler,
    DRFScheduler,
    FifoScheduler,
    PackingOnlyScheduler,
    SlotFairScheduler,
    SRTFScheduler,
    TetrisConfig,
    TetrisScheduler,
    aggregate_upper_bound,
)
from repro.estimation import (
    NoisyEstimator,
    OracleEstimator,
    ProfilingEstimator,
    ResourceTracker,
)
from repro.activity import evacuation, ingestion
from repro.sim import Engine, EngineConfig
from repro.experiments import (
    ExperimentConfig,
    RunResult,
    run_comparison,
    run_trace,
)
from repro.metrics import MetricsCollector
from repro.integration.asks import Ask, StageAsk, build_ask

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_MODEL",
    "FB_MACHINE_CAPACITY",
    "ResourceModel",
    "ResourceVector",
    "Cluster",
    "Machine",
    "Topology",
    "Job",
    "Stage",
    "Task",
    "TaskInput",
    "TaskWork",
    "WorkloadSuiteConfig",
    "FacebookTraceConfig",
    "BingTraceConfig",
    "generate_workload_suite",
    "generate_facebook_trace",
    "generate_bing_trace",
    "materialize_trace",
    "load_trace",
    "save_trace",
    "TetrisScheduler",
    "TetrisConfig",
    "SlotFairScheduler",
    "CapacityScheduler",
    "DRFScheduler",
    "FifoScheduler",
    "SRTFScheduler",
    "PackingOnlyScheduler",
    "aggregate_upper_bound",
    "OracleEstimator",
    "NoisyEstimator",
    "ProfilingEstimator",
    "ResourceTracker",
    "ingestion",
    "evacuation",
    "Engine",
    "EngineConfig",
    "ExperimentConfig",
    "RunResult",
    "run_trace",
    "run_comparison",
    "MetricsCollector",
    "Ask",
    "StageAsk",
    "build_ask",
]
