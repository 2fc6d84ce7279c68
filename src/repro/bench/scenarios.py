"""Canonical benchmark scenarios, runnable outside pytest.

Historically the scenario configurations lived in ``benchmarks/conftest.py``
and could only be exercised through the pytest benchmark harness.  They
are defined here instead — ``benchmarks/conftest.py`` imports them — so
the same workloads drive both the per-figure pytest benchmarks and the
``repro bench`` profile capture.

Two scenario shapes:

- :class:`TraceScenario` — materialize a generated trace on a fresh
  cluster and run one scheduler end-to-end (the deployment/simulation
  workloads of Sections 5.2/5.3);
- :class:`PackingScenario` — the Table 7-style hot-path microbench: a
  cluster mid-simulation with thousands of pending tasks, timing one
  full packing round.

Every scenario fingerprints its own configuration
(:meth:`config_fingerprint`), so a stored profile can refuse comparison
against a profile captured from different parameters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Union

from repro.workload.tracegen import (
    BingTraceConfig,
    FacebookTraceConfig,
    WorkloadSuiteConfig,
    generate_bing_trace,
    generate_facebook_trace,
    generate_workload_suite,
)

__all__ = [
    "TraceScenario",
    "PackingScenario",
    "ServeScenario",
    "Scenario",
    "SCENARIOS",
    "DEPLOY_SUITE",
    "DEPLOY_MACHINES",
    "FB_TRACE",
    "FB_MACHINES",
    "get_scenario",
    "scenario_names",
    "packing_state",
]

#: the Section 5.2 deployment-style workload (Tetris vs CS vs DRF)
DEPLOY_SUITE = WorkloadSuiteConfig(
    num_jobs=40, task_scale=0.05, arrival_horizon=1000, seed=1
)
DEPLOY_MACHINES = 20

#: the Section 5.3 simulation workload (Facebook statistics)
FB_TRACE = FacebookTraceConfig(
    num_jobs=60, arrival_horizon=1500, max_map_tasks=150, seed=7
)
FB_MACHINES = 30

_GENERATORS = {
    WorkloadSuiteConfig: ("suite", generate_workload_suite),
    FacebookTraceConfig: ("facebook", generate_facebook_trace),
    BingTraceConfig: ("bing", generate_bing_trace),
}


@dataclass(frozen=True)
class TraceScenario:
    """One end-to-end run: generated trace, fresh cluster, one scheduler."""

    name: str
    description: str
    quick: bool
    trace_config: Union[
        WorkloadSuiteConfig, FacebookTraceConfig, BingTraceConfig
    ]
    num_machines: int
    scheduler: str = "tetris"
    use_tracker: bool = True

    @property
    def kind(self) -> str:
        return "trace"

    def make_trace(self):
        _, generate = _GENERATORS[type(self.trace_config)]
        return generate(self.trace_config)

    def params(self) -> Dict[str, object]:
        generator, _ = _GENERATORS[type(self.trace_config)]
        return {
            "kind": self.kind,
            "generator": generator,
            "trace_config": asdict(self.trace_config),
            "num_machines": self.num_machines,
            "scheduler": self.scheduler,
            "use_tracker": self.use_tracker,
        }

    def config_fingerprint(self) -> str:
        return _fingerprint(self.params())


@dataclass(frozen=True)
class PackingScenario:
    """A mid-simulation packing round: the Table 7 hot-path microbench.

    The cluster starts partially loaded (one long-running filler task per
    machine) with every job holding pending work, so one ``schedule()``
    call exercises candidate lookup, scoring, and placement exactly as a
    heartbeat burst would.
    """

    name: str
    description: str
    quick: bool
    num_machines: int
    num_jobs: int
    tasks_per_job: int
    rounds: int = 3
    warmup: int = 1
    vectorized: bool = True

    @property
    def kind(self) -> str:
        return "packing"

    def params(self) -> Dict[str, object]:
        out = asdict(self)
        for key in ("name", "description", "quick"):
            out.pop(key)
        out["kind"] = self.kind
        return out

    def config_fingerprint(self) -> str:
        return _fingerprint(self.params())


@dataclass(frozen=True)
class ServeScenario:
    """A streaming replay through the ``repro.serve`` daemon.

    The same generated trace a :class:`TraceScenario` would run in batch
    is instead fed through the scheduler service arrival-by-arrival
    (unpaced, so the consumer is always the bottleneck), measuring the
    daemon's sustained placements/sec and checking the free-vector
    invariant as it goes.
    """

    name: str
    description: str
    quick: bool
    trace_config: Union[
        WorkloadSuiteConfig, FacebookTraceConfig, BingTraceConfig
    ]
    num_machines: int
    scheduler: str = "tetris"
    use_tracker: bool = True
    max_batch: int = 64
    queue_cap: int = 8192
    verify_every: int = 50

    @property
    def kind(self) -> str:
        return "serve"

    def make_trace(self):
        _, generate = _GENERATORS[type(self.trace_config)]
        return generate(self.trace_config)

    def params(self) -> Dict[str, object]:
        generator, _ = _GENERATORS[type(self.trace_config)]
        return {
            "kind": self.kind,
            "generator": generator,
            "trace_config": asdict(self.trace_config),
            "num_machines": self.num_machines,
            "scheduler": self.scheduler,
            "use_tracker": self.use_tracker,
            "max_batch": self.max_batch,
            "queue_cap": self.queue_cap,
            "verify_every": self.verify_every,
        }

    def config_fingerprint(self) -> str:
        return _fingerprint(self.params())


Scenario = Union[TraceScenario, PackingScenario, ServeScenario]


def _fingerprint(params: Dict[str, object]) -> str:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def packing_state(scenario: PackingScenario):
    """Build the scenario's mid-simulation scheduler state.

    Shared with ``benchmarks/test_microbench.py`` so the pytest
    microbench and ``repro bench`` time the identical workload.
    """
    from repro.cluster.cluster import Cluster
    from repro.resources import DEFAULT_MODEL
    from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
    from repro.workload.job import Job
    from repro.workload.stage import Stage
    from repro.workload.task import Task, TaskWork

    cluster = Cluster(scenario.num_machines, seed=0)
    scheduler = TetrisScheduler(TetrisConfig(vectorized=scenario.vectorized))
    scheduler.bind(cluster)
    for j in range(scenario.num_jobs):
        tasks = [
            Task(
                DEFAULT_MODEL.vector(
                    cpu=4 + (j % 3), mem=12, diskr=40, diskw=10
                ),
                TaskWork(cpu_core_seconds=60.0 + 5 * (j % 7)),
            )
            for _ in range(scenario.tasks_per_job)
        ]
        job = Job(
            [Stage("work", tasks)], arrival_time=0.0, name=f"job-{j}"
        )
        job.arrive()
        scheduler.on_job_arrival(job, 0.0)
    for machine in cluster.machines:
        filler = Task(
            DEFAULT_MODEL.vector(cpu=8, mem=24, diskr=100),
            TaskWork(cpu_core_seconds=1e6),
        )
        filler.mark_runnable()
        machine.place(filler, filler.demands)
    return scheduler


#: every named scenario; the ``quick`` subset is what CI's bench-smoke
#: job and ``repro bench run --quick`` capture
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        TraceScenario(
            name="smoke",
            description="tiny end-to-end run; seconds, CI-friendly",
            quick=True,
            trace_config=WorkloadSuiteConfig(
                num_jobs=6, task_scale=0.02, arrival_horizon=100, seed=3
            ),
            num_machines=6,
        ),
        TraceScenario(
            name="deploy-quick",
            description="scaled-down Section 5.2 deployment workload",
            quick=True,
            trace_config=WorkloadSuiteConfig(
                num_jobs=12, task_scale=0.03, arrival_horizon=400, seed=1
            ),
            num_machines=10,
        ),
        PackingScenario(
            name="packing-micro",
            description="one packing round, 50 machines x 80 jobs",
            quick=True,
            num_machines=50,
            num_jobs=80,
            tasks_per_job=10,
        ),
        TraceScenario(
            name="deploy",
            description="the Section 5.2 deployment workload (Fig 4 scale)",
            quick=False,
            trace_config=DEPLOY_SUITE,
            num_machines=DEPLOY_MACHINES,
        ),
        TraceScenario(
            name="facebook",
            description="the Section 5.3 Facebook-statistics workload",
            quick=False,
            trace_config=FB_TRACE,
            num_machines=FB_MACHINES,
        ),
        PackingScenario(
            name="packing-full",
            description="one packing round, 100 machines x 200 jobs "
            "(the test_microbench workload)",
            quick=False,
            num_machines=100,
            num_jobs=200,
            tasks_per_job=20,
        ),
        # The incremental-scheduling-core scenarios: large enough that
        # candidate gathering and fluid-rate maintenance dominate, so the
        # signature-grouped candidate index and the sparse recompute show
        # up as phase-level speedups.  Their committed baselines were
        # captured from the pre-incremental code on purpose — comparing a
        # fresh capture against them is the before/after story.
        PackingScenario(
            name="packing-large",
            description="packing rounds at cluster scale: 200 machines "
            "x 250 jobs x 24 tasks (6000 pending tasks)",
            quick=False,
            num_machines=200,
            num_jobs=250,
            tasks_per_job=24,
        ),
        # The streaming-service scenarios: the identical workload a
        # TraceScenario would run in batch, pushed through the
        # repro.serve daemon instead.  serve-quick is the CI smoke;
        # serve-replay is the headline 200k+-task sustained-throughput
        # replay from the serving milestone.
        ServeScenario(
            name="serve-quick",
            description="small streamed replay through the scheduler "
            "daemon; seconds, CI-friendly",
            quick=True,
            trace_config=WorkloadSuiteConfig(
                num_jobs=12, task_scale=0.03, arrival_horizon=400, seed=1
            ),
            num_machines=10,
            verify_every=5,
        ),
        ServeScenario(
            name="serve-replay",
            description="200k+-task Facebook-style stream through the "
            "scheduler daemon: sustained placements/sec under a "
            "continuous arrival front",
            quick=False,
            trace_config=FacebookTraceConfig(
                num_jobs=2000,
                # the horizon sets the arrival rate and with it the
                # steady-state backlog; 160k simulated seconds keeps the
                # 24-machine cluster loaded but not drowning, so the
                # capture measures scheduling throughput rather than
                # queue-scan blowup on an ever-growing runnable set
                arrival_horizon=160000,
                max_map_tasks=400,
                size_mu=4.2,
                seed=13,
            ),
            num_machines=24,
            # no tracker: the throughput number isolates the serving
            # loop + scheduling core (the same convention cluster-large
            # uses for its phase timings)
            use_tracker=False,
        ),
        TraceScenario(
            name="cluster-large",
            description="large-cluster Facebook replay under a bursty "
            "arrival front: 200 machines, ~5.7k tasks, sustained backlog "
            "so scheduler rounds see hundreds of candidate stages",
            quick=False,
            trace_config=FacebookTraceConfig(
                num_jobs=160,
                arrival_horizon=300,
                max_map_tasks=200,
                seed=11,
            ),
            num_machines=200,
            # no tracker: the phase timings isolate the scheduling core
            use_tracker=False,
        ),
        TraceScenario(
            name="cluster-xl",
            description="the structure-of-arrays stress scale: 2000 "
            "machines, 1600 jobs of bursty Facebook-style arrivals — "
            "rounds where the placeability skip and the flat state "
            "plane are the difference between linear and quadratic work",
            quick=False,
            trace_config=FacebookTraceConfig(
                num_jobs=1600,
                arrival_horizon=3000,
                max_map_tasks=200,
                seed=17,
            ),
            num_machines=2000,
            use_tracker=False,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


def scenario_names(quick_only: bool = False) -> List[str]:
    return sorted(
        name
        for name, scenario in SCENARIOS.items()
        if scenario.quick or not quick_only
    )
