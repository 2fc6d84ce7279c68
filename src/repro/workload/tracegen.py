"""Workload generators.

Two generators, one per evaluation setting of the paper:

- :func:`generate_workload_suite` — the deployment workload of Section
  5.1: ~200 map-reduce jobs drawn uniformly from four (size, selectivity)
  classes, with high/low-memory and high/low-CPU stage variants and
  uniform arrivals;
- :func:`generate_facebook_trace` — a synthetic stand-in for the Facebook
  production trace, matched to the published statistics instead of the
  (unavailable) raw logs: heavy-tailed job sizes, per-resource demand
  coefficients of variation of ~{1.52, 0.77, 1.74, 1.35} for
  CPU/memory/disk/network (Section 2.2.2) and near-zero cross-resource
  correlation (Table 2).  Recurring job templates are included so the
  profiling estimator has history to learn from.

Both return :class:`~repro.workload.trace.TraceJob` records; materialize
them against a cluster with
:func:`~repro.workload.trace.materialize_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resources import ordered_sum
from repro.workload.trace import TraceJob, TraceStage

__all__ = [
    "WorkloadSuiteConfig",
    "generate_workload_suite",
    "FacebookTraceConfig",
    "generate_facebook_trace",
    "BingTraceConfig",
    "generate_bing_trace",
]


# ---------------------------------------------------------------------------
# Section 5.1 deployment workload
# ---------------------------------------------------------------------------

#: (class name, base map-task count, output:input selectivity)
JOB_CLASSES: Tuple[Tuple[str, int, float], ...] = (
    ("large-highly-selective", 2000, 0.1),
    ("medium-inflating", 1000, 2.0),
    ("medium-selective", 1000, 0.5),
    ("small-selective", 200, 0.5),
)


@dataclass(frozen=True)
class WorkloadSuiteConfig:
    """Parameters of the deployment workload suite.

    ``task_scale`` shrinks the paper's task counts so the pure-Python
    simulator stays fast; the mix and the demand diversity — what the
    results depend on — are unchanged.
    """

    num_jobs: int = 200
    task_scale: float = 0.1
    arrival_horizon: float = 5000.0
    map_input_mb: float = 512.0
    high_mem_gb: float = 6.0
    low_mem_gb: float = 2.0
    high_cpu_cores: float = 2.0
    low_cpu_cores: float = 1.0
    high_cpu_duration: float = 60.0
    low_cpu_duration: float = 15.0
    reduce_duration: float = 40.0
    reduce_fraction: float = 0.2
    demand_jitter: float = 0.15
    seed: int = 0


def _suite_map_stage(
    cfg: WorkloadSuiteConfig,
    num_tasks: int,
    high_mem: bool,
    high_cpu: bool,
    selectivity: float,
) -> TraceStage:
    duration = cfg.high_cpu_duration if high_cpu else cfg.low_cpu_duration
    cores = cfg.high_cpu_cores if high_cpu else cfg.low_cpu_cores
    input_mb = cfg.map_input_mb
    write_mb = input_mb * selectivity
    return TraceStage(
        name="map",
        num_tasks=num_tasks,
        cpu=cores,
        mem=cfg.high_mem_gb if high_mem else cfg.low_mem_gb,
        diskr=input_mb / duration,
        diskw=write_mb / duration,
        netin=input_mb / duration,  # applies only when placed remotely
        netout=0.0,
        cpu_work=cores * duration,
        input_mb_per_task=input_mb,
        write_mb_per_task=write_mb,
        input_kind="blocks",
        demand_jitter=cfg.demand_jitter,
    )


def _suite_reduce_stage(
    cfg: WorkloadSuiteConfig,
    num_map: int,
    num_reduce: int,
    high_mem: bool,
    selectivity: float,
) -> TraceStage:
    shuffle_total = num_map * cfg.map_input_mb * selectivity
    per_reduce = shuffle_total / max(num_reduce, 1)
    duration = cfg.reduce_duration
    return TraceStage(
        name="reduce",
        num_tasks=num_reduce,
        cpu=1.0,
        mem=cfg.high_mem_gb if high_mem else cfg.low_mem_gb,
        # shuffle data is read over the network, but a co-located source
        # partition is read from local disk at the same rate
        diskr=per_reduce / duration,
        diskw=per_reduce / duration,
        netin=per_reduce / duration,
        netout=0.0,
        cpu_work=0.5 * duration,
        input_mb_per_task=per_reduce,
        write_mb_per_task=per_reduce,
        parents=["map"],
        input_kind="shuffle",
        shuffle_fanin=3,
        demand_jitter=cfg.demand_jitter,
    )


def generate_workload_suite(
    config: Optional[WorkloadSuiteConfig] = None,
) -> List[TraceJob]:
    """The Section 5.1 workload: uniform draws over job classes and
    high/low mem x cpu stage variants, uniform arrivals."""
    cfg = config if config is not None else WorkloadSuiteConfig()
    rng = np.random.default_rng(cfg.seed)
    jobs: List[TraceJob] = []
    for j in range(cfg.num_jobs):
        class_name, base_tasks, selectivity = JOB_CLASSES[
            int(rng.integers(len(JOB_CLASSES)))
        ]
        num_map = max(1, int(round(base_tasks * cfg.task_scale)))
        num_reduce = max(1, int(round(num_map * cfg.reduce_fraction)))
        high_mem = bool(rng.integers(2))
        high_cpu = bool(rng.integers(2))
        stages = [
            _suite_map_stage(cfg, num_map, high_mem, high_cpu, selectivity),
            _suite_reduce_stage(cfg, num_map, num_reduce, high_mem, selectivity),
        ]
        arrival = float(rng.uniform(0.0, cfg.arrival_horizon))
        jobs.append(
            TraceJob(
                name=f"{class_name}-{j}",
                arrival_time=arrival,
                stages=stages,
                template=class_name
                + ("-hm" if high_mem else "-lm")
                + ("-hc" if high_cpu else "-lc"),
            )
        )
    jobs.sort(key=lambda tj: tj.arrival_time)
    return jobs


# ---------------------------------------------------------------------------
# Facebook-statistics trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FacebookTraceConfig:
    """Statistical profile of the Facebook trace replay (Section 5.3).

    The per-resource lognormal sigmas are calibrated so the generated
    task population reproduces the paper's coefficients of variation
    (CPU 1.52, memory 0.77, disk 1.74, network 1.35); independent draws
    per resource give the near-zero correlations of Table 2.
    """

    num_jobs: int = 150
    arrival_horizon: float = 4000.0
    #: job size (map tasks): lognormal, heavy tail, clamped
    size_mu: float = 2.8
    size_sigma: float = 1.3
    max_map_tasks: int = 800
    #: per-resource lognormal shape (sigma) and median
    cpu_sigma: float = 1.09
    cpu_median: float = 1.0
    mem_sigma: float = 0.66
    mem_median: float = 2.0
    disk_sigma: float = 1.18
    disk_median: float = 20.0
    net_sigma: float = 1.03
    net_median: float = 15.0
    #: task duration lognormal
    duration_mu: float = 3.6
    duration_sigma: float = 0.7
    #: within-stage demand variation
    demand_jitter: float = 0.15
    #: fraction of jobs that are plain map-only / map-reduce / 3-stage
    p_map_only: float = 0.3
    p_three_stage: float = 0.1
    num_templates: int = 20
    reduce_fraction: float = 0.25
    seed: int = 0

    #: clamping ranges keep single tasks schedulable on one FB machine
    cpu_range: Tuple[float, float] = (0.1, 8.0)
    mem_range: Tuple[float, float] = (0.25, 14.0)
    disk_range: Tuple[float, float] = (1.0, 150.0)
    net_range: Tuple[float, float] = (1.0, 100.0)


def _clamped_lognormal(
    rng: np.random.Generator,
    median: float,
    sigma: float,
    lo: float,
    hi: float,
) -> float:
    value = median * float(rng.lognormal(mean=0.0, sigma=sigma))
    return min(max(value, lo), hi)


def _fb_stage_profile(
    cfg: FacebookTraceConfig, rng: np.random.Generator
) -> Dict[str, float]:
    """Independent per-resource draws: the source of demand diversity."""
    duration = float(
        rng.lognormal(mean=cfg.duration_mu, sigma=cfg.duration_sigma)
    )
    duration = min(max(duration, 5.0), 600.0)
    return {
        "cpu": _clamped_lognormal(rng, cfg.cpu_median, cfg.cpu_sigma, *cfg.cpu_range),
        "mem": _clamped_lognormal(rng, cfg.mem_median, cfg.mem_sigma, *cfg.mem_range),
        "disk": _clamped_lognormal(
            rng, cfg.disk_median, cfg.disk_sigma, *cfg.disk_range
        ),
        "net": _clamped_lognormal(rng, cfg.net_median, cfg.net_sigma, *cfg.net_range),
        "duration": duration,
        "selectivity": _clamped_lognormal(rng, 0.5, 0.8, 0.05, 3.0),
    }


def _fb_template(
    cfg: FacebookTraceConfig, rng: np.random.Generator, index: int
) -> Dict[str, object]:
    """A recurring job template: fixed stage profiles and DAG shape."""
    u = rng.uniform()
    if u < cfg.p_map_only:
        shape = ("map",)
    elif u < cfg.p_map_only + cfg.p_three_stage:
        shape = ("map", "aggregate", "reduce")
    else:
        shape = ("map", "reduce")
    return {
        "name": f"tpl{index}",
        "shape": shape,
        "profiles": {name: _fb_stage_profile(cfg, rng) for name in shape},
    }


def _fb_stages(
    cfg: FacebookTraceConfig,
    template: Dict[str, object],
    num_map: int,
) -> List[TraceStage]:
    shape: Sequence[str] = template["shape"]  # type: ignore[assignment]
    profiles: Dict[str, Dict[str, float]] = template["profiles"]  # type: ignore[assignment]
    stages: List[TraceStage] = []
    prev_name: Optional[str] = None
    prev_output_total = 0.0
    for depth, stage_name in enumerate(shape):
        profile = profiles[stage_name]
        duration = profile["duration"]
        if depth == 0:
            num_tasks = num_map
            input_mb = profile["disk"] * duration
            input_kind = "blocks"
            # a remotely-placed map still streams input at a useful rate:
            # floor the network demand at a quarter of the disk rate
            netin = max(profile["net"], profile["disk"] / 4.0)
            diskr = profile["disk"]
        else:
            num_tasks = max(1, int(round(num_map * cfg.reduce_fraction)))
            input_mb = prev_output_total / num_tasks
            input_kind = "shuffle"
            netin = max(input_mb / duration, 1.0)
            # shuffle data is mostly remote; the occasional co-located
            # partition is read at max(diskr, netin) by the flow builder,
            # so no disk-read demand needs declaring here
            diskr = 0.0
        # output selectivity drawn independently of the input rate so that
        # disk-write and network demands stay uncorrelated (Table 2)
        selectivity = profile["selectivity"]
        write_mb = input_mb * selectivity
        stages.append(
            TraceStage(
                name=stage_name,
                num_tasks=num_tasks,
                cpu=profile["cpu"],
                mem=profile["mem"],
                diskr=diskr,
                diskw=max(write_mb / duration, 0.5),
                netin=netin,
                netout=0.0,
                cpu_work=profile["cpu"] * duration,
                input_mb_per_task=input_mb,
                write_mb_per_task=write_mb,
                parents=[prev_name] if prev_name else [],
                input_kind=input_kind,
                shuffle_fanin=3,
                demand_jitter=cfg.demand_jitter,
            )
        )
        prev_name = stage_name
        prev_output_total = write_mb * num_tasks
    return stages


@dataclass(frozen=True)
class BingTraceConfig(FacebookTraceConfig):
    """Bing/Cosmos-style workload (Table 1): Scope scripts compile to
    *deep* DAGs (the paper lists DAG depth as "Large"), with occasional
    join stages that read from two upstream stages at once.  Resource
    statistics reuse the Facebook-matched lognormals."""

    min_depth: int = 3
    max_depth: int = 7
    p_join: float = 0.3
    num_jobs: int = 100


def _bing_template(
    cfg: BingTraceConfig, rng: np.random.Generator, index: int
) -> Dict[str, object]:
    """A recurring deep-DAG template: a chain with optional joins.

    Each stage reads from its predecessor; with probability ``p_join`` a
    stage also reads from a short side chain (a two-parent join, the
    bread and butter of Scope scripts).
    """
    depth = int(rng.integers(cfg.min_depth, cfg.max_depth + 1))
    names = [f"s{k}" for k in range(depth)]
    parents: Dict[str, List[str]] = {names[0]: []}
    side_sources: List[str] = []
    for k in range(1, depth):
        parents[names[k]] = [names[k - 1]]
        if k >= 2 and rng.uniform() < cfg.p_join:
            # join with the output of an earlier stage
            donor = names[int(rng.integers(0, k - 1))]
            parents[names[k]].append(donor)
            side_sources.append(donor)
    profiles = {name: _fb_stage_profile(cfg, rng) for name in names}
    return {
        "name": f"bing{index}",
        "names": names,
        "parents": parents,
        "profiles": profiles,
    }


def _bing_stages(
    cfg: BingTraceConfig,
    template: Dict[str, object],
    num_leaf_tasks: int,
) -> List[TraceStage]:
    names: Sequence[str] = template["names"]  # type: ignore[assignment]
    parents: Dict[str, List[str]] = template["parents"]  # type: ignore[assignment]
    profiles: Dict[str, Dict[str, float]] = template["profiles"]  # type: ignore[assignment]
    stages: List[TraceStage] = []
    output_total: Dict[str, float] = {}
    task_count: Dict[str, int] = {}
    for depth, name in enumerate(names):
        profile = profiles[name]
        duration = profile["duration"]
        selectivity = profile["selectivity"]
        if depth == 0:
            num_tasks = num_leaf_tasks
            input_mb = profile["disk"] * duration
            input_kind = "blocks"
            netin = max(profile["net"], profile["disk"] / 4.0)
            diskr = profile["disk"]
        else:
            upstream_total = ordered_sum(
                output_total[p] for p in parents[name]
            )
            num_tasks = max(
                1, int(round(task_count[parents[name][0]] * 0.5))
            )
            input_mb = upstream_total / num_tasks
            input_kind = "shuffle"
            netin = max(input_mb / duration, 1.0)
            diskr = 0.0
        write_mb = input_mb * selectivity
        stages.append(
            TraceStage(
                name=name,
                num_tasks=num_tasks,
                cpu=profile["cpu"],
                mem=profile["mem"],
                diskr=diskr,
                diskw=max(write_mb / duration, 0.5),
                netin=netin,
                netout=0.0,
                cpu_work=profile["cpu"] * duration,
                input_mb_per_task=input_mb,
                write_mb_per_task=write_mb,
                parents=list(parents[name]),
                input_kind=input_kind,
                shuffle_fanin=3,
                demand_jitter=cfg.demand_jitter,
            )
        )
        output_total[name] = write_mb * num_tasks
        task_count[name] = num_tasks
    return stages


def generate_bing_trace(
    config: Optional[BingTraceConfig] = None,
) -> List[TraceJob]:
    """A synthetic trace with Bing's deep Scope DAGs (Table 1)."""
    cfg = config if config is not None else BingTraceConfig()
    rng = np.random.default_rng(cfg.seed)
    templates = [
        _bing_template(cfg, rng, i) for i in range(cfg.num_templates)
    ]
    jobs: List[TraceJob] = []
    for j in range(cfg.num_jobs):
        template = templates[int(rng.integers(len(templates)))]
        num_leaf = int(
            round(rng.lognormal(mean=cfg.size_mu, sigma=cfg.size_sigma))
        )
        num_leaf = min(max(num_leaf, 1), cfg.max_map_tasks)
        arrival = float(rng.uniform(0.0, cfg.arrival_horizon))
        jobs.append(
            TraceJob(
                name=f"bing-{j}",
                arrival_time=arrival,
                stages=_bing_stages(cfg, template, num_leaf),
                template=str(template["name"]),
            )
        )
    jobs.sort(key=lambda tj: tj.arrival_time)
    return jobs


def generate_facebook_trace(
    config: Optional[FacebookTraceConfig] = None,
) -> List[TraceJob]:
    """A synthetic trace matched to the Facebook cluster's statistics."""
    cfg = config if config is not None else FacebookTraceConfig()
    rng = np.random.default_rng(cfg.seed)
    templates = [
        _fb_template(cfg, rng, i) for i in range(cfg.num_templates)
    ]
    jobs: List[TraceJob] = []
    for j in range(cfg.num_jobs):
        template = templates[int(rng.integers(len(templates)))]
        num_map = int(
            round(rng.lognormal(mean=cfg.size_mu, sigma=cfg.size_sigma))
        )
        num_map = min(max(num_map, 1), cfg.max_map_tasks)
        arrival = float(rng.uniform(0.0, cfg.arrival_horizon))
        jobs.append(
            TraceJob(
                name=f"fb-{j}",
                arrival_time=arrival,
                stages=_fb_stages(cfg, template, num_map),
                template=str(template["name"]),
            )
        )
    jobs.sort(key=lambda tj: tj.arrival_time)
    return jobs
