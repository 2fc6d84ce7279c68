"""Kitchen-sink production scenario: everything at once.

A heterogeneous cluster (big and small machines), a Bing-style deep-DAG
workload organized into two business queues, 10% task failure
probability, starvation-prevention reservations, and the progress-aware
SRTF refinement — the extensions the paper sketches in Section 3.5 on
top of the published system.

Run:
    python examples/production_mix.py
"""

from repro import (
    BingTraceConfig,
    Cluster,
    DEFAULT_MODEL,
    Engine,
    EngineConfig,
    ResourceTracker,
    TetrisConfig,
    TetrisScheduler,
    generate_bing_trace,
    materialize_trace,
)
from repro.analysis.model import audit_engine
from repro.metrics.fairness import jains_index


def make_cluster():
    big = DEFAULT_MODEL.vector(cpu=32, mem=96, diskr=400, diskw=400,
                               netin=250, netout=250)
    standard = DEFAULT_MODEL.vector(cpu=16, mem=48, diskr=200, diskw=200,
                                    netin=125, netout=125)
    capacities = [big] * 4 + [standard] * 12
    return Cluster(16, machine_capacities=capacities,
                   machines_per_rack=8, seed=9)


def queue_of(job):
    """Jobs alternate between two business queues by template."""
    return "etl" if int(job.template[4:]) % 2 == 0 else "adhoc"


def main() -> None:
    trace = generate_bing_trace(
        BingTraceConfig(num_jobs=20, arrival_horizon=600,
                        max_map_tasks=60, seed=9)
    )
    cluster = make_cluster()
    jobs = materialize_trace(trace, cluster, seed=9)
    tracker = ResourceTracker(cluster)
    scheduler = TetrisScheduler(
        TetrisConfig(
            fairness_knob=0.25,
            starvation_timeout=120.0,
            progress_aware_srtf=True,
        ),
        group_of=queue_of,
    )
    engine = Engine(
        cluster, scheduler, jobs, tracker=tracker,
        config=EngineConfig(task_failure_prob=0.1, seed=9,
                            track_fairness=True),
    )
    collector = engine.run()

    print(f"jobs finished : {len(collector.jobs)}")
    print(f"mean JCT      : {collector.mean_jct():.1f}s")
    print(f"makespan      : {collector.makespan():.1f}s")
    print(f"task failures : {collector.task_failures} "
          f"(all retried successfully)")

    by_queue = {"etl": [], "adhoc": []}
    for job in jobs:
        by_queue[queue_of(job)].append(job.completion_time)
    for queue, jcts in by_queue.items():
        print(f"queue {queue:<6}: {len(jcts)} jobs, "
              f"mean JCT {sum(jcts) / len(jcts):.1f}s")
    shares = [
        integral for integral in collector.share_integral.values()
    ]
    print(f"Jain's index over per-job integrated shares: "
          f"{jains_index(shares):.3f}")

    report = audit_engine(engine)
    print(
        "constraint audit: "
        + ("feasible (all Section 3.1 constraints hold)"
           if report.ok
           else f"{len(report)} violations")
    )


if __name__ == "__main__":
    main()
