"""Golden metric families: every family a run registers, pinned.

The schema half pins each family's name, type, label names and HELP
text — the scrape contract dashboards are built on.  The value half
pins every counter and histogram after one small batch run and one
small unpaced serve run (both deterministic: simulated counts only;
the wall-clock latency histogram is pinned by its count), and checks
that each gauge equals the current value of the state it reports.
"""

import asyncio
import time

import pytest

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.estimation.tracker import ResourceTracker
from repro.obs import Registry
from repro.schedulers.tetris import TetrisScheduler
from repro.serve import (
    AdmissionController,
    SchedulerService,
    ServeConfig,
    TraceReplaySource,
)
from repro.sim.engine import Engine, EngineConfig
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

#: name -> (type, label names, HELP)
FAMILIES = {
    "repro_engine_event_queue_depth": (
        "gauge", (), "Pending simulator events",
    ),
    "repro_engine_jobs_finished_total": (
        "counter", (), "Job completions",
    ),
    "repro_engine_placements_total": (
        "counter", (), "Task placements applied",
    ),
    "repro_engine_round_placements": (
        "histogram", (), "Placements made per scheduling round",
    ),
    "repro_engine_rounds_total": (
        "counter", (), "Scheduling rounds run",
    ),
    "repro_engine_sim_time_seconds": (
        "gauge", (), "Current simulation time",
    ),
    "repro_engine_task_failures_total": (
        "counter", (), "Failed (retried) task attempts",
    ),
    "repro_engine_tasks_finished_total": (
        "counter", (), "Task completions",
    ),
    "repro_estimator_estimates_total": (
        "counter", ("source",),
        "Demand estimates served, by pipeline stage (history, peers, or "
        "the over-estimation fallback)",
    ),
    "repro_fluid_flows_recomputed_total": (
        "counter", (), "Flows re-rated across all sparse passes",
    ),
    "repro_fluid_slots_recomputed_total": (
        "counter", (),
        "Slots whose demand/scale was resummed across all sparse passes",
    ),
    "repro_fluid_sparse_recomputes_total": (
        "counter", (),
        "Sparse rate recomputations (dirty-neighborhood passes)",
    ),
    "repro_serve_admission_total": (
        "counter", ("decision",), "Admission decisions by outcome",
    ),
    "repro_serve_batches_total": (
        "counter", ("outcome",), "Consumer batches by outcome",
    ),
    "repro_serve_invariant_violations_total": (
        "counter", (),
        "Free-vector invariant violations detected after commits",
    ),
    "repro_serve_jobs_committed_total": (
        "counter", (), "Jobs committed into the engine",
    ),
    "repro_serve_placement_latency_seconds": (
        "histogram", (),
        "Wall clock from admission to a job's first placement",
    ),
    "repro_serve_placements_per_sec": (
        "gauge", (), "Sustained placements per drive-wall second",
    ),
    "repro_serve_queue_depth": (
        "gauge", (), "Admitted arrivals awaiting commit",
    ),
    "repro_serve_window_admission_reject_rate": (
        "gauge", (),
        "Rejected fraction of offered arrivals over the sliding window",
    ),
    "repro_serve_window_placement_latency_seconds": (
        "gauge", ("quantile",), "Sliding-window placement-latency quantiles",
    ),
    "repro_serve_window_placements_per_sec": (
        "gauge", (), "Placements per second over the sliding window",
    ),
    "repro_tetris_cache_invalidations_total": (
        "counter", ("scope",),
        "Candidate-row invalidations by scope (full flush under unstable "
        "estimates, shuffle resolution)",
    ),
    "repro_tetris_machine_visits_total": (
        "counter", ("outcome",),
        "Machines offered to a Tetris round by outcome: skipped as "
        "provably unplaceable, filled but placed nothing (empty), or "
        "placed at least one task (productive)",
    ),
    "repro_tetris_placeability_rows_total": (
        "counter", (),
        "Stage rows of the round placeability plane computed or "
        "recomputed (the plane's own work, next to the visits it saved)",
    ),
    "repro_tetris_remote_grants_total": (
        "counter", (),
        "Remote-read bandwidth grants charged to source machines",
    ),
    "repro_tetris_remote_ledger_machines": (
        "gauge", (), "Machines with outstanding remote-read grants",
    ),
    "repro_tetris_reservations_total": (
        "counter", (), "Machines reserved for starved stages",
    ),
    "repro_tracker_reports_total": (
        "counter", (), "Cluster-wide tracker report rounds",
    ),
    "repro_tracker_tracked_placements": (
        "gauge", (), "Live placements the tracker holds ramp-up state for",
    ),
}

#: what ``repro trace`` registers: engine, Tetris, fluid, tracker
TRACE_FAMILIES = sorted(
    name for name in FAMILIES
    if not name.startswith(("repro_serve_", "repro_estimator_"))
)
#: what ``repro serve --listen`` registers: the above plus the service's
SERVE_FAMILIES = sorted(
    name for name in FAMILIES if not name.startswith("repro_estimator_")
)

ROUND_BUCKETS = ("0", "1", "2", "5", "10", "20", "50", "100", "+Inf")


def _trace():
    return generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=8, task_scale=0.03, arrival_horizon=80.0, seed=3
        )
    )


def _batch(estimator=None, failure_prob=0.0):
    cluster = Cluster(10, seed=0)
    jobs = materialize_trace(_trace(), cluster, seed=0)
    registry = Registry()
    engine = Engine(
        cluster,
        TetrisScheduler(),
        jobs,
        tracker=ResourceTracker(cluster),
        estimator=estimator,
        config=EngineConfig(seed=0, task_failure_prob=failure_prob),
        metrics=registry,
    )
    engine.run()
    return engine, registry


class _Clock:
    """The service's wall clock, frozen once the run ends so every later
    read of the window gauges sees the same instant."""

    frozen = None

    def __call__(self):
        return self.frozen if self.frozen is not None else time.monotonic()


def _serve():
    clock = _Clock()
    cluster = Cluster(10, seed=0)
    jobs = materialize_trace(_trace(), cluster, seed=0)
    registry = Registry()
    engine = Engine(
        cluster,
        TetrisScheduler(),
        [],
        tracker=ResourceTracker(cluster),
        config=EngineConfig(seed=0),
        metrics=registry,
    )
    service = SchedulerService(
        engine,
        TraceReplaySource(jobs),
        AdmissionController(),
        ServeConfig(window_seconds=60.0),
        registry=registry,
        clock=clock,
    )
    asyncio.run(service.serve())
    clock.frozen = clock()
    return engine, service, registry


@pytest.fixture(scope="module")
def batch_run():
    return _batch(estimator=ProfilingEstimator(), failure_prob=0.05)


@pytest.fixture(scope="module")
def serve_run():
    return _serve()


def _schema(registry, name):
    family = registry.get(name)
    return family.type, tuple(family.labelnames), family.documentation


def _gauges(registry):
    return {
        name: family["values"]
        for name, family in registry.snapshot().items()
        if family["type"] == "gauge"
    }


def _values(registry):
    """Counter values and histogram (count, sum, buckets) per family."""
    out = {}
    for name, family in registry.snapshot().items():
        if family["type"] == "counter":
            out[name] = family["values"]
        elif family["type"] == "histogram":
            out[name] = {
                key: (h["count"], h["sum"], h["buckets"])
                for key, h in family["values"].items()
            }
    return out


def _round_hist(count, total, cumulative):
    return {"": (count, total, dict(zip(ROUND_BUCKETS, cumulative)))}


class TestSchema:
    def test_trace_run_registers_the_trace_families(self):
        _, registry = _batch()
        assert registry.names() == TRACE_FAMILIES
        assert len(TRACE_FAMILIES) == 19

    def test_serve_run_registers_the_serve_families(self, serve_run):
        _, _, registry = serve_run
        assert registry.names() == SERVE_FAMILIES
        assert len(SERVE_FAMILIES) == 29

    def test_every_family_matches_its_golden_schema(
        self, batch_run, serve_run
    ):
        seen = {}
        for registry in (batch_run[1], serve_run[2]):
            for name in registry.names():
                seen[name] = _schema(registry, name)
        assert seen == FAMILIES


class TestValues:
    def test_batch_counters_and_histograms(self, batch_run):
        _, registry = batch_run
        assert _values(registry) == {
            "repro_engine_jobs_finished_total": {"": 8.0},
            "repro_engine_placements_total": {"": 280.0},
            "repro_engine_round_placements": _round_hist(
                290, 280.0, (253, 270, 279, 281, 284, 286, 288, 290, 290)
            ),
            "repro_engine_rounds_total": {"": 290.0},
            "repro_engine_task_failures_total": {"": 14.0},
            "repro_engine_tasks_finished_total": {"": 266.0},
            "repro_estimator_estimates_total": {
                "source=fallback": 1280.0, "source=peers": 777.0,
            },
            "repro_fluid_flows_recomputed_total": {"": 2997.0},
            "repro_fluid_slots_recomputed_total": {"": 1234.0},
            "repro_fluid_sparse_recomputes_total": {"": 156.0},
            "repro_tetris_cache_invalidations_total": {"scope=full": 50.0},
            "repro_tetris_machine_visits_total": {
                "outcome=empty": 27.0,
                "outcome=productive": 104.0,
                "outcome=skipped": 2271.0,
            },
            "repro_tetris_placeability_rows_total": {"": 748.0},
            "repro_tetris_remote_grants_total": {"": 239.0},
            "repro_tetris_reservations_total": {"": 0.0},
            "repro_tracker_reports_total": {"": 256.0},
        }

    def test_serve_counters_and_histograms(self, serve_run):
        _, _, registry = serve_run
        values = _values(registry)
        # admission-to-placement latency is wall clock: pin its count
        latency = values.pop("repro_serve_placement_latency_seconds")
        assert latency[""][0] == 8
        assert values == {
            "repro_engine_jobs_finished_total": {"": 8.0},
            "repro_engine_placements_total": {"": 266.0},
            "repro_engine_round_placements": _round_hist(
                229, 266.0, (199, 214, 218, 223, 223, 226, 227, 229, 229)
            ),
            "repro_engine_rounds_total": {"": 229.0},
            "repro_engine_task_failures_total": {"": 0.0},
            "repro_engine_tasks_finished_total": {"": 266.0},
            "repro_fluid_flows_recomputed_total": {"": 2624.0},
            "repro_fluid_slots_recomputed_total": {"": 923.0},
            "repro_fluid_sparse_recomputes_total": {"": 115.0},
            "repro_serve_admission_total": {"decision=admitted": 8.0},
            "repro_serve_batches_total": {"outcome=committed": 1.0},
            "repro_serve_invariant_violations_total": {"": 0.0},
            "repro_serve_jobs_committed_total": {"": 8.0},
            "repro_tetris_cache_invalidations_total": {},
            "repro_tetris_machine_visits_total": {
                "outcome=empty": 23.0,
                "outcome=productive": 71.0,
                "outcome=skipped": 1721.0,
            },
            "repro_tetris_placeability_rows_total": {"": 522.0},
            "repro_tetris_remote_grants_total": {"": 206.0},
            "repro_tetris_reservations_total": {"": 0.0},
            "repro_tracker_reports_total": {"": 201.0},
        }


class TestGauges:
    """A gauge reads its source when scraped, so after a run it equals
    the source's current value, not the value at its last update."""

    def test_batch_gauges_read_their_source(self, batch_run):
        engine, registry = batch_run
        assert _gauges(registry) == {
            "repro_engine_event_queue_depth": {"": len(engine.events)},
            "repro_engine_sim_time_seconds": {"": engine.now},
            "repro_tetris_remote_ledger_machines": {
                "": len(engine.scheduler._remote_granted)
            },
            "repro_tracker_tracked_placements": {
                "": len(engine.tracker._placements)
            },
        }

    def test_serve_gauges_read_their_source(self, serve_run):
        engine, service, registry = serve_run
        window = service.window_snapshot()
        assert _gauges(registry) == {
            "repro_engine_event_queue_depth": {"": len(engine.events)},
            "repro_engine_sim_time_seconds": {"": engine.now},
            "repro_serve_placements_per_sec": {
                "": engine.num_placements / service.report.drive_seconds
            },
            "repro_serve_queue_depth": {"": service.admission.depth},
            "repro_serve_window_admission_reject_rate": {
                "": window["admission_reject_rate"]
            },
            "repro_serve_window_placement_latency_seconds": {
                "quantile=0.5": window["latency_p50"],
                "quantile=0.95": window["latency_p95"],
                "quantile=0.99": window["latency_p99"],
            },
            "repro_serve_window_placements_per_sec": {
                "": window["placements_per_sec"]
            },
            "repro_tetris_remote_ledger_machines": {
                "": len(engine.scheduler._remote_granted)
            },
            "repro_tracker_tracked_placements": {
                "": len(engine.tracker._placements)
            },
        }
