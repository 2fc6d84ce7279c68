"""Tests for the RunSpec layer and the execution backends.

The failure-injection schedulers live at module level so they pickle by
reference under any multiprocessing start method.
"""

import os
import pickle
import time

import pytest

from repro.exec import (
    ExecutionError,
    ProcessPoolBackend,
    RunSpec,
    SerialBackend,
    execute,
    raise_on_failure,
    resolve_workers,
    run_specs,
)
from repro.exec.backends import get_backend
from repro.experiments.harness import ExperimentConfig, run_trace
from repro.experiments.replication import replicate
from repro.experiments.harness import run_comparison
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.registry import build_scheduler
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

GRID_SCHEDULERS = ("tetris", "slot-fair", "drf", "fifo")


@pytest.fixture(scope="module")
def small_trace():
    return tuple(generate_workload_suite(
        WorkloadSuiteConfig(num_jobs=5, task_scale=0.02,
                            arrival_horizon=100, seed=11)
    ))


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(num_machines=6)


class ExplodingScheduler(FifoScheduler):
    """Raises from inside the engine loop — a failing grid cell."""

    name = "exploding"

    def schedule(self, now, machine_ids=None):
        raise RuntimeError("injected failure")


class HangingScheduler(FifoScheduler):
    """Blocks forever in its first scheduling round."""

    name = "hanging"

    def schedule(self, now, machine_ids=None):
        time.sleep(300)
        return []


def _crash_hard(_item):
    """Worker body that dies without reporting (simulated OOM kill)."""
    os._exit(23)


def _sleep_long(_item):
    """Worker body that outlives any test timeout."""
    time.sleep(300)


def _double(x):
    return x * 2


def _getpid(_item):
    return os.getpid()


def _crash_on_zero(item):
    if item == 0:
        os._exit(23)
    return os.getpid()


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

class TestRunSpec:
    def test_pickles(self, small_trace, config):
        spec = RunSpec(trace=small_trace, scheduler="tetris",
                       knobs={"fairness_knob": 0.5}, config=config)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.scheduler == "tetris"
        assert clone.knobs == {"fairness_knob": 0.5}
        assert len(clone.trace) == len(small_trace)

    def test_execute_matches_run_trace(self, small_trace, config):
        spec = RunSpec(trace=small_trace, scheduler="tetris", config=config)
        direct = run_trace(small_trace, TetrisScheduler(), config)
        via_spec = execute(spec)
        assert via_spec.completion_by_name() == direct.completion_by_name()
        assert via_spec.summary() == direct.summary()

    def test_factory_scheduler(self, small_trace, config):
        spec = RunSpec(trace=small_trace, scheduler=SlotFairScheduler,
                       config=config)
        assert isinstance(spec.build_scheduler(), SlotFairScheduler)
        assert spec.name == "SlotFairScheduler"

    def test_knobs_require_named_scheduler(self, small_trace, config):
        with pytest.raises(ValueError):
            RunSpec(trace=small_trace, scheduler=TetrisScheduler,
                    knobs={"fairness_knob": 0.5}, config=config)

    def test_knobs_reach_the_scheduler(self):
        scheduler = build_scheduler("tetris", {"fairness_knob": 0.75})
        assert scheduler.config.fairness_knob == 0.75

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_scheduler("nope")


# ---------------------------------------------------------------------------
# backends: generic map behavior
# ---------------------------------------------------------------------------

class TestBackendMap:
    def test_serial_order_and_values(self):
        outs = SerialBackend().map(_double, [3, 1, 2])
        assert [o.value for o in outs] == [6, 2, 4]
        assert [o.index for o in outs] == [0, 1, 2]

    def test_process_order_matches_items(self):
        outs = ProcessPoolBackend(workers=3).map(_double, list(range(7)))
        assert [o.value for o in outs] == [i * 2 for i in range(7)]

    def test_progress_callback(self):
        seen = []
        SerialBackend().map(
            _double, [1, 2],
            progress=lambda done, total, o: seen.append((done, total, o.ok)),
        )
        assert seen == [(1, 2, True), (2, 2, True)]

    def test_dead_worker_retry_is_bounded(self):
        backend = ProcessPoolBackend(workers=2, timeout=30.0, retries=2)
        outs = backend.map(_crash_hard, ["x"])
        assert not outs[0].ok
        assert outs[0].attempts == 3  # 1 try + 2 bounded retries
        assert "exited" in outs[0].error

    def test_resolve_workers_env(self, monkeypatch):
        """The worker count is the argument alone: ``--workers`` is its
        one setting, no environment variable is read."""
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 1
        assert get_backend().name == "serial"
        assert resolve_workers(4) == 4
        assert get_backend(2).workers == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=2, timeout=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=2, retries=-1)


# ---------------------------------------------------------------------------
# pool persistence: workers are reused across fan-outs
# ---------------------------------------------------------------------------

def worker_pids(backend):
    """Live worker PIDs by slot (None for never-spawned slots): what the
    pool-persistence tests observe."""
    return [
        w.proc.pid if w is not None and w.proc.is_alive() else None
        for w in backend._slots
    ]


class TestPersistentPool:
    def test_worker_pids_stable_across_fanouts(self):
        with ProcessPoolBackend(workers=2) as backend:
            backend.map(_getpid, range(4))
            pids = worker_pids(backend)
            backend.map(_getpid, range(4))
            # the same two processes sit behind the slots after a second
            # fan-out — i.e. the pool was not rebuilt per call
            assert worker_pids(backend) == pids
        assert None not in pids and len(set(pids)) == 2

    def test_nonsticky_pool_is_also_persistent(self):
        with ProcessPoolBackend(workers=2) as backend:
            first = {o.value for o in backend.map(_getpid, range(6))}
            pids = {pid for pid in worker_pids(backend) if pid is not None}
            second = {o.value for o in backend.map(_getpid, range(6))}
        assert first <= pids
        assert second <= pids

    def test_crashed_worker_is_replaced_in_place(self):
        with ProcessPoolBackend(workers=2, retries=1) as backend:
            backend.map(_getpid, range(2))
            before = worker_pids(backend)
            # item 0 kills the worker it runs on, on both attempts; the
            # other slot's worker serves item 1 and is untouched
            outs = backend.map(_crash_on_zero, range(2))
            assert not outs[0].ok and outs[0].attempts == 2
            assert outs[1].ok and outs[1].value in before
            # the crashed slot serves later fan-outs with a fresh process
            after = backend.map(_getpid, range(2))
            assert all(o.ok for o in after)
            now = worker_pids(backend)
            survivor = before.index(outs[1].value)
            assert now[survivor] == before[survivor]
            assert now[1 - survivor] not in (None, before[1 - survivor])

    def test_closed_backend_rejects_map(self):
        backend = ProcessPoolBackend(workers=2)
        backend.map(_double, [1])
        backend.close()
        assert worker_pids(backend) == [None, None]
        with pytest.raises(RuntimeError, match="closed"):
            backend.map(_double, [1])


# ---------------------------------------------------------------------------
# the determinism invariant: serial == parallel, bit for bit
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.fixture(scope="class")
    def specs(self, small_trace, config):
        return [
            RunSpec(trace=small_trace, scheduler=name, config=config)
            for name in GRID_SCHEDULERS
        ]

    def test_grid_bit_identical_across_backends(self, specs):
        serial = run_specs(specs, SerialBackend())
        parallel = run_specs(specs, ProcessPoolBackend(workers=4))
        assert [o.label for o in serial] == list(GRID_SCHEDULERS)
        assert [o.label for o in parallel] == list(GRID_SCHEDULERS)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            # per-job completion times and every summary metric match
            assert (s.result.completion_by_name()
                    == p.result.completion_by_name())
            assert s.result.summary() == p.result.summary()

    def test_run_comparison_workers_parity(self, small_trace, config):
        factories = {
            "tetris": TetrisScheduler, "slot-fair": SlotFairScheduler,
        }
        serial = run_comparison(small_trace, factories, config)
        parallel = {
            o.label: o.result
            for o in run_specs(
                [
                    RunSpec(trace=small_trace, scheduler=factory,
                            config=config, label=name)
                    for name, factory in factories.items()
                ],
                ProcessPoolBackend(workers=2),
            )
        }
        assert list(serial) == list(parallel) == ["tetris", "slot-fair"]
        for name in serial:
            assert (serial[name].completion_by_name()
                    == parallel[name].completion_by_name())
            assert serial[name].summary() == parallel[name].summary()

    def test_replicate_workers_parity(self):
        def make_trace(seed):
            return generate_workload_suite(
                WorkloadSuiteConfig(num_jobs=3, task_scale=0.02,
                                    arrival_horizon=80, seed=seed)
            )

        factories = {"tetris": TetrisScheduler}
        serial = replicate(make_trace, factories, seeds=(5, 6),
                           num_machines=5)
        parallel = replicate(make_trace, factories, seeds=(5, 6),
                             num_machines=5, workers=2)
        assert serial.seeds == parallel.seeds == (5, 6)
        assert (serial.mean_jct["tetris"].values
                == parallel.mean_jct["tetris"].values)


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

class TestFailureIsolation:
    @pytest.fixture(scope="class")
    def mixed_specs(self, small_trace, config):
        return [
            RunSpec(trace=small_trace, scheduler="fifo", config=config),
            RunSpec(trace=small_trace, scheduler=ExplodingScheduler,
                    config=config, label="boom"),
            RunSpec(trace=small_trace, scheduler="tetris", config=config),
        ]

    @pytest.mark.parametrize("backend_factory", [
        SerialBackend, lambda: ProcessPoolBackend(workers=2)],
        ids=["serial", "process"])
    def test_failure_is_isolated(self, mixed_specs, backend_factory):
        outcomes = run_specs(mixed_specs, backend_factory())
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert failed.label == "boom"
        assert "injected failure" in failed.error
        assert "RuntimeError" in failed.traceback
        # the healthy cells completed normally
        assert outcomes[0].result.makespan > 0
        assert outcomes[2].result.makespan > 0

    def test_raise_on_failure_names_the_row(self, mixed_specs):
        outcomes = run_specs(mixed_specs, SerialBackend())
        with pytest.raises(ExecutionError, match="boom"):
            raise_on_failure(outcomes)

    def test_run_comparison_reports_failures(self, small_trace, config):
        with pytest.raises(ExecutionError, match="bad"):
            run_comparison(
                small_trace,
                {"ok": FifoScheduler, "bad": ExplodingScheduler},
                config,
            )

    def test_timeout_kills_hung_worker(self, small_trace, config):
        specs = [
            RunSpec(trace=small_trace, scheduler="fifo", config=config),
            RunSpec(trace=small_trace, scheduler=HangingScheduler,
                    config=config, label="hung"),
        ]
        backend = ProcessPoolBackend(workers=2, timeout=2.0, retries=0)
        start = time.monotonic()
        outcomes = run_specs(specs, backend)
        elapsed = time.monotonic() - start
        assert elapsed < 60  # nowhere near the 300s sleep
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "timed out" in outcomes[1].error
        assert outcomes[1].attempts == 1

    def test_timeout_on_final_attempt_reports_timeout(self):
        # a hang that times out on the last permitted attempt must
        # surface as a timeout, not as a silent worker death, and its
        # wall_seconds must be the attempt's real elapsed time
        backend = ProcessPoolBackend(workers=1, timeout=0.5, retries=1)
        start = time.monotonic()
        outcome = backend.map(_sleep_long, ["x"])[0]
        elapsed = time.monotonic() - start
        assert not outcome.ok
        assert "timed out" in outcome.error
        assert outcome.attempts == 2  # 1 try + 1 retry, both expired
        assert 0.5 <= outcome.wall_seconds <= elapsed

    def test_silent_death_reports_real_elapsed(self):
        # with no timeout configured, the old accounting reported
        # wall_seconds = (self.timeout or 0.0) = 0.0 for silent deaths
        backend = ProcessPoolBackend(workers=1, timeout=None, retries=0)
        outcome = backend.map(_crash_hard, ["x"])[0]
        assert not outcome.ok
        assert "exited" in outcome.error
        assert outcome.wall_seconds > 0.0

    def test_deterministic_exceptions_not_retried(self, small_trace, config):
        spec = RunSpec(trace=small_trace, scheduler=ExplodingScheduler,
                       config=config)
        backend = ProcessPoolBackend(workers=2, retries=3)
        outcome = run_specs([spec], backend)[0]
        assert not outcome.ok
        assert outcome.attempts == 1
