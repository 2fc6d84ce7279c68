"""Experiment harness tests."""

import pytest

from repro.estimation.estimator import NoisyEstimator
from repro.experiments.harness import (
    ExperimentConfig,
    run_comparison,
    run_trace,
)
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import EngineConfig
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite


@pytest.fixture(scope="module")
def small_trace():
    return generate_workload_suite(
        WorkloadSuiteConfig(num_jobs=6, task_scale=0.03,
                            arrival_horizon=100, seed=9)
    )


class TestRunTrace:
    def test_all_jobs_complete(self, small_trace):
        result = run_trace(
            small_trace, TetrisScheduler(),
            ExperimentConfig(num_machines=8),
        )
        assert len(result.collector.jobs) == len(small_trace)
        assert result.makespan > 0
        assert result.mean_jct > 0

    def test_completion_by_name_stable_across_runs(self, small_trace):
        cfg = ExperimentConfig(num_machines=8)
        r1 = run_trace(small_trace, TetrisScheduler(), cfg)
        r2 = run_trace(small_trace, TetrisScheduler(), cfg)
        assert r1.completion_by_name() == r2.completion_by_name()
        assert set(r1.completion_by_name()) == {j.name for j in small_trace}

    def test_estimator_factory_used(self, small_trace):
        cfg = ExperimentConfig(
            num_machines=8,
            estimator_factory=lambda: NoisyEstimator(sigma=0.1, seed=3),
        )
        result = run_trace(small_trace, TetrisScheduler(), cfg)
        assert len(result.collector.jobs) == len(small_trace)

    def test_fairness_tracking(self, small_trace):
        cfg = ExperimentConfig(
            num_machines=8, engine_config=EngineConfig(track_fairness=True)
        )
        result = run_trace(small_trace, TetrisScheduler(), cfg)
        assert result.collector.unfairness_integral


class TestRunComparison:
    def test_runs_each_scheduler(self, small_trace):
        results = run_comparison(
            small_trace,
            {
                "tetris": TetrisScheduler,
                "slot-fair": SlotFairScheduler,
            },
            ExperimentConfig(num_machines=8),
        )
        assert set(results) == {"tetris", "slot-fair"}
        for result in results.values():
            assert len(result.collector.jobs) == len(small_trace)
