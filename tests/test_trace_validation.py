"""Trace validation tests."""

import pytest

from repro.workload.trace import (
    TraceJob,
    TraceStage,
    load_trace,
    save_trace,
    validate_trace,
)
from repro.workload.tracegen import (
    BingTraceConfig,
    FacebookTraceConfig,
    WorkloadSuiteConfig,
    generate_bing_trace,
    generate_facebook_trace,
    generate_workload_suite,
)


def ok_job(name="j"):
    return TraceJob(
        name=name,
        arrival_time=0.0,
        stages=[
            TraceStage(name="map", num_tasks=2, cpu=1, mem=1, cpu_work=5),
            TraceStage(name="reduce", num_tasks=1, cpu=1, mem=1,
                       cpu_work=5, parents=["map"], input_kind="shuffle",
                       input_mb_per_task=10, netin=5),
        ],
    )


class TestValidate:
    def test_clean_trace(self):
        assert validate_trace([ok_job("a"), ok_job("b")]) == []

    def test_duplicate_job_names(self):
        issues = validate_trace([ok_job("a"), ok_job("a")])
        assert any("duplicate job name" in i for i in issues)

    def test_negative_arrival(self):
        job = ok_job()
        job.arrival_time = -1.0
        assert any(
            "negative arrival" in i for i in validate_trace([job])
        )

    def test_unknown_parent(self):
        job = ok_job()
        job.stages[1].parents = ["ghost"]
        issues = validate_trace([job])
        assert any("not an earlier stage" in i for i in issues)

    def test_forward_parent_reference(self):
        job = ok_job()
        # parent declared after the child: invalid ordering
        job.stages[0].parents = ["reduce"]
        issues = validate_trace([job])
        assert any("not an earlier stage" in i for i in issues)

    def test_negative_demand(self):
        job = ok_job()
        job.stages[0].cpu = -1
        assert any("negative cpu" in i for i in validate_trace([job]))

    def test_shuffle_without_parents(self):
        job = ok_job()
        job.stages[0].input_kind = "shuffle"
        job.stages[0].input_mb_per_task = 5
        issues = validate_trace([job])
        assert any("no parent stages" in i for i in issues)

    def test_bad_fanin(self):
        job = ok_job()
        job.stages[1].shuffle_fanin = 0
        assert any("shuffle_fanin" in i for i in validate_trace([job]))


class TestLoadValidates:
    def test_load_raises_listing_every_issue(self, tmp_path):
        first, second = ok_job("a"), ok_job("a")
        first.stages[0].cpu = -3.0
        path = tmp_path / "bad.json"
        save_trace([first, second], path)
        with pytest.raises(ValueError) as exc:
            load_trace(path)
        message = str(exc.value)
        assert "2 issue(s)" in message
        assert "duplicate job name 'a'" in message
        assert "negative cpu" in message


class TestGeneratorsProduceValidTraces:
    def test_workload_suite_valid(self):
        trace = generate_workload_suite(WorkloadSuiteConfig(num_jobs=15))
        assert validate_trace(trace) == []

    def test_facebook_valid(self):
        trace = generate_facebook_trace(FacebookTraceConfig(num_jobs=15))
        assert validate_trace(trace) == []

    def test_bing_valid(self):
        trace = generate_bing_trace(BingTraceConfig(num_jobs=15))
        assert validate_trace(trace) == []
