"""Fluid flow-table tests: proportional sharing, contention, completion."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.resources import DEFAULT_MODEL
from repro.sim import fluid
from repro.sim.fluid import CONTENTION_SIGMA, FlowSpec, FlowTable


def make_table(num_machines=2, sigma=0.25):
    """A flow table whose non-cpu slots contend with slope ``sigma``."""
    caps = [
        DEFAULT_MODEL.vector(
            cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125
        ).data
        for _ in range(num_machines)
    ]
    with mock.patch.object(fluid, "CONTENTION_SIGMA", sigma):
        return FlowTable(DEFAULT_MODEL, caps)


class TestFluidConfig:
    def test_cpu_sigma_defaults_to_zero(self):
        table = make_table(num_machines=1, sigma=CONTENTION_SIGMA)
        sigma = dict(zip(table.fluid_dim_names(), table._slot_sigma))
        assert sigma["cpu"] == 0.0
        assert sigma["diskr"] == CONTENTION_SIGMA == 0.5


class TestRegistration:
    def test_zero_work_rejected(self):
        with pytest.raises(ValueError):
            make_table().add_flow(FlowSpec(work=0, nominal_rate=1))

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            make_table().add_flow(FlowSpec(work=1, nominal_rate=0))

    def test_non_fluid_dim_rejected(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.add_flow(
                FlowSpec(work=1, nominal_rate=1, slots=((0, "mem"),))
            )

    def test_machine_out_of_range_rejected(self):
        table = make_table(num_machines=1)
        with pytest.raises(ValueError):
            table.add_flow(
                FlowSpec(work=1, nominal_rate=1, slots=((5, "diskr"),))
            )

    def test_growth_beyond_initial_capacity(self):
        table = make_table()
        ids = [
            table.add_flow(FlowSpec(work=100, nominal_rate=1))
            for _ in range(200)
        ]
        assert table.num_active == 200
        assert len(set(ids)) == 200

    def test_remove_flow(self):
        table = make_table()
        fid = table.add_flow(FlowSpec(work=10, nominal_rate=1))
        table.remove_flow(fid)
        assert table.num_active == 0
        with pytest.raises(ValueError):
            table.remove_flow(fid)


class TestRates:
    def test_uncontended_flow_runs_at_nominal(self):
        table = make_table()
        fid = table.add_flow(
            FlowSpec(work=100, nominal_rate=50, slots=((0, "diskr"),))
        )
        assert table.current_rate(fid) == pytest.approx(50)

    def test_proportional_share_without_penalty(self):
        table = make_table(sigma=0.0)
        f1 = table.add_flow(
            FlowSpec(work=1000, nominal_rate=150, slots=((0, "diskr"),))
        )
        f2 = table.add_flow(
            FlowSpec(work=1000, nominal_rate=150, slots=((0, "diskr"),))
        )
        # demand 300 on a 200 MB/s disk -> each gets 100
        assert table.current_rate(f1) == pytest.approx(100)
        assert table.current_rate(f2) == pytest.approx(100)

    def test_contention_penalty_lowers_aggregate_throughput(self):
        table = make_table(sigma=0.25)
        for _ in range(2):
            table.add_flow(
                FlowSpec(work=1000, nominal_rate=200, slots=((0, "diskr"),))
            )
        throughput = table.slot_throughput().sum()
        # ratio 2.0: aggregate = 200 / (1 + 0.25) = 160 < 200
        assert throughput == pytest.approx(200 / 1.25)

    def test_cpu_timeshares_losslessly(self):
        table = make_table(sigma=0.25)
        for _ in range(2):
            table.add_flow(
                FlowSpec(work=100, nominal_rate=16, slots=((0, "cpu"),))
            )
        # 32 cores demanded on 16: each runs at 8, aggregate stays 16
        throughput = table.slot_throughput()[0][0]
        assert throughput == pytest.approx(16.0)

    def test_multi_slot_flow_limited_by_worst_slot(self):
        table = make_table(sigma=0.0)
        # saturate source netout with a competing flow
        table.add_flow(
            FlowSpec(work=1000, nominal_rate=125, slots=((0, "netout"),))
        )
        remote = table.add_flow(
            FlowSpec(
                work=1000,
                nominal_rate=125,
                slots=((0, "diskr"), (0, "netout"), (1, "netin")),
            )
        )
        # netout has 250 demanded on 125 -> half rate
        assert table.current_rate(remote) == pytest.approx(62.5)

    def test_fixed_flow_ignores_contention(self):
        table = make_table()
        fid = table.add_flow(
            FlowSpec(work=10, nominal_rate=999, slots=(), fixed=True)
        )
        assert table.current_rate(fid) == pytest.approx(999)


class TestAdvance:
    def test_completion_timing(self):
        table = make_table()
        table.add_flow(
            FlowSpec(work=100, nominal_rate=50, slots=((0, "diskr"),))
        )
        assert table.time_to_next_completion() == pytest.approx(2.0)
        completed = table.advance(2.0)
        assert len(completed) == 1
        assert table.num_active == 0

    def test_partial_progress(self):
        table = make_table()
        fid = table.add_flow(
            FlowSpec(work=100, nominal_rate=50, slots=((0, "diskr"),))
        )
        assert table.advance(1.0) == []
        assert table.remaining_work(fid) == pytest.approx(50)

    def test_rates_rebalance_after_completion(self):
        table = make_table(sigma=0.0)
        f1 = table.add_flow(
            FlowSpec(work=100, nominal_rate=200, slots=((0, "diskw"),))
        )
        f2 = table.add_flow(
            FlowSpec(work=1000, nominal_rate=200, slots=((0, "diskw"),))
        )
        dt = table.time_to_next_completion()
        assert dt == pytest.approx(1.0)  # each at 100 MB/s
        assert table.advance(dt) == [f1]
        assert table.current_rate(f2) == pytest.approx(200)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            make_table().advance(-1.0)

    def test_empty_table(self):
        table = make_table()
        assert table.time_to_next_completion() == float("inf")
        assert table.advance(10.0) == []

    def test_tags_returned_on_completion(self):
        table = make_table()
        table.add_flow(
            FlowSpec(work=10, nominal_rate=10, slots=((0, "diskr"),),
                     tag=("task", 7))
        )
        completed = table.advance(1.0)
        assert table.completed_tags(completed) == [("task", 7)]


class TestObservation:
    def test_slot_demand_shows_over_allocation(self):
        table = make_table()
        for _ in range(3):
            table.add_flow(
                FlowSpec(work=100, nominal_rate=100, slots=((0, "diskr"),))
            )
        demand = table.slot_demand()
        k = table.fluid_dim_names().index("diskr")
        assert demand[0][k] == pytest.approx(300)  # 1.5x capacity

    def test_throughput_capped_by_capacity(self):
        table = make_table(sigma=0.0)
        for _ in range(4):
            table.add_flow(
                FlowSpec(work=100, nominal_rate=100, slots=((0, "netin"),))
            )
        throughput = table.slot_throughput()
        k = table.fluid_dim_names().index("netin")
        assert throughput[0][k] == pytest.approx(125)


class TestFluidProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=1000),   # work
                st.floats(min_value=1, max_value=300),    # rate
                st.integers(min_value=0, max_value=1),    # machine
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_throughput_never_exceeds_capacity(self, flows):
        table = make_table(sigma=0.25)
        for work, rate, machine in flows:
            table.add_flow(
                FlowSpec(work=work, nominal_rate=rate,
                         slots=((machine, "diskr"),))
            )
        throughput = table.slot_throughput()
        k = table.fluid_dim_names().index("diskr")
        assert (throughput[:, k] <= 200 + 1e-6).all()

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.one_of(
                # add a flow: (work, rate, machine, dim-kind, fixed?)
                st.tuples(
                    st.just("add"),
                    st.floats(min_value=1, max_value=1000),
                    st.floats(min_value=1, max_value=300),
                    st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=3),
                    st.booleans(),
                ),
                # remove the i-th oldest live flow
                st.tuples(st.just("remove"), st.integers(min_value=0)),
                # advance by a fraction of time-to-next-completion
                st.tuples(
                    st.just("advance"),
                    st.floats(min_value=0.0, max_value=1.5),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_sparse_rates_match_full_recompute(self, ops):
        """The tentpole invariant: after any randomized interleaving of
        add_flow/remove_flow/advance, the sparse-maintained rates equal
        the retained full-table oracle within 1e-9, and the finish-instant
        time_to_next_completion equals the oracle's full scan."""
        table = make_table(num_machines=3, sigma=0.25)
        live = []
        for op in ops:
            if op[0] == "add":
                _, work, rate, machine, kind, fixed = op
                if kind == 0:
                    slots = ((machine, "diskr"),)
                elif kind == 1:
                    slots = ((machine, "diskw"),)
                elif kind == 2:  # remote read across machines
                    dst = (machine + 1) % 3
                    slots = (
                        (machine, "diskr"),
                        (machine, "netout"),
                        (dst, "netin"),
                    )
                else:
                    slots = ()
                live.append(
                    table.add_flow(
                        FlowSpec(
                            work=work,
                            nominal_rate=rate,
                            slots=slots,
                            fixed=fixed or not slots,
                        )
                    )
                )
            elif op[0] == "remove":
                if live:
                    table.remove_flow(live.pop(op[1] % len(live)))
            else:
                dt = table.time_to_next_completion()
                if dt == float("inf"):
                    continue
                completed = set(table.advance(dt * op[1]))
                live = [fid for fid in live if fid not in completed]
            # the sparse path must agree with the oracle after every op
            table._recompute_rates()
            oracle = table.reference_rates()
            for fid in live:
                assert abs(table._rate[fid] - oracle[fid]) <= 1e-9
            expected = min(
                (
                    table._remaining[fid] / oracle[fid]
                    for fid in live
                    if oracle[fid] > 0
                ),
                default=float("inf"),
            )
            got = table.time_to_next_completion()
            if expected == float("inf"):
                assert got == float("inf")
            else:
                assert got == pytest.approx(expected, abs=1e-9)

    def test_sparse_recompute_is_local(self):
        """Adding a flow on machine 1 must not resum machine 0's slots."""
        table = make_table(num_machines=2, sigma=0.25)
        for _ in range(4):
            table.add_flow(
                FlowSpec(work=100, nominal_rate=150, slots=((0, "diskr"),))
            )
        table.time_to_next_completion()  # drain dirty set
        before = dict(table.stats)
        table.add_flow(
            FlowSpec(work=100, nominal_rate=150, slots=((1, "diskr"),))
        )
        table.time_to_next_completion()
        # one new dirty slot, one touched flow — not 5 flows / 2 slots
        assert table.stats["slots_recomputed"] - before["slots_recomputed"] == 1
        assert table.stats["flows_recomputed"] - before["flows_recomputed"] == 1

    def test_stats_and_metrics_registered(self):
        from repro.obs import Registry

        registry = Registry()
        table = make_table()
        table.declare_metrics(registry)
        table.add_flow(
            FlowSpec(work=100, nominal_rate=50, slots=((0, "diskr"),))
        )
        table.advance(1.0)
        snap = registry.snapshot()
        assert snap["repro_fluid_sparse_recomputes_total"]["values"][""] >= 1
        assert snap["repro_fluid_flows_recomputed_total"]["values"][""] >= 1
        assert table.stats["sparse_recomputes"] >= 1

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=500),
                st.floats(min_value=1, max_value=200),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_work_conservation(self, flows):
        """Advancing in many small steps completes every flow after the
        exact total work has been delivered."""
        table = make_table(sigma=0.0)
        total_work = 0.0
        for work, rate in flows:
            table.add_flow(
                FlowSpec(work=work, nominal_rate=rate,
                         slots=((0, "diskw"),))
            )
            total_work += work
        delivered = 0.0
        for _ in range(10_000):
            if table.num_active == 0:
                break
            k = table.fluid_dim_names().index("diskw")
            rate_now = table.slot_throughput()[0][k]
            dt = min(table.time_to_next_completion(), 1.0)
            table.advance(dt)
            delivered += rate_now * dt
        assert table.num_active == 0
        assert delivered == pytest.approx(total_work, rel=1e-3)
