"""``FlowTable`` against its oracles in ``tests/fluid_oracle.py``.

Random interleavings of ``add_flow`` / ``remove_flow`` / ``advance``
drive a ``FlowTable`` and a ``HeapFlowTable`` side by side; every
``time_to_next_completion`` answer must be equal bit for bit, ties
between equal finish instants included.  The same traffic holds the
kept per-slot throughput byte-equal to the ``np.add.at`` oracle, the
sparse rates equal to ``reference_rates()``, and the Python mirrors
equal to the numpy arrays they shadow.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.resources import DEFAULT_MODEL
from repro.sim.fluid import MAX_SLOTS, FlowSpec, FlowTable

from fluid_oracle import HeapFlowTable, slot_throughput

_NUM_MACHINES = 3


def _tables():
    caps = [
        DEFAULT_MODEL.vector(
            cpu=16, mem=48, diskr=200, diskw=200, netin=125, netout=125
        ).data
        for _ in range(_NUM_MACHINES)
    ]
    return FlowTable(DEFAULT_MODEL, caps), HeapFlowTable(DEFAULT_MODEL, caps)


def _slots(machine, kind):
    if kind == 0:
        return ((machine, "diskr"),)
    if kind == 1:
        return ((machine, "diskw"),)
    if kind == 2:  # remote read across machines
        return (
            (machine, "diskr"),
            (machine, "netout"),
            ((machine + 1) % _NUM_MACHINES, "netin"),
        )
    return ()


#: few distinct works and rates, so equal finish instants are common
_calls = (
    st.tuples(
        st.just("add"),
        st.sampled_from([10.0, 100.0, 250.0, 1000.0]),
        st.sampled_from([25.0, 50.0, 150.0]),
        st.integers(0, _NUM_MACHINES - 1),
        st.integers(0, 3),
        st.booleans(),
    ),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 1.5])),
)
_ops = st.lists(st.one_of(*_calls), min_size=1, max_size=60)
#: the same calls plus reads of the kept throughput between them
_traffic = st.lists(
    st.one_of(*_calls, st.tuples(st.just("read"))), min_size=1, max_size=60
)


class TestFinishInstantsMatchHeap:
    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_answers_bit_identical(self, ops):
        array, heap = _tables()
        live = []
        for op in ops:
            if op[0] == "add":
                _, work, rate, machine, kind, fixed = op
                slots = _slots(machine, kind)
                spec = FlowSpec(
                    work=work,
                    nominal_rate=rate,
                    slots=slots,
                    fixed=fixed or not slots,
                )
                fid = array.add_flow(spec)
                assert heap.add_flow(spec) == fid
                live.append(fid)
            elif op[0] == "remove":
                if live:
                    fid = live.pop(op[1] % len(live))
                    array.remove_flow(fid)
                    heap.remove_flow(fid)
            else:
                dt = array.time_to_next_completion()
                if dt == float("inf"):
                    continue
                done = array.advance(dt * op[1])
                assert heap.advance(dt * op[1]) == done
                live = [fid for fid in live if fid not in set(done)]
            got = array.time_to_next_completion()
            want = heap.time_to_next_completion()
            assert repr(got) == repr(want)
        assert array.stats["stale_heap_pops"] == 0
        assert array.stats["heap_entries"] == heap.stats["heap_entries"]

    def test_tie_goes_to_lowest_generation_then_id(self):
        """Two flows finishing at the same instant with different
        remaining work / rate splits: the answer is the heap's pick."""
        array, heap = _tables()
        for table in (array, heap):
            # same instant (40 s) from different (work, rate) pairs
            table.add_flow(FlowSpec(work=2000.0, nominal_rate=50.0, fixed=True))
            table.add_flow(FlowSpec(work=4000.0, nominal_rate=100.0, fixed=True))
        assert array.time_to_next_completion() == 40.0
        assert repr(array.time_to_next_completion()) == repr(
            heap.time_to_next_completion()
        )
        for table in (array, heap):
            table.advance(13.7)
        assert repr(array.time_to_next_completion()) == repr(
            heap.time_to_next_completion()
        )


def _oracle_scale(table):
    """Contention scale per slot from a full ``np.add.at`` demand sum."""
    demand = table.slot_demand().reshape(-1)
    capacity = np.asarray(table._slot_capacity)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(capacity > 0, demand / capacity, np.inf)
    over = ratio > 1.0
    scale = np.ones(demand.size)
    sigma = np.asarray(table._slot_sigma)[over]
    scale[over] = 1.0 / (ratio[over] * (1.0 + sigma * (ratio[over] - 1.0)))
    scale[demand <= 0] = 1.0
    return scale


def _assert_mirrors(table):
    table._recompute_rates()
    n = len(table._remaining)
    assert np.array(table._nominal_of).tobytes() == table._nominal.tobytes()
    for flow_id in range(n):
        slots = table._slots_of[flow_id]
        padded = slots + (-1,) * (MAX_SLOTS - len(slots))
        assert padded == tuple(table._slots[flow_id].tolist())
    members = np.flatnonzero(table._active & ~table._fixed)
    for flow_id in members:
        assert table._rate_of[flow_id] == table._rate[flow_id]
    assert np.array(table._slot_scale).tobytes() == _oracle_scale(table).tobytes()


class TestKeptStateMatchesFullTable:
    @given(ops=_traffic)
    @settings(max_examples=200, deadline=None)
    def test_throughput_rates_and_mirrors(self, ops):
        table, _ = _tables()
        live = []
        for op in ops:
            if op[0] == "add":
                _, work, rate, machine, kind, fixed = op
                slots = _slots(machine, kind)
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
            elif op[0] == "advance":
                dt = table.time_to_next_completion()
                if dt != float("inf"):
                    done = set(table.advance(dt * op[1]))
                    live = [fid for fid in live if fid not in done]
            else:
                want = slot_throughput(table)
                assert table.slot_throughput().tobytes() == want.tobytes()
            _assert_mirrors(table)
            oracle = table.reference_rates()
            for flow_id in np.flatnonzero(table._active):
                assert table._rate[flow_id] == oracle[flow_id]
        want = slot_throughput(table)
        assert table.slot_throughput().tobytes() == want.tobytes()

    def test_rate_change_off_the_dirty_slot_is_seen(self):
        """A remote read slowed by contention at its destination NIC
        moves the throughput of its source disk, a slot whose members
        did not change."""
        table, _ = _tables()
        table.add_flow(
            FlowSpec(work=1e6, nominal_rate=100.0, slots=_slots(0, 2))
        )
        before = table.slot_throughput()
        table.add_flow(
            FlowSpec(work=1e6, nominal_rate=100.0, slots=((1, "netin"),))
        )
        after = table.slot_throughput()
        assert after.tobytes() == slot_throughput(table).tobytes()
        diskr = table.fluid_dim_names().index("diskr")
        assert after[0][diskr] < before[0][diskr]
