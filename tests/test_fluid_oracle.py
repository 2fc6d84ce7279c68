"""The finish-instant array against the lazy-heap oracle.

Random interleavings of ``add_flow`` / ``remove_flow`` / ``advance``
drive a ``FlowTable`` and a ``HeapFlowTable`` (``tests/fluid_oracle.py``)
side by side; every ``time_to_next_completion`` answer must be equal bit
for bit, ties between equal finish instants included.
"""

from hypothesis import given, settings, strategies as st

from repro.resources import DEFAULT_MODEL
from repro.sim.fluid import FlowSpec, FlowTable

from fluid_oracle import HeapFlowTable

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
_ops = st.lists(
    st.one_of(
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
    ),
    min_size=1,
    max_size=60,
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
