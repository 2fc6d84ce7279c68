"""Table 6 / Section 5.2: machine-level resource usage per scheduler.

Paper: Tetris drives machines to high usage across all resources
without ever crossing capacity; CS and DRF under-use (fragmentation)
and occasionally over-allocate disk and network (the >100% column).
"""

from conftest import (
    DEPLOY_MACHINES,
    deploy_trace,
    print_table,
    standard_comparison,
)

from repro.analysis.tightness import machine_usage_tightness
from repro.sim.engine import EngineConfig

THRESHOLDS = (0.6, 0.8, 1.0)
IO_DIMS = ("diskr", "diskw", "netin", "netout")


def test_table6_machine_level_usage(benchmark):
    def regenerate():
        # without the tracker: Section 3.2's base heuristic guarantees
        # booked demand never exceeds capacity (the tracker deliberately
        # re-packs reclaimed headroom, which can transiently overshoot)
        results = standard_comparison(
            deploy_trace(), DEPLOY_MACHINES, seed=1, use_tracker=False,
            engine_config=EngineConfig(track_machine_usage=True),
        )
        tightness = {
            name: machine_usage_tightness(
                result.collector.machine_usage_arrays(),
                thresholds=THRESHOLDS,
            )
            for name, result in results.items()
        }
        return results, tightness

    results, tightness = benchmark.pedantic(regenerate, rounds=1,
                                            iterations=1)

    rows = []
    for scheduler, by_resource in tightness.items():
        for resource, vals in sorted(by_resource.items()):
            rows.append(
                (f"{scheduler}/{resource}", vals[0.6], vals[0.8], vals[1.0])
            )
    print_table(
        "Table 6: P(machine uses resource above fraction of capacity)",
        ["scheduler/resource", ">60%", ">80%", ">100%"],
        rows,
    )

    # baselines over-allocate some I/O resource at machine level ...
    for baseline in ("capacity", "slot-fair", "drf"):
        over = max(tightness[baseline][d][1.0] for d in IO_DIMS)
        assert over > 0.0, baseline
    # ... Tetris never exceeds capacity on its locally-booked dimensions
    for dim in ("diskw", "netin", "mem"):
        assert tightness["tetris"][dim][1.0] == 0.0, dim
