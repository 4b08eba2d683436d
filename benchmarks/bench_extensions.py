"""E13–E15 extension experiments + supporting kernels.

* E13 — dynamic maintenance policies (Section 2.2 made quantitative),
* E14 — conservatism of the safety level vs the exact reach radius,
* E15 — link-load distribution across routing schemes,
plus kernels for the node-disjoint-path construction and adaptive
re-routing.
"""

import numpy as np

from repro.analysis import (
    conservatism_table,
    dynamic_policy_table,
    traffic_table,
)
from repro.core import (
    FaultSet,
    Hypercube,
    count_optimal_paths,
    disjoint_optimal_paths,
    uniform_node_faults,
    verify_node_disjoint,
)
from repro.core.fault_models import FaultEvent, FaultSchedule
from repro.routing import route_unicast_adaptive


def test_e13_dynamic_policies(benchmark, write_artifact):
    table = benchmark.pedantic(
        dynamic_policy_table,
        kwargs={"n": 6, "horizon": 30, "trials": 8, "periods": (1, 5, 10),
                "unicasts_per_tick": 4, "seed": 61},
        iterations=1,
        rounds=1,
    )
    rows = {row[0]: row for row in table.rows}
    assert rows["state-change"][3] == 0.0   # never stale
    assert rows["state-change"][5] == 0.0   # never lossy
    assert rows["periodic/10"][3] > 0.0     # long cadence goes stale
    # periodic exchanges are wasted on stable status (Section 2.2)
    assert rows["periodic/1"][1] > rows["state-change"][1]
    write_artifact("e13_dynamic", table.render())


def test_e14_conservatism(benchmark, write_artifact):
    table = benchmark.pedantic(
        conservatism_table,
        kwargs={"n": 6, "trials": 30, "seed": 53},
        iterations=1,
        rounds=1,
    )
    for row in table.rows:
        assert row[-1] == 0                 # Theorem 2 soundness
    write_artifact("e14_conservatism", table.render())


def test_e15_traffic(benchmark, write_artifact):
    table = benchmark.pedantic(
        traffic_table,
        kwargs={"n": 7, "num_faults": 6, "batches": 8,
                "pairs_per_batch": 200, "seed": 71},
        iterations=1,
        rounds=1,
    )
    write_artifact("e15_traffic", table.render())


def test_disjoint_paths_kernel(benchmark):
    q = Hypercube(10)
    paths = benchmark(disjoint_optimal_paths, q, 0, (1 << 10) - 1)
    assert len(paths) == 10
    assert verify_node_disjoint(paths)


def test_path_counting_kernel(benchmark):
    q = Hypercube(8)
    faults = uniform_node_faults(q, 10, np.random.default_rng(2))
    alive = faults.nonfaulty_nodes(q)
    count = benchmark(count_optimal_paths, q, faults, alive[0], alive[-1])
    assert count >= 0


def test_adaptive_reroute_kernel(benchmark):
    q = Hypercube(6)
    sched = FaultSchedule(base=FaultSet(), events=[
        FaultEvent(time=1, node=0b000011, fails=True),
        FaultEvent(time=2, node=0b001100, fails=True),
    ])
    out = benchmark(route_unicast_adaptive, q, sched, 0, 63)
    assert out.result.delivered


def test_e19_worstcase_bound_tightness(benchmark, write_artifact):
    """E19: the n-1 stabilization bound is met with equality."""
    from repro.analysis import isolation_cascade_instance
    from repro.safety import stabilization_rounds_fast

    def certify():
        rows = []
        for n in range(4, 10):
            topo, faults = isolation_cascade_instance(n)
            rounds = stabilization_rounds_fast(topo, faults)
            assert rounds == n - 1
            rows.append((n, n - 1, rounds))
        return rows

    rows = benchmark.pedantic(certify, iterations=1, rounds=1)
    lines = ["E19 — Property 1 bound tightness (isolation cascade)",
             "n   bound   achieved"]
    lines += [f"{n:<3} {b:<7} {r}" for n, b, r in rows]
    write_artifact("e19_worstcase", "\n".join(lines))


def test_e20_connectivity(benchmark, write_artifact):
    """E20: disconnection probability — why random faults rarely cut the
    cube, and why E10 uses adversarial isolation patterns instead."""
    from repro.analysis import (
        connectivity_threshold_holds,
        disconnection_probability_table,
    )

    assert connectivity_threshold_holds(6, exhaustive_up_to=3)
    table = benchmark.pedantic(
        disconnection_probability_table,
        kwargs={"n": 7, "trials": 200, "seed": 151},
        iterations=1,
        rounds=1,
    )
    rows = {row[0]: row for row in table.rows}
    assert rows[6][1] == 0.0  # below n faults: never disconnected
    write_artifact("e20_connectivity", table.render())
