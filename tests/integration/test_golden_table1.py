"""Golden-value regression pin for the seed's failure-free numbers.

The simulator is deterministic and the default "memory" store
charges nothing, so the Table 1 pipeline must keep producing these exact
numbers no matter how the storage/failure subsystems evolve.  A refactor
that shifts them is either a bug or an intentional model change — and an
intentional change must update these constants *in the same PR*, which
is the point: the paper numbers can't drift silently.

Pinned at: minighost, 16 ranks, 4 ranks/node, k in {2, 4, 16}
(node-aligned clustering, per-node clustering, pure message logging).
"""

import pytest

from repro.harness.experiments import make_logging_run, table1_log_growth

NRANKS = 16
RPN = 4

#: (app, clusters) -> (avg, max, min) log growth in MB/s.
GOLDEN_TABLE1 = {
    ("minighost", 2): (0.5953967255105446, 1.1909097356587335, 0.0),
    ("minighost", 4): (1.786190176531634, 2.381819471317467, 1.190754689475208),
    ("minighost", 16): (3.5725547800197344, 4.763328850267883, 2.3816644251339416),
}

GOLDEN_MAKESPAN_NS = 1_574_631_632
GOLDEN_TOTAL_LOGGED_BYTES = 94_379_520


def test_table1_counters_pinned():
    rows = table1_log_growth(
        apps=["minighost"], nranks=NRANKS, ranks_per_node=RPN,
        counts=[2, 4, 16],
    )
    got = {(r.app, r.k): (r.avg_mb_s, r.max_mb_s, r.min_mb_s) for r in rows}
    assert set(got) == set(GOLDEN_TABLE1)
    for key, (avg, mx, mn) in GOLDEN_TABLE1.items():
        assert got[key][0] == pytest.approx(avg, rel=1e-12), key
        assert got[key][1] == pytest.approx(mx, rel=1e-12), key
        assert got[key][2] == pytest.approx(mn, rel=1e-12), key


def test_logging_run_raw_counters_pinned():
    """The raw quantities beneath Table 1: exact makespan and exact bytes
    logged under singleton clusters, on the default free store."""
    run = make_logging_run("minighost", NRANKS, RPN)
    assert [t.name for t in run.result.hooks.storage.plan.tiers] == ["memory"]
    assert run.result.makespan_ns == GOLDEN_MAKESPAN_NS
    assert run.result.hooks.total_bytes_logged() == GOLDEN_TOTAL_LOGGED_BYTES
