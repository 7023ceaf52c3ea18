"""The blastradius experiment driver and the failure-kind spec."""

import pytest

from repro.core.clusters import ClusterMap
from repro.harness.experiments import EXPERIMENTS, auto_interval, blastradius
from repro.harness.runner import run_failure_schedule
from repro.apps.synthetic import ring_app


def test_malformed_failure_kind_names_token_and_choices():
    clusters = ClusterMap.block(4, 2)
    with pytest.raises(ValueError) as e:
        run_failure_schedule(
            ring_app(iters=2, compute_ns=1_000), 4, clusters,
            [(1, 0, "meteor")], ranks_per_node=2,
        )
    msg = str(e.value)
    assert "'meteor'" in msg
    assert "process" in msg and "node" in msg


def test_blastradius_rows_show_partner_advantage():
    rows = blastradius(
        apps=("minighost",), nranks=8, ranks_per_node=2, k=4,
        checkpoint_every=1,
    )
    by = {(r.plan, r.kind): r for r in rows}
    assert set(by) == {
        ("no-partner", "process"), ("no-partner", "node"),
        ("partner", "process"), ("partner", "node"),
    }
    # process failures never lose a round on either plan
    assert by[("no-partner", "process")].lost_rounds == 0
    assert by[("partner", "process")].lost_rounds == 0
    # node failure: the partner plan restarts from the latest round,
    # the plan without a mirror falls back
    assert by[("partner", "node")].lost_rounds == 0
    assert by[("partner", "node")].restored_tier == "partner"
    assert by[("no-partner", "node")].lost_rounds > 0
    # only the failed node's cluster restarted (blast containment)
    for r in rows:
        assert r.restarted_ranks == 2
    rendered = EXPERIMENTS["blastradius"].render(rows)
    assert any(
        "partner" in line and "no-partner" not in line
        for line in rendered.splitlines()
    )
    assert "scratch" in rendered or "pfs" in rendered


def test_auto_interval_rows_match_young_daly_within_one_iteration():
    """Acceptance: checkpoint_every='auto' reproduces optimal_interval()
    within one iteration in the blastradius experiment output."""
    rows = auto_interval(
        apps=("minighost",), nranks=8, ranks_per_node=2, k=4,
        mtbf_ns=int(2e7),
    )
    assert rows
    for r in rows:
        assert r.iter_ns > 0 and r.t_opt_ns > 0
        assert abs(r.every - r.predicted_every) <= 1
    rendered = EXPERIMENTS["auto_interval"].render(rows)
    assert "T_opt" in rendered
