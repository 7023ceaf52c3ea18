"""checkpoint_every="auto": the Young/Daly cadence plumbing.

The controller's contract: calibrate with one early checkpoint, then
settle on an interval within one iteration of sqrt(2*C*MTBF)/iter_time,
recomputed per cluster from cluster-consistent inputs (so the
coordinated barrier can never split), and recalibrate after a restart.
"""

import pytest

from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBC, SPBCConfig
from repro.harness.runner import run_native, run_online_failure, run_spbc
from repro.storage.backend import make_backend
from repro.apps.synthetic import ring_app

NRANKS = 8
PLAN = "tiered:ram@1,pfs@2"


def app(iters=12):
    return ring_app(iters=iters, msg_bytes=4096, compute_ns=300_000)


def auto_cfg(clusters, mtbf_ns=int(5e7), storage=None):
    return SPBCConfig(
        clusters=clusters,
        checkpoint_every="auto",
        mtbf_ns=mtbf_ns,
        storage=storage or make_backend(PLAN),
    )


# ----------------------------------------------------------------------
# Config validation (the CLI error paths' foundation)
# ----------------------------------------------------------------------

def test_auto_requires_cost_modeled_backend():
    clusters = ClusterMap.block(NRANKS, 4)
    with pytest.raises(ValueError, match="cost-modeled"):
        SPBC(SPBCConfig(clusters=clusters, checkpoint_every="auto"))
    with pytest.raises(ValueError, match="cost-modeled"):
        SPBC(
            SPBCConfig(
                clusters=clusters,
                checkpoint_every="auto",
                storage=make_backend("memory"),
            )
        )


@pytest.mark.parametrize("mtbf_ns", [0, -5, "observed", 1.5e9, True])
def test_mtbf_must_be_a_positive_integer(mtbf_ns):
    clusters = ClusterMap.block(NRANKS, 4)
    with pytest.raises(ValueError, match="mtbf_ns must be a positive integer MTBF"):
        SPBC(auto_cfg(clusters, mtbf_ns=mtbf_ns))
    with pytest.raises(ValueError, match="mtbf_ns"):
        SPBC(SPBCConfig(clusters=clusters, mtbf_ns=mtbf_ns))


def test_checkpoint_every_rejects_other_strings_and_nonpositive_ints():
    clusters = ClusterMap.block(NRANKS, 4)
    with pytest.raises(ValueError, match="'automatic'"):
        SPBC(SPBCConfig(clusters=clusters, checkpoint_every="automatic"))
    with pytest.raises(ValueError, match=">= 1"):
        SPBC(SPBCConfig(clusters=clusters, checkpoint_every=0))
    with pytest.raises(ValueError, match=">= 1"):
        SPBC(SPBCConfig(clusters=clusters, checkpoint_every=-3))


# ----------------------------------------------------------------------
# The cadence itself
# ----------------------------------------------------------------------

def test_auto_run_completes_and_matches_fixed_cadence_results():
    clusters = ClusterMap.block(NRANKS, 4)
    fixed = run_spbc(
        app(), NRANKS, clusters,
        config=SPBCConfig(
            clusters=clusters, checkpoint_every=2, storage=make_backend(PLAN)
        ),
        ranks_per_node=2,
    )
    auto = run_spbc(
        app(), NRANKS, clusters, config=auto_cfg(clusters), ranks_per_node=2
    )
    assert auto.results == fixed.results
    report = auto.hooks.auto_cadence_report()
    assert set(report) == {0, 1, 2, 3}
    for rep in report.values():
        assert rep["commits"] >= 1  # at least the calibration round


def test_auto_interval_tracks_young_daly_within_one_iteration():
    """The acceptance criterion: the settled interval reproduces
    optimal_interval() to within one iteration."""
    clusters = ClusterMap.block(NRANKS, 4)
    res = run_spbc(
        app(iters=16), NRANKS, clusters,
        config=auto_cfg(clusters, mtbf_ns=int(2e7)), ranks_per_node=2,
    )
    for cluster, rep in res.hooks.auto_cadence_report().items():
        assert rep["iter_ns"] > 0
        predicted = max(1, round(rep["t_opt_ns"] / rep["iter_ns"]))
        assert abs(rep["every"] - predicted) <= 1, (cluster, rep)


def test_auto_interval_scales_with_mtbf():
    """Less reliable machines -> denser checkpoints (more commits)."""
    clusters = ClusterMap.block(NRANKS, 4)
    commits = {}
    for mtbf in (int(1e6), int(1e10)):
        res = run_spbc(
            app(iters=16), NRANKS, clusters,
            config=auto_cfg(clusters, mtbf_ns=mtbf), ranks_per_node=2,
        )
        report = res.hooks.auto_cadence_report()
        commits[mtbf] = sum(rep["commits"] for rep in report.values())
        every = {rep["every"] for rep in report.values()}
        assert all(e >= 1 for e in every)
    assert commits[int(1e6)] >= commits[int(1e10)]


def test_auto_cadence_survives_failure_and_recalibrates():
    clusters = ClusterMap.block(NRANKS, 4)
    ref = run_native(app(), NRANKS, ranks_per_node=2)
    out = run_online_failure(
        app(), NRANKS, clusters,
        fail_at_ns=int(ref.makespan_ns * 0.5), fail_rank=0,
        config=auto_cfg(clusters, mtbf_ns=int(5e6)),
        ranks_per_node=2, failure_kind="node",
    )
    assert out.results == ref.results
    # the restarted cluster recalibrated (fresh cadence, >= 1 commit
    # unless it finished before its first post-restart boundary)
    report = out.world.hooks.auto_cadence_report()
    assert 0 in report
