"""Experiment drivers, and :data:`EXPERIMENTS`: one row per committed
artefact under ``benchmarks/results/`` — its driver (whose defaults are
the committed arguments), the CLI flags it accepts and its table, which
``python -m repro <name>`` and ``pytest benchmarks/`` both run and print.

Scale model: the paper runs 512 ranks on 64 nodes (8 ranks/node).  Scale
is an argument of every driver, ``nranks=128, ranks_per_node=8`` by
default (``--ranks 512`` for paper scale); the cluster-count sweeps
scale accordingly (…, nnodes = "log all inter-node", nranks = "pure
message logging").

Efficiency note: Table 1 and Figure 5 derive *all* clustering
configurations from a single logging run per application — log content
per channel is independent of the cluster map, only the inter-cluster
predicate changes — exactly mirroring how the paper collects
communication statistics once and clusters offline ([30], section 6.1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.apps.base import get_app
from repro.apps.calibration import PAPER_NET
from repro.baselines.hydee import HydEEPlan, run_hydee_recovery
from repro.clustering.partition import cluster_by_communication, cut_bytes
from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan
from repro.core.protocol import SPBCConfig
from repro.harness.runner import (
    RunResult,
    run_emulated_recovery,
    run_native,
    run_online_failure,
    run_spbc,
)
from repro.sim.network import Topology
from repro.storage.backend import TieredBackend, make_backend
from repro.storage.model import pfs_tier, ram_tier
from repro.storage.multilevel import MultiLevelPlan, optimal_interval_rounds
from repro.util.stats import summarize
from repro.util.table import format_table
from repro.util.units import SEC, mb_per_s

PAPER_APPS = ["amg", "cm1", "gtc", "milc", "minife", "minighost"]
NAS_APPS = ["bt", "lu", "mg", "sp"]

#: Per-app factory arguments used by the benchmark drivers (paper-
#: calibrated defaults; see repro/apps/calibration.py for the targets).
BENCH_PARAMS: Dict[str, dict] = {
    "amg": dict(cycles=6),
    "cm1": dict(iters=6),
    "gtc": dict(iters=8),
    "milc": dict(iters=10),
    "minife": dict(iters=16),
    "minighost": dict(iters=4),
    "bt": dict(iters=30),
    "lu": dict(iters=20),
    "mg": dict(cycles=15),
    "sp": dict(iters=30),
}


def cluster_counts(nranks: int, ranks_per_node: int) -> List[int]:
    """The Table 1 sweep scaled to the current world size: the paper's
    {2, 4, 8, 16, 64 (= nodes), 512 (= ranks)} at 512/64."""
    nnodes = nranks // ranks_per_node
    counts = [k for k in (2, 4, 8, 16) if k < nnodes]
    counts += [nnodes, nranks]
    return sorted(set(counts))


def app_factory(name: str, overrides: Optional[dict] = None):
    params = dict(BENCH_PARAMS.get(name, {}))
    if overrides:
        params.update(overrides)
    return get_app(name).factory(**params)


def _paper_world(ranks_per_node: int) -> dict:
    """World keywords of every measured run: the paper's network, no
    trace."""
    return dict(ranks_per_node=ranks_per_node, net_params=PAPER_NET, trace=False)


def _checkpointing(
    name: str, cm: ClusterMap, storage: Union[str, TieredBackend], **cfg
) -> SPBCConfig:
    """A checkpointing config on ``storage`` (a spec string or a fresh
    backend).  The modeled payload is app ``name``'s write-locality
    profile — nonzero for every registered app, so a cost-modeled
    backend never charges for a zero-byte checkpoint."""
    return SPBCConfig(
        clusters=cm,
        storage=make_backend(storage) if isinstance(storage, str) else storage,
        state_nbytes=get_app(name).profile.total_bytes,
        **cfg,
    )


def _rounds(backend: TieredBackend, nranks: int) -> int:
    """Checkpoint rounds committed: the most any rank holds."""
    return max((len(backend.rounds_of(r)) for r in range(nranks)), default=0)


# ----------------------------------------------------------------------
# Shared: one logging run per app + clustering maps for every k
# ----------------------------------------------------------------------

@dataclass
class LoggingRun:
    """A failure-free run that logged every channel (singleton clusters),
    from which any clustering configuration can be analyzed."""

    name: str
    nranks: int
    ranks_per_node: int
    result: RunResult
    pair_bytes: Dict[Tuple[int, int], int]  # directed src -> dst, from the sender logs
    maps: Dict[int, ClusterMap] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.result.makespan_ns

    def clustering_for(self, k: int) -> ClusterMap:
        """The paper's pipeline: node-constrained partition minimizing
        logged volume; k == nranks means pure message logging."""
        cm = self.maps.get(k)
        if cm is None:
            if k >= self.nranks:
                cm = ClusterMap.singletons(self.nranks)
            else:
                rpn = self.ranks_per_node
                if k > self.nranks // rpn:
                    # More clusters than nodes: node alignment is impossible
                    # (like the paper's pure-logging column); partition ranks.
                    rpn = 1
                cm = cluster_by_communication(
                    self.pair_bytes, k, Topology(self.nranks, rpn)
                )
            self.maps[k] = cm
        return cm

    def per_rank_logged_bytes(self, cm: ClusterMap) -> List[int]:
        """Bytes each rank would log under cluster map ``cm``."""
        cluster_of = cm.cluster_of
        logged = [0] * self.nranks
        for (src, dst), nbytes in self.pair_bytes.items():
            if cluster_of[src] != cluster_of[dst]:
                logged[src] += nbytes
        return logged


def _sent_pair_bytes(hooks, nranks: int) -> Dict[Tuple[int, int], int]:
    """Directed bytes (src, dst) -> sum over every rank's sender log.

    Exact only while each log still holds every record it appended:
    receiver garbage collection deletes records, so a log with
    ``collected_records > 0`` is refused rather than undercounted."""
    pairs: Dict[Tuple[int, int], int] = {}
    for r in range(nranks):
        log = hooks.state[r].log
        if log.collected_records:
            raise ValueError(
                f"rank {r}: {log.collected_records} log records were "
                "garbage-collected; its log no longer sums to what it sent"
            )
        for rec in log.all_records():
            pairs[r, rec.dst] = pairs.get((r, rec.dst), 0) + rec.nbytes
    return pairs


def make_logging_run(
    name: str,
    nranks: int = 128,
    ranks_per_node: int = 8,
    overrides: Optional[dict] = None,
    seed: int = 0,
    trace: bool = False,
) -> LoggingRun:
    """Run app ``name`` under pure message logging (singleton clusters),
    failure-free and without checkpoints.  Every non-loopback send then
    crosses a cluster boundary and is logged exactly once, and no log is
    ever collected, so the sender logs hold every byte the run sent
    (loopback, which crosses no boundary, aside) and
    :attr:`LoggingRun.pair_bytes` is summed from them.  ``trace=True``
    also records the event trace, for consumers of the message order
    (HydEE's dependency vectors, Figure 6)."""
    res = run_spbc(
        app_factory(name, overrides),
        nranks,
        ClusterMap.singletons(nranks),
        ranks_per_node=ranks_per_node,
        net_params=PAPER_NET,
        seed=seed,
        trace=trace,
    )
    return LoggingRun(
        name=name,
        nranks=nranks,
        ranks_per_node=ranks_per_node,
        result=res,
        pair_bytes=_sent_pair_bytes(res.hooks, nranks),
    )


# ----------------------------------------------------------------------
# Table 1 — log growth rate per process (MB/s), Avg and Max
# ----------------------------------------------------------------------

@dataclass
class Table1Row:
    app: str
    k: int
    avg_mb_s: float
    max_mb_s: float
    min_mb_s: float


def table1_log_growth(
    apps: Sequence[str] = PAPER_APPS,
    nranks: int = 128,
    ranks_per_node: int = 8,
    counts: Optional[Sequence[int]] = None,
    overrides: Optional[Dict[str, dict]] = None,
) -> List[Table1Row]:
    rows: List[Table1Row] = []
    for name in apps:
        run = make_logging_run(
            name, nranks, ranks_per_node, (overrides or {}).get(name)
        )
        ks = counts or cluster_counts(run.nranks, run.ranks_per_node)
        for k in ks:
            cm = run.clustering_for(k)
            logged = run.per_rank_logged_bytes(cm)
            rates = [mb_per_s(b, run.duration_ns) for b in logged]
            stats = summarize(rates)
            rows.append(
                Table1Row(
                    app=name,
                    k=k,
                    avg_mb_s=stats.mean,
                    max_mb_s=stats.maximum,
                    min_mb_s=stats.minimum,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Table 2 — failure-free overhead of SPBC vs native MPI
# ----------------------------------------------------------------------

@dataclass
class Table2Row:
    app: str
    k: int
    native_ns: int
    spbc_ns: int

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.spbc_ns - self.native_ns) / self.native_ns


def table2_failure_free_overhead(
    apps: Sequence[str] = PAPER_APPS,
    ks: Sequence[int] = (16,),
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[Table2Row]:
    world = _paper_world(ranks_per_node)
    rows: List[Table2Row] = []
    for name in apps:
        app = app_factory(name)
        native = run_native(app, nranks, **world)
        run = make_logging_run(name, nranks, ranks_per_node)
        for k in ks:
            spbc = run_spbc(app, nranks, run.clustering_for(k), **world)
            rows.append(
                Table2Row(
                    app=name, k=k, native_ns=native.makespan_ns, spbc_ns=spbc.makespan_ns
                )
            )
    return rows


# ----------------------------------------------------------------------
# Checkpoint cost — what the paper excludes: write time per tier plan
# ----------------------------------------------------------------------

#: Tier plans swept by the checkpoint-cost experiment.  "memory" is the
#: paper's free store; the others execute multi-level plans with modeled
#: costs (the PFS's aggregate bandwidth is shared by every writer).
CKPT_PLANS: Dict[str, str] = {
    "memory": "memory",
    "local": "tiered:ram@1,ssd@2",
    "multilevel": "tiered:ram@1,ssd@2,pfs@4",
    "pfs-only": "tiered:pfs@1",
    "partner": "partner:ram@1,partner@1,pfs@4",
}


@dataclass
class CkptCostRow:
    app: str
    k: int
    plan: str
    nranks: int
    rounds: int
    ckpt_mb_avg: float  # modeled checkpoint size per rank (state + logs)
    write_ms_per_rank: float  # modeled write time charged per rank
    makespan_ns: int
    baseline_ns: int  # same run on the free "memory" plan

    @property
    def slowdown_pct(self) -> float:
        return 100.0 * (self.makespan_ns - self.baseline_ns) / self.baseline_ns


def checkpoint_cost(
    apps: Sequence[str] = ("minighost",),
    ks: Sequence[int] = (4, 16),
    storage: Optional[str] = None,
    checkpoint_every: int = 1,
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[CkptCostRow]:
    """Sweep tier plans × cluster counts with checkpointing enabled:
    :data:`CKPT_PLANS`, or the ``storage`` spec next to "memory".

    Every configuration runs the same app; the "memory" plan is the
    per-k baseline (identical to a run without any storage model), so a
    row's slowdown is purely the modeled checkpoint write time."""
    plans = CKPT_PLANS if storage is None else {"memory": "memory", storage: storage}
    world = _paper_world(ranks_per_node)
    rows: List[CkptCostRow] = []
    for name in apps:
        app = app_factory(name)
        for k in ks:
            if k > nranks:
                continue
            cm = ClusterMap.block(nranks, k)
            results: Dict[str, RunResult] = {}
            for plan_name, spec in plans.items():
                cfg = _checkpointing(name, cm, spec, checkpoint_every=checkpoint_every)
                results[plan_name] = run_spbc(app, nranks, cm, config=cfg, **world)
            base_ns = results["memory"].makespan_ns
            for plan_name, res in results.items():
                backend = res.hooks.storage
                rows.append(
                    CkptCostRow(
                        app=name,
                        k=k,
                        plan=plan_name,
                        nranks=nranks,
                        rounds=_rounds(backend, nranks),
                        ckpt_mb_avg=(
                            backend.bytes_written / max(1, backend.writes) / 1e6
                        ),
                        write_ms_per_rank=backend.write_ns_total / nranks / 1e6,
                        makespan_ns=res.makespan_ns,
                        baseline_ns=base_ns,
                    )
                )
    return rows


# ----------------------------------------------------------------------
# Figure 5 — recovery (rework) time normalized to failure-free
# ----------------------------------------------------------------------

@dataclass
class Fig5Row:
    app: str
    k: int
    rework_ns: int
    native_ns: int
    replayed_records: int
    replayed_bytes: int

    @property
    def normalized(self) -> float:
        return self.rework_ns / self.native_ns


def fig5_recovery(
    apps: Sequence[str] = PAPER_APPS,
    ks: Sequence[int] = (2, 4, 8, 16),
    nranks: int = 128,
    ranks_per_node: int = 8,
    window: int = 50,
) -> List[Fig5Row]:
    world = _paper_world(ranks_per_node)
    rows: List[Fig5Row] = []
    for name in apps:
        app = app_factory(name)
        native = run_native(app, nranks, **world)
        run = make_logging_run(name, nranks, ranks_per_node)
        for k in ks:
            if k > run.nranks:
                continue
            cm = run.clustering_for(k)
            plan = ReplayPlan.from_run(
                run.result.hooks, run.duration_ns, clusters=cm
            )
            rec = run_emulated_recovery(
                app, nranks, cm, plan,
                reference_ns=native.makespan_ns, window=window, **world,
            )
            rows.append(
                Fig5Row(
                    app=name,
                    k=k,
                    rework_ns=rec.rework_ns,
                    native_ns=native.makespan_ns,
                    replayed_records=plan.total_records,
                    replayed_bytes=plan.total_bytes,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Figure 6 — SPBC vs HydEE recovery on the NAS benchmarks
# ----------------------------------------------------------------------

@dataclass
class Fig6Row:
    app: str
    spbc_normalized: float
    hydee_normalized: float
    hydee_grants: int
    records: int


def fig6_hydee_vs_spbc(
    apps: Sequence[str] = NAS_APPS,
    k: int = 8,
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[Fig6Row]:
    world = _paper_world(ranks_per_node)
    rows: List[Fig6Row] = []
    for name in apps:
        app = app_factory(name)
        native = run_native(app, nranks, **world)
        # Phase 1 with the actual k-cluster map, traced: the trace yields
        # the dependency vectors HydEE needs.
        run = make_logging_run(name, nranks, ranks_per_node, trace=True)
        cm = run.clustering_for(k)
        plan = ReplayPlan.from_run(run.result.hooks, run.duration_ns, clusters=cm)
        # The HydEE plan (dependency vectors + tracked set) is derived
        # against the same k-cluster map from the same phase-1 trace.
        hplan = HydEEPlan.from_run(
            run.result.hooks, run.result.trace, run.duration_ns, clusters=cm
        )
        spbc_rec = run_emulated_recovery(
            app, nranks, cm, plan, reference_ns=native.makespan_ns, **world,
        )
        hydee_rec = run_hydee_recovery(
            app, nranks, cm, hplan, reference_ns=native.makespan_ns,
            ranks_per_node=ranks_per_node, net_params=PAPER_NET,
        )
        rows.append(
            Fig6Row(
                app=name,
                spbc_normalized=spbc_rec.normalized,
                hydee_normalized=hydee_rec.normalized,
                hydee_grants=hydee_rec.grants,
                records=plan.total_records,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Blast radius — per-node failures across storage plans (what PR 1's
# whole-cluster model hid: partner copies survive a single-node loss)
# ----------------------------------------------------------------------

#: Storage plans compared by the blast-radius experiment.  Same levels
#: and periods, with and without the buddy-node mirror, so the only
#: difference is where the volatile copies live.
BLAST_PLANS: Dict[str, str] = {
    "no-partner": "tiered:ram@1,pfs@4",
    "partner": "partner:ram@1,partner@1,pfs@4",
}


@dataclass
class BlastRadiusRow:
    app: str
    plan: str
    kind: str  # "process" | "node"
    nranks: int
    nnodes: int
    failed_node: Optional[int]
    restarted_ranks: int
    rounds_at_failure: int  # rounds committed before the crash
    restarted_from_round: int
    restored_tier: Optional[str]
    invalidated_copies: int
    makespan_ns: int
    baseline_ns: int  # failure-free run on the same plan

    @property
    def lost_rounds(self) -> int:
        return self.rounds_at_failure - self.restarted_from_round

    @property
    def recovery_overhead_pct(self) -> float:
        return 100.0 * (self.makespan_ns - self.baseline_ns) / self.baseline_ns


def blastradius(
    apps: Sequence[str] = ("minighost",),
    k: Optional[int] = None,
    storage: Optional[str] = None,
    checkpoint_every: "int | str" = 2,
    frac: float = 0.6,
    fail_rank: int = 0,
    nranks: int = 128,
    ranks_per_node: int = 8,
    mtbf_ns: int = int(0.5 * SEC),
) -> List[BlastRadiusRow]:
    """Inject one process and one node failure per storage plan
    (:data:`BLAST_PLANS`, or the ``storage`` spec alone) and report how
    far each configuration rolls back.

    The probe run (failure-free, same plan) times the injection at
    ``frac`` of the makespan and tells us how many rounds had committed
    by then; the failure runs report the restart round, the tier it was
    read from, and the copies the node loss invalidated."""
    world = _paper_world(ranks_per_node)
    cm = ClusterMap.block(nranks, k or max(2, nranks // ranks_per_node))
    cadence = dict(checkpoint_every=checkpoint_every, mtbf_ns=mtbf_ns)
    plans = BLAST_PLANS if storage is None else {storage: storage}
    rows: List[BlastRadiusRow] = []
    for name in apps:
        app = app_factory(name)
        for plan_name, spec in plans.items():
            probe = run_spbc(
                app, nranks, cm, config=_checkpointing(name, cm, spec, **cadence),
                **world,
            )
            fail_at = max(1, int(probe.makespan_ns * frac))
            backend = probe.hooks.storage
            # A round is committed only once its write burst finished
            # (taken_at_ns stamps the burst's *start*): count rounds the
            # failure run could actually have restored.
            rounds_before = []
            for rnd in backend.rounds_of(fail_rank):
                ckpt = backend.restore_plan(fail_rank, rnd).ckpt
                committed_at = ckpt.taken_at_ns + backend.write_cost_ns(
                    ckpt, concurrent_writers=nranks
                )
                if committed_at < fail_at:
                    rounds_before.append(rnd)
            rounds_at_failure = max(rounds_before, default=0)
            for kind in ("process", "node"):
                out = run_online_failure(
                    app, nranks, cm,
                    fail_at_ns=fail_at, fail_rank=fail_rank,
                    config=_checkpointing(name, cm, spec, **cadence),
                    failure_kind=kind, **world,
                )
                ev = out.manager.failures[0]
                rows.append(
                    BlastRadiusRow(
                        app=name,
                        plan=plan_name,
                        kind=kind,
                        nranks=nranks,
                        nnodes=out.world.topology.nnodes,
                        failed_node=ev.node,
                        restarted_ranks=len(out.restarted_ranks),
                        rounds_at_failure=rounds_at_failure,
                        restarted_from_round=ev.restarted_from_round,
                        restored_tier=ev.restored_tier,
                        invalidated_copies=ev.invalidated_copies,
                        makespan_ns=out.makespan_ns,
                        baseline_ns=probe.makespan_ns,
                    )
                )
    return rows


# ----------------------------------------------------------------------
# Auto checkpoint interval — Young/Daly cadence vs the analytic optimum
# ----------------------------------------------------------------------

@dataclass
class AutoIntervalRow:
    app: str
    plan: str
    cluster: int
    every: int  # interval the cadence settled on (iterations)
    iter_ns: float  # measured iteration time
    ckpt_cost_ns: int  # modeled write cost per checkpoint
    t_opt_ns: int  # Young's sqrt(2*C*MTBF)
    commits: int
    mtbf_ns: int  # the MTBF the cadence was configured with

    @property
    def predicted_every(self) -> int:
        """The analytic interval in iterations, for comparison."""
        if self.iter_ns <= 0 or self.ckpt_cost_ns <= 0:
            return 1
        return optimal_interval_rounds(
            self.ckpt_cost_ns, self.mtbf_ns, self.iter_ns
        )


def auto_interval(
    apps: Sequence[str] = ("minighost",),
    k: Optional[int] = None,
    storage: str = "tiered:ram@1,pfs@4",
    mtbf_ns: int = int(0.5 * SEC),
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[AutoIntervalRow]:
    """Run with ``checkpoint_every="auto"`` and report, per cluster, the
    cadence the Young/Daly controller settled on next to the analytic
    optimum it was chasing."""
    cm = ClusterMap.block(nranks, k or max(2, nranks // ranks_per_node))
    rows: List[AutoIntervalRow] = []
    for name in apps:
        app = app_factory(name)
        cfg = _checkpointing(
            name, cm, storage, checkpoint_every="auto", mtbf_ns=mtbf_ns
        )
        res = run_spbc(app, nranks, cm, config=cfg, **_paper_world(ranks_per_node))
        for cluster, rep in res.hooks.auto_cadence_report().items():
            rows.append(
                AutoIntervalRow(
                    app=name,
                    plan=storage,
                    cluster=cluster,
                    every=rep["every"],
                    iter_ns=rep["iter_ns"],
                    ckpt_cost_ns=rep["ckpt_cost_ns"],
                    t_opt_ns=rep["t_opt_ns"],
                    commits=rep["commits"],
                    mtbf_ns=mtbf_ns,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Delta chains — incremental vs full checkpoint plans (bytes written,
# recovery cost with chain-aware restarts)
# ----------------------------------------------------------------------

#: Data-plane modes compared by the deltachain experiment: full payloads
#: every round vs deltas with periodic fulls and deflate-class
#: compression.
DELTACHAIN_MODES: Dict[str, str] = {
    "full": "full",
    "incr": "incr:4:zlib-like",
}

#: Default app pair: both have large read-mostly regions (the assembled
#: stiffness matrix; the gauge links), the regime where incremental
#: checkpoints pay.
DELTACHAIN_APPS = ("minife", "milc")


@dataclass
class DeltaChainRow:
    app: str
    mode: str  # key into DELTACHAIN_MODES
    nranks: int
    rounds: int  # checkpoint rounds committed in the probe run
    full_payloads: int
    delta_payloads: int
    raw_mb: float  # uncompressed bytes handed to the data plane
    written_mb: float  # bytes actually written across all tiers
    compress_ms_per_rank: float
    write_ms_per_rank: float
    makespan_ns: int  # failure-free makespan under this mode
    fail_makespan_ns: int  # makespan of the node-failure run
    restarted_from_round: int
    restored_tier: Optional[str]
    restore_read_ns: int  # chain-aware restart read burst


def deltachain(
    apps: Sequence[str] = DELTACHAIN_APPS,
    k: Optional[int] = None,
    storage: str = "tiered:ram@1,pfs@4",
    ckpt_data: Optional[str] = None,
    checkpoint_every: int = 2,
    frac: float = 0.85,
    fail_rank: int = 0,
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[DeltaChainRow]:
    """Compare checkpoint data-plane modes (:data:`DELTACHAIN_MODES`, or
    the ``ckpt_data`` spec next to "full") on the same app + storage plan.

    Per mode: a failure-free probe run reports the bytes the plan wrote
    (the scalability axis SPBC cares about), then a node failure at
    ``frac`` of the makespan exercises the chain-aware restart — a lost
    delta base must fall back to the newest round with a complete chain.
    """
    modes = {"full": "full", ckpt_data: ckpt_data} if ckpt_data else DELTACHAIN_MODES
    world = _paper_world(ranks_per_node)
    cm = ClusterMap.block(nranks, k or max(2, nranks // ranks_per_node))
    rows: List[DeltaChainRow] = []
    for name in apps:
        app = app_factory(name)
        profile = get_app(name).profile

        def cfg() -> SPBCConfig:
            return _checkpointing(name, cm, storage, checkpoint_every=checkpoint_every)

        for mode_name, spec in modes.items():
            probe = run_spbc(
                app, nranks, cm, config=cfg(), ckpt_data=spec, profile=profile,
                **world,
            )
            backend = probe.hooks.storage
            stats = probe.hooks.data_plane_report()
            fail_at = max(1, int(probe.makespan_ns * frac))
            out = run_online_failure(
                app, nranks, cm,
                fail_at_ns=fail_at, fail_rank=fail_rank,
                config=cfg(), ckpt_data=spec, profile=profile,
                failure_kind="node", **world,
            )
            ev = out.manager.failures[0]
            rows.append(
                DeltaChainRow(
                    app=name,
                    mode=mode_name,
                    nranks=nranks,
                    rounds=_rounds(backend, nranks),
                    full_payloads=stats["full_payloads"],
                    delta_payloads=stats["delta_payloads"],
                    raw_mb=stats["raw_bytes"] / 1e6,
                    written_mb=backend.bytes_written / 1e6,
                    compress_ms_per_rank=stats["compress_ns"] / nranks / 1e6,
                    write_ms_per_rank=backend.write_ns_total / nranks / 1e6,
                    makespan_ns=probe.makespan_ns,
                    fail_makespan_ns=out.makespan_ns,
                    restarted_from_round=ev.restarted_from_round,
                    restored_tier=ev.restored_tier,
                    restore_read_ns=ev.restore_read_ns,
                )
            )
    return rows


# ----------------------------------------------------------------------
# I/O overlap — sync vs async checkpoint flush on the event-driven
# scheduler: how much app stall the background PFS drain hides, and
# that a crash mid-flush restarts from the last fully drained round
# ----------------------------------------------------------------------

#: Apps with sizable modeled checkpoints (the regime where hiding the
#: PFS burst pays); both must show a strict stall reduction.
IOVERLAP_APPS = ("minife", "milc")


@dataclass
class IOverlapRow:
    app: str
    mode: str  # "sync" | "async"
    nranks: int
    rounds: int  # checkpoint rounds committed (max over ranks)
    stall_ms_per_rank: float  # time stalled inside coordinated ckpts
    write_ms_per_rank: float  # write time charged to the app clock
    bg_write_ms_per_rank: float  # background drain time (async only)
    peak_pfs_writers: int
    makespan_ns: int
    # Mid-flush node-failure run (async mode only; 0/None on sync rows).
    fail_at_ns: int = 0
    inflight_round: int = 0  # PFS round still draining at the crash
    last_drained_round: int = 0  # newest fully drained round before it
    restarted_from_round: int = 0
    cancelled_flushes: int = 0
    restored_tier: Optional[str] = None
    fail_makespan_ns: int = 0


def ioverlap(
    apps: Sequence[str] = IOVERLAP_APPS,
    k: Optional[int] = None,
    checkpoint_every: int = 1,
    pfs_period: int = 4,
    pfs_read_gb_s: Optional[float] = 24.0,
    storage: Optional[str] = None,
    fail_rank: int = 0,
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[IOverlapRow]:
    """Sync vs async checkpoint flush per app.

    Per app: a failure-free probe in each mode measures the per-rank
    checkpoint *stall* (async must shrink it — the PFS burst drains in
    the background overlapping compute), then a node failure injected
    mid-flush exercises the commit semantics: the in-flight PFS copy is
    cancelled with the node and recovery restarts from the last *fully
    drained* round, read back as overlapping flows.

    The built-in plan is RAM every round + PFS every ``pfs_period``-th,
    with a realistic asymmetric PFS read side for the restart path;
    ``storage`` replaces it with the spec string of a sync plan (the
    async variant is derived by appending ``:async``)."""
    if storage is not None and storage.endswith(":async"):
        raise ValueError(
            f"storage {storage!r}: pass the base (sync) plan; ioverlap "
            "derives the async variant itself"
        )
    world = _paper_world(ranks_per_node)
    cm = ClusterMap.block(nranks, k or max(2, nranks // ranks_per_node))
    rows: List[IOverlapRow] = []

    def cfg(name: str, async_flush: bool) -> SPBCConfig:
        if storage is not None:
            backend = storage + ":async" if async_flush else storage
        else:
            tiers = [ram_tier(), pfs_tier(read_gb_s=pfs_read_gb_s)]
            levels = MultiLevelPlan(tiers=tiers, periods=[1, pfs_period])
            backend = TieredBackend(levels, async_flush=async_flush)
        return _checkpointing(name, cm, backend, checkpoint_every=checkpoint_every)

    for name in apps:
        app = app_factory(name)
        probes: Dict[str, RunResult] = {}
        for mode, async_flush in (("sync", False), ("async", True)):
            res = run_spbc(app, nranks, cm, config=cfg(name, async_flush), **world)
            probes[mode] = res
            b = res.hooks.storage
            rows.append(
                IOverlapRow(
                    app=name,
                    mode=mode,
                    nranks=nranks,
                    rounds=_rounds(b, nranks),
                    stall_ms_per_rank=(
                        res.hooks.total_checkpoint_stall_ns() / nranks / 1e6
                    ),
                    write_ms_per_rank=b.write_ns_total / nranks / 1e6,
                    bg_write_ms_per_rank=(
                        getattr(b, "background_write_ns_total", 0) / nranks / 1e6
                    ),
                    peak_pfs_writers=res.hooks.peak_concurrent_pfs_writers(),
                    makespan_ns=res.makespan_ns,
                )
            )

        # Mid-flush failure against the async timeline: pick the latest
        # in-flight PFS window of the failing cluster that (a) starts
        # while the app is still running and (b) has a fully drained PFS
        # round before it to fall back to.
        arow = rows[-1]
        ab = probes["async"].hooks.storage
        members = set(cm.members(cm.cluster(fail_rank)))
        windows = [
            w for w in ab.shared_flow_windows() if w[2] in members
        ]
        # Per PFS round, when the cluster's *last* member finished.
        drained_at: Dict[int, int] = {}
        for _s, e, _r, rnd in windows:
            drained_at[rnd] = max(drained_at.get(rnd, 0), e)
        target = None
        for start, end, _rank, rnd in sorted(windows):
            mid = (start + end) // 2
            if mid >= int(probes["async"].makespan_ns * 0.9):
                continue
            drained = [
                r for r, at in drained_at.items() if at < mid and r != rnd
            ]
            if drained:
                target = (mid, rnd, max(drained))
        if target is None:
            continue  # app too short for a two-PFS-round story
        fail_at, inflight_round, last_drained = target
        out = run_online_failure(
            app, nranks, cm,
            fail_at_ns=fail_at, fail_rank=fail_rank,
            config=cfg(name, True), failure_kind="node", **world,
        )
        ev = out.manager.failures[0]
        arow.fail_at_ns = fail_at
        arow.inflight_round = inflight_round
        arow.last_drained_round = last_drained
        arow.restarted_from_round = ev.restarted_from_round
        arow.cancelled_flushes = ev.cancelled_flushes
        arow.restored_tier = ev.restored_tier
        arow.fail_makespan_ns = out.makespan_ns
    return rows


# ----------------------------------------------------------------------
# Ablations — the paper's design arguments, one app each (the row's
# title names the committed one): the clustering strategy (sections
# 6.2/6.6), containment vs logging (2.2/6.6), contained vs global
# rollback online (1-2), and the replay pre-post window (5.2.2)
# ----------------------------------------------------------------------

def _one_app(apps: Sequence[str]) -> str:
    if len(apps) != 1:
        raise ValueError(f"an ablation studies one app, got {', '.join(apps)}")
    return apps[0]


@dataclass
class ClusteringRow:
    strategy: str
    cut_mib: float  # inter-cluster volume
    avg: float  # per-rank log growth (MB/s)
    max: float


def clustering_comparison(
    apps: Sequence[str] = ("minighost",),
    k: int = 8,
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[ClusteringRow]:
    """The communication-driven partitioner against naive block and
    round-robin-over-nodes maps of ``k`` clusters, on the logged volume."""
    run = make_logging_run(_one_app(apps), nranks, ranks_per_node)
    strategies = {
        "comm-driven": run.clustering_for(k),
        "block": ClusterMap.block(nranks, k),
        "round-robin(nodes)": ClusterMap(
            [(r // ranks_per_node) % k for r in range(nranks)]
        ),
    }
    rows: List[ClusteringRow] = []
    for name, cm in strategies.items():
        logged = run.per_rank_logged_bytes(cm)
        rows.append(
            ClusteringRow(
                strategy=name,
                cut_mib=cut_bytes(run.pair_bytes, cm.cluster_of) / 2**20,
                avg=mb_per_s(int(sum(logged) / nranks), run.duration_ns),
                max=mb_per_s(max(logged), run.duration_ns),
            )
        )
    return rows


@dataclass
class ContainmentRow:
    clusters: int
    rolled_back: int  # ranks one failure rolls back
    avg: float  # per-rank log growth (MB/s)


def containment_sweep(
    apps: Sequence[str] = ("milc",),
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[ContainmentRow]:
    """Smaller clusters roll fewer ranks back but log more: the hybrid
    design's trade-off, from one logging run."""
    run = make_logging_run(_one_app(apps), nranks, ranks_per_node)
    rows: List[ContainmentRow] = []
    for k in (2, 4, 8, 16):
        if k > nranks:
            continue
        logged = run.per_rank_logged_bytes(run.clustering_for(k))
        rows.append(
            ContainmentRow(
                clusters=k,
                rolled_back=nranks // k,
                avg=mb_per_s(int(sum(logged) / nranks), run.duration_ns),
            )
        )
    return rows


#: Online recovery re-executes the lost segment for real: a shorter milc
#: than Table 1's keeps the sweep to seconds.
ONLINE_OVERRIDES: Dict[str, dict] = {"milc": dict(iters=6, compute_ns=2_000_000)}


@dataclass
class OnlineRow:
    clusters: int
    restarted: int  # ranks the crash rolled back
    slowdown: float  # makespan / failure-free


def online_comparison(
    apps: Sequence[str] = ("milc",),
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[OnlineRow]:
    """A crash of rank 0 at 60% of the run, recovered online under block
    maps of 1, 2, 4 and 8 clusters: k=1 is coordinated checkpointing's
    global rollback, larger k SPBC's contained one.  Every recovered run
    must compute what the native run computed."""
    name = _one_app(apps)
    app = app_factory(name, ONLINE_OVERRIDES.get(name))
    world = _paper_world(ranks_per_node)
    native = run_native(app, nranks, **world)
    rows: List[OnlineRow] = []
    for k in (1, 2, 4, 8):
        cm = ClusterMap.block(nranks, k)
        out = run_online_failure(
            app, nranks, cm,
            fail_at_ns=int(native.makespan_ns * 0.6),
            config=SPBCConfig(clusters=cm, checkpoint_every=2),
            **world,
        )
        assert out.results == native.results, f"{name}@{k}: results differ"
        rows.append(
            OnlineRow(
                clusters=k,
                restarted=len(out.restarted_ranks),
                slowdown=out.makespan_ns / native.makespan_ns,
            )
        )
    return rows


@dataclass
class WindowRow:
    window: int
    normalized: float  # rework / failure-free


def window_sweep(
    apps: Sequence[str] = ("minighost",),
    k: int = 8,
    nranks: int = 128,
    ranks_per_node: int = 8,
) -> List[WindowRow]:
    """Emulated recovery of one ``k``-cluster run per replay pre-post
    window (the paper posts up to 50 sends ahead).  The deadlock a window
    below the log's reordering depth causes is a unit-scale test
    (``tests/core/test_window_stress.py``)."""
    name = _one_app(apps)
    app = app_factory(name)
    world = _paper_world(ranks_per_node)
    native = run_native(app, nranks, **world)
    run = make_logging_run(name, nranks, ranks_per_node)
    cm = run.clustering_for(k)
    plan = ReplayPlan.from_run(run.result.hooks, run.duration_ns, clusters=cm)
    rows: List[WindowRow] = []
    for w in (1, 5, 50, 200):
        rec = run_emulated_recovery(
            app, nranks, cm, plan,
            reference_ns=native.makespan_ns, window=w, **world,
        )
        rows.append(WindowRow(window=w, normalized=rec.normalized))
    return rows


# ----------------------------------------------------------------------
# The experiment table: one row per committed artefact
# ----------------------------------------------------------------------

#: A table cell: the name of a row attribute, or a function of the row.
Cell = Union[str, Callable[[Any], object]]


def _cell(cell: Cell, row) -> object:
    return getattr(row, cell) if isinstance(cell, str) else cell(row)


def _pivot(rows: Sequence, columns: Dict[str, Cell], across: str):
    """Lay ``rows`` out as one line per value of the first column and,
    per value of attribute ``across``, one group of the other columns
    (their headers are patterns filled with that value); a missing
    combination shows as nan."""
    (first, key), *cells = columns.items()
    by = {(_cell(key, r), getattr(r, across)): r for r in rows}
    groups = sorted({g for _, g in by})
    headers = [first] + [h.format(g) for g in groups for h, _ in cells]
    body = [
        [line] + [
            _cell(c, by[line, g]) if (line, g) in by else float("nan")
            for g in groups for _, c in cells
        ]
        for line in sorted({line for line, _ in by})
    ]
    return headers, body


@dataclass(frozen=True)
class Experiment:
    """One committed artefact: how to regenerate it and how to print it.

    ``driver``'s defaults are the committed arguments; ``args`` holds
    the ones an artefact differs by when it shares a driver.  ``flags``
    names the driver keywords the CLI may set (each is a flag's argparse
    dest, and its parsed value is passed as is).  ``columns`` maps each
    header to a :data:`Cell`; with ``pivot`` the first column keys the
    lines and the others repeat once per value of that attribute.
    ``artefact`` names the results JSON when it is not the command, and
    ``record`` turns a row into its JSON object there (by default, the
    row's fields)."""

    driver: Callable[..., list]
    title: str
    columns: Dict[str, Cell]
    float_fmt: str = "{:.3f}"
    args: Dict[str, Any] = field(default_factory=dict)
    flags: AbstractSet[str] = frozenset()
    pivot: Optional[str] = None
    artefact: Optional[str] = None
    record: Callable[[Any], Dict[str, Any]] = asdict

    def run(self, **kwargs) -> list:
        """The driver's rows; ``kwargs`` (scale, apps, flag keywords)
        override the committed arguments."""
        return self.driver(**{**self.args, **kwargs})

    def render(self, rows: Sequence) -> str:
        if self.pivot:
            headers, body = _pivot(rows, self.columns, self.pivot)
        else:
            headers = list(self.columns)
            body = [[_cell(c, r) for c in self.columns.values()] for r in rows]
        return format_table(headers, body, title=self.title, float_fmt=self.float_fmt)


_TABLE2 = Experiment(
    table2_failure_free_overhead,
    "Table 2: failure-free overhead of SPBC",
    {"app": "app", "clusters": "k",
     "native (ms)": lambda r: r.native_ns / 1e6,
     "SPBC (ms)": lambda r: r.spbc_ns / 1e6, "overhead %": "overhead_pct"},
    record=lambda r: dict(app=r.app, clusters=r.k, native_ms=r.native_ns / 1e6,
                          spbc_ms=r.spbc_ns / 1e6, overhead_pct=r.overhead_pct),
)

#: Every artefact ``python -m repro`` and ``pytest benchmarks/`` produce.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        table1_log_growth,
        "Table 1: log growth rate per process (MB/s)",
        {"clusters": "k", "{}.avg": "avg_mb_s", "{}.max": "max_mb_s"},
        float_fmt="{:.2f}",
        pivot="app",
        record=lambda r: dict(app=r.app, clusters=r.k, avg=r.avg_mb_s,
                              max=r.max_mb_s, min=r.min_mb_s),
    ),
    "table2": _TABLE2,
    # Section 6.3's sweep: one app is enough for the trend.
    "table2_sweep": replace(
        _TABLE2, args=dict(apps=("minighost",), ks=(2, 4, 8, 16)),
        record=lambda r: dict(app=r.app, clusters=r.k, overhead_pct=r.overhead_pct),
    ),
    "fig5": Experiment(
        fig5_recovery,
        "Figure 5: recovery time normalized to failure-free execution "
        "(MPICH native = 1.0)",
        {"app": "app", "{} clusters": "normalized"},
        pivot="k",
        record=lambda r: dict(app=r.app, clusters=r.k, normalized=r.normalized,
                              rework_ms=r.rework_ns / 1e6,
                              native_ms=r.native_ns / 1e6,
                              replayed=r.replayed_records),
    ),
    "fig6": Experiment(
        fig6_hydee_vs_spbc,
        "Figure 6: recovery time normalized to failure-free "
        "(8 clusters, NAS benchmarks)",
        {"app": "app", "SPBC": "spbc_normalized", "HydEE": "hydee_normalized",
         "HydEE/SPBC": lambda r: r.hydee_normalized / r.spbc_normalized,
         "replayed msgs": "records"},
        record=lambda r: dict(app=r.app, spbc=r.spbc_normalized,
                              hydee=r.hydee_normalized, grants=r.hydee_grants,
                              records=r.records),
    ),
    "ckptcost": Experiment(
        checkpoint_cost,
        "Checkpoint cost: tier plans x cluster counts "
        "(write time charged to the simulation clock)",
        {"app": "app", "clusters": "k", "plan": "plan", "rounds": "rounds",
         "ckpt MB (avg)": "ckpt_mb_avg", "write ms/rank": "write_ms_per_rank",
         "makespan (ms)": lambda r: r.makespan_ns / 1e6,
         "slowdown %": "slowdown_pct"},
        flags={"storage"},
        artefact="checkpoint_cost",
        record=lambda r: dict(app=r.app, clusters=r.k, plan=r.plan,
                              nranks=r.nranks, rounds=r.rounds,
                              ckpt_mb_avg=r.ckpt_mb_avg,
                              write_ms_per_rank=r.write_ms_per_rank,
                              makespan_ms=r.makespan_ns / 1e6,
                              slowdown_pct=r.slowdown_pct),
    ),
    "blastradius": Experiment(
        blastradius,
        "Blast radius: per-node failures vs storage plans "
        "(partner copies survive a single-node loss)",
        {"app": "app", "plan": "plan", "kind": "kind",
         "node": lambda r: "-" if r.failed_node is None else r.failed_node,
         "restarted": "restarted_ranks", "rounds": "rounds_at_failure",
         "from": "restarted_from_round", "lost": "lost_rounds",
         "tier": lambda r: r.restored_tier or "scratch",
         "invalidated": "invalidated_copies",
         "recovery %": "recovery_overhead_pct"},
        float_fmt="{:.2f}",
        flags={"storage", "checkpoint_every", "mtbf_ns"},
        record=lambda r: dict(app=r.app, plan=r.plan, kind=r.kind,
                              nranks=r.nranks, nnodes=r.nnodes,
                              failed_node=r.failed_node,
                              restarted_ranks=r.restarted_ranks,
                              rounds_at_failure=r.rounds_at_failure,
                              restarted_from_round=r.restarted_from_round,
                              lost_rounds=r.lost_rounds,
                              restored_tier=r.restored_tier,
                              invalidated_copies=r.invalidated_copies,
                              recovery_overhead_pct=r.recovery_overhead_pct),
    ),
    "auto_interval": Experiment(
        auto_interval,
        "Auto checkpoint interval: Young/Daly cadence vs the "
        "analytic optimum (checkpoint_every='auto')",
        {"app": "app", "cluster": "cluster", "every": "every",
         "predicted": "predicted_every", "iter (ms)": lambda r: r.iter_ns / 1e6,
         "ckpt cost (ms)": lambda r: r.ckpt_cost_ns / 1e6,
         "T_opt (ms)": lambda r: r.t_opt_ns / 1e6, "commits": "commits"},
        flags={"storage", "mtbf_ns"},
        record=lambda r: dict(app=r.app, plan=r.plan, cluster=r.cluster,
                              every=r.every, predicted_every=r.predicted_every,
                              iter_ns=r.iter_ns, ckpt_cost_ns=r.ckpt_cost_ns,
                              t_opt_ns=r.t_opt_ns, commits=r.commits),
    ),
    "deltachain": Experiment(
        deltachain,
        "Delta chains: incremental vs full checkpoint payloads "
        "(bytes written, chain-aware restart)",
        {"app": "app", "mode": "mode", "rounds": "rounds",
         "full": "full_payloads", "delta": "delta_payloads", "raw MB": "raw_mb",
         "written MB": "written_mb", "compress ms/rk": "compress_ms_per_rank",
         "write ms/rk": "write_ms_per_rank",
         "makespan (ms)": lambda r: r.makespan_ns / 1e6,
         "from": "restarted_from_round",
         "tier": lambda r: r.restored_tier or "scratch",
         "restore read (ms)": lambda r: r.restore_read_ns / 1e6},
        flags={"ckpt_data", "storage"},
        record=lambda r: dict(app=r.app, mode=r.mode, nranks=r.nranks,
                              rounds=r.rounds, full_payloads=r.full_payloads,
                              delta_payloads=r.delta_payloads, raw_mb=r.raw_mb,
                              written_mb=r.written_mb,
                              compress_ms_per_rank=r.compress_ms_per_rank,
                              write_ms_per_rank=r.write_ms_per_rank,
                              makespan_ms=r.makespan_ns / 1e6,
                              fail_makespan_ms=r.fail_makespan_ns / 1e6,
                              restarted_from_round=r.restarted_from_round,
                              restored_tier=r.restored_tier,
                              restore_read_ms=r.restore_read_ns / 1e6),
    ),
    "ioverlap": Experiment(
        ioverlap,
        "I/O overlap: sync vs async checkpoint flush "
        "(background PFS drain; crash mid-flush restarts from the "
        "last drained round)",
        {"app": "app", "mode": "mode", "rounds": "rounds",
         "stall ms/rk": "stall_ms_per_rank", "write ms/rk": "write_ms_per_rank",
         "bg ms/rk": "bg_write_ms_per_rank", "peak pfs": "peak_pfs_writers",
         "makespan (ms)": lambda r: r.makespan_ns / 1e6,
         "inflight": lambda r: r.inflight_round or "-",
         "drained": lambda r: r.last_drained_round or "-",
         "from": lambda r: r.restarted_from_round or "-",
         "cancelled": lambda r: r.cancelled_flushes or "-",
         "tier": lambda r: r.restored_tier or "-"},
        flags={"storage"},
        record=lambda r: dict(app=r.app, mode=r.mode, nranks=r.nranks,
                              rounds=r.rounds,
                              stall_ms_per_rank=r.stall_ms_per_rank,
                              write_ms_per_rank=r.write_ms_per_rank,
                              bg_write_ms_per_rank=r.bg_write_ms_per_rank,
                              peak_pfs_writers=r.peak_pfs_writers,
                              makespan_ms=r.makespan_ns / 1e6,
                              fail_at_ms=r.fail_at_ns / 1e6,
                              inflight_round=r.inflight_round,
                              last_drained_round=r.last_drained_round,
                              restarted_from_round=r.restarted_from_round,
                              cancelled_flushes=r.cancelled_flushes,
                              restored_tier=r.restored_tier,
                              fail_makespan_ms=r.fail_makespan_ns / 1e6),
    ),
    "ablation_clustering": Experiment(
        clustering_comparison,
        "Ablation: clustering strategy (minighost, 8 clusters)",
        {"strategy": "strategy", "cut (MiB)": "cut_mib", "avg MB/s": "avg",
         "max MB/s": "max"},
        float_fmt="{:.2f}",
    ),
    "ablation_containment": Experiment(
        containment_sweep,
        "Ablation: failure containment vs logging (milc)",
        {"clusters": "clusters", "ranks rolled back": "rolled_back",
         "avg log MB/s": "avg"},
        float_fmt="{:.2f}",
    ),
    "ablation_online": Experiment(
        online_comparison,
        "Ablation: online recovery — contained vs global rollback (milc)",
        {"clusters": "clusters", "ranks restarted": "restarted",
         "makespan / failure-free": "slowdown"},
    ),
    "ablation_window": Experiment(
        window_sweep,
        "Ablation: replay pre-post window (minighost, 8 clusters)",
        {"window": "window", "normalized rework": "normalized"},
        float_fmt="{:.4f}",
    ),
}
