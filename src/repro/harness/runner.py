"""Run orchestration: one path for protected runs, plus the reference
and emulated-recovery (paper §6.4) runners.

An SPBC execution is a function of its description — application, rank
count, cluster map, failure schedule (§3.4) — so there is one
description, :class:`RunSpec`, validated once in its constructor, and one
:func:`execute` that runs it on either engine and records it.  A
failure-free run is a failure schedule of length zero: ``run_spbc`` and
``run_online_failure`` are sugar over :func:`run_failure_schedule`, which
builds the spec.

Application factories have the uniform signature

    app_factory(ctx: RankContext, state: dict | None) -> generator

``state=None`` means a fresh start; a dict is a checkpointed application
state to resume from (online recovery path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Sequence, Set, Tuple, Union

from repro.ckptdata.plane import CkptDataPlane, parse_ckpt_data
from repro.ckptdata.regions import WriteLocalityProfile
from repro.core.clusters import ClusterMap
from repro.core.emulated import ReplayPlan, replayer_process, DEFAULT_PREPOST_WINDOW
from repro.core.protocol import SPBC, SPBCConfig
from repro.core.recovery import FAILURE_KINDS, RecoveryManager
from repro.journal.recorder import (
    build_header,
    commit_history_of,
    finalize_run,
    log_counters_of,
    prepare_writer,
)
from repro.mpi.context import RankContext
from repro.mpi.hooks import NativeHooks, ProtocolHooks
from repro.mpi.runtime import World
from repro.obs import resolve_telemetry
from repro.sim.network import NetworkParams
from repro.sim.process import ProcessStatus
from repro.sim.warp import WarpConfig, WarpController
from repro.storage.backend import TieredBackend, make_backend

AppFactory = Callable[[RankContext, Optional[dict]], Generator]

StorageSpec = Union[str, TieredBackend, None]

CkptDataSpec = Union[str, CkptDataPlane, None]

#: Warp spec accepted by the runners: a WarpConfig, or a plain int
#: meaning WarpConfig(total_iters=<int>).
WarpSpec = Union[WarpConfig, int, None]


def _install_warp(world, warp: WarpSpec) -> None:
    if warp is None:
        return
    cfg = warp if isinstance(warp, WarpConfig) else WarpConfig(total_iters=warp)
    world.warp = WarpController(world, cfg)


def _resolve_run_telemetry(telemetry, warp: WarpSpec):
    """Resolve a runner's ``telemetry=`` spec, reconciled with warp.

    The steady-state detector refuses to jump while any non-sleep event
    is pending, so a live queue-depth sampler would pin a warp run in
    exact mode forever; sampling is dropped rather than warp."""
    tele = resolve_telemetry(telemetry)
    if tele.enabled and warp is not None and tele.sample_queue:
        tele.sample_queue = False
    return tele


@dataclass
class RunResult:
    """Outcome of a sequential run.  The observables carry the names
    :class:`~repro.harness.parallel.ShardedRunResult` and
    :class:`~repro.journal.ReplayResult` use, so consumers (the journal's
    ``end`` record first) read a result without asking which engine
    produced it.  ``manager`` is None only for unprotected runs
    (:func:`run_app`)."""

    world: World
    hooks: ProtocolHooks
    makespan_ns: int
    finish_ns: Dict[int, int]
    results: Dict[int, object]
    manager: Optional[RecoveryManager] = None

    @property
    def trace(self):
        return self.world.trace

    @property
    def events_executed(self) -> int:
        """Engine events the run executed — the name
        ``ShardedRunResult.events_executed`` carries."""
        return self.world.engine.events_executed

    @property
    def telemetry(self):
        """The run's telemetry sink (None when not requested) — same
        shape as ``ShardedRunResult.telemetry``."""
        tele = self.world.telemetry
        return tele if tele.enabled else None

    @property
    def failures(self) -> list:
        return self.manager.failures if self.manager is not None else []

    @property
    def restarts(self) -> Dict[int, int]:
        """rank -> number of restarts."""
        return dict(self.manager.restarts) if self.manager is not None else {}

    @property
    def restarted_ranks(self) -> Set[int]:
        return set(self.restarts)

    @property
    def log(self) -> Dict[int, Tuple[int, int]]:
        """rank -> (bytes_logged, records_logged)."""
        return log_counters_of(self.hooks)

    @property
    def commit_history(self) -> Dict[int, list]:
        """rank -> [(round_no, taken_at_ns)] for every committed round."""
        return commit_history_of(self.hooks)


#: A failure run returns the same type as a failure-free one.
OnlineResult = RunResult


@dataclass
class RecoveryResult:
    """Outcome of an emulated-recovery run (paper §6.4).

    ``rework_ns`` is the time for the recovering cluster to re-execute the
    lost segment; ``normalized`` divides by the reference failure-free
    time (the quantity plotted in Figures 5 and 6)."""

    world: World
    plan: ReplayPlan
    rework_ns: int
    reference_ns: int
    results: Dict[int, object]

    @property
    def normalized(self) -> float:
        return self.rework_ns / self.reference_ns


def _check_world(world: World, allow_killed: bool = False) -> None:
    for r, proc in world.processes.items():
        if proc.exception is not None:
            raise RuntimeError(f"rank {r} raised: {proc.exception!r}") from proc.exception
        if proc.status is not ProcessStatus.DONE and not allow_killed:
            raise RuntimeError(f"rank {r} ended as {proc.status}")


def _collect(world: World, manager: Optional[RecoveryManager] = None) -> RunResult:
    """The result of a world that ran to completion."""
    _check_world(world)
    finish = {r: p.finish_time for r, p in world.processes.items()}
    return RunResult(
        world=world,
        hooks=world.hooks,
        makespan_ns=max(finish.values()),
        finish_ns=finish,
        results={r: p.result for r, p in world.processes.items()},
        manager=manager,
    )


def run_app(
    app_factory: AppFactory,
    nranks: int,
    hooks: Optional[ProtocolHooks] = None,
    ranks_per_node: int = 8,
    seed: int = 0,
    net_params: Optional[NetworkParams] = None,
    trace: bool = True,
    until_ns: Optional[int] = None,
    warp: WarpSpec = None,
    telemetry=None,
) -> RunResult:
    """Launch ``app_factory`` on every rank and run to completion.

    ``warp`` opts into steady-state fast-forward (see
    :mod:`repro.sim.warp`): pass the app's total iteration count (or a
    :class:`WarpConfig`).  Default None = exact mode.

    ``telemetry`` opts into metrics/timeline recording (see
    :mod:`repro.obs`); the default None costs nothing."""
    world = World(
        nranks,
        ranks_per_node=ranks_per_node,
        hooks=hooks,
        seed=seed,
        net_params=net_params,
        trace=trace,
        telemetry=_resolve_run_telemetry(telemetry, warp),
    )
    _install_warp(world, warp)
    for r in range(nranks):
        world.launch(r, app_factory(RankContext(world, r), None))
    world.run(until_ns=until_ns)
    return _collect(world)


def run_native(app_factory: AppFactory, nranks: int, **kw) -> RunResult:
    """Reference run with unmodified MPI (the paper's normalization base)."""
    return run_app(app_factory, nranks, hooks=NativeHooks(), **kw)


def run_emulated_recovery(
    app_factory: AppFactory,
    nranks: int,
    clusters: ClusterMap,
    plan: ReplayPlan,
    reference_ns: Optional[int] = None,
    window: int = DEFAULT_PREPOST_WINDOW,
    hooks: Optional[SPBC] = None,
    ranks_per_node: int = 8,
    seed: int = 0,
    net_params: Optional[NetworkParams] = None,
    trace: bool = False,
) -> RecoveryResult:
    """Phase 2 of the paper's recovery methodology.

    Ranks of the recovering cluster re-execute the application; all other
    ranks replay their logged messages (pre-post window per §5.2.2).
    ``reference_ns`` defaults to the plan's failure-free time.
    """
    if window < 1:
        raise ValueError("pre-post window must be >= 1")
    if hooks is None:
        hooks = SPBC(
            SPBCConfig(
                clusters=clusters, emulated_recovering=set(plan.recovering_ranks)
            )
        )
    world = World(
        nranks,
        ranks_per_node=ranks_per_node,
        hooks=hooks,
        seed=seed,
        net_params=net_params,
        trace=trace,
    )
    for r in range(nranks):
        ctx = RankContext(world, r)
        if r in plan.recovering_ranks:
            world.launch(r, app_factory(ctx, None))
        else:
            records = plan.records_by_sender.get(r, [])
            world.launch(r, replayer_process(ctx, records, window=window))
    world.run()
    _check_world(world)
    rework = max(world.processes[r].finish_time for r in plan.recovering_ranks)
    return RecoveryResult(
        world=world,
        plan=plan,
        rework_ns=rework,
        reference_ns=reference_ns or plan.failure_free_ns,
        results={r: p.result for r, p in world.processes.items()},
    )


# ----------------------------------------------------------------------
# Protected runs: one description, one path
# ----------------------------------------------------------------------

#: One scheduled crash: (time_ns, target rank, failure kind).
FailureSpec = Tuple[int, int, str]


@dataclass(frozen=True)
class RunSpec:
    """What a protected execution is a function of.  Every field and its
    default is declared here and nowhere else, and the constructor
    validates them: a malformed description fails before any engine,
    worker process or journal file exists.  The journal header is this
    object serialised (``build_header`` / ``spec_from_header``).

    ``schedule`` is a sequence of ``(at_ns, rank, kind)`` crashes, each
    followed by full online recovery (Algorithm 1 lines 16-26); empty
    means failure-free.  ``kind="node"`` kills the physical node hosting
    ``rank`` (see :class:`~repro.core.recovery.RecoveryManager`).

    ``storage`` selects the checkpoint store (a spec string like
    ``"tiered:ram@1,pfs@4"`` or a ``TieredBackend``); ``ckpt_data``
    selects the incremental data plane (``"full"``/``"incr:4:zlib-like"``
    or a ``CkptDataPlane``) with ``profile`` as the app's write-locality
    regions.  Both only matter when ``config.checkpoint_every`` is set.

    ``warp`` opts into steady-state fast-forward (an iteration count or
    a :class:`WarpConfig`, see :mod:`repro.sim.warp`).  Pending failure
    events veto the detector, so under a schedule it can only engage
    after the last crash has been fully recovered."""

    app_factory: AppFactory
    nranks: int
    clusters: ClusterMap
    config: Optional[SPBCConfig] = None  # None = SPBCConfig(clusters=clusters)
    schedule: Sequence[FailureSpec] = ()
    restart_delay_ns: int = 2_000_000
    ranks_per_node: int = 8
    seed: int = 0
    net_params: Optional[NetworkParams] = None
    trace: bool = True
    storage: StorageSpec = None
    ckpt_data: CkptDataSpec = None
    profile: Optional[WriteLocalityProfile] = None
    warp: WarpSpec = None

    def __post_init__(self) -> None:
        if self.clusters.nranks != self.nranks:
            raise ValueError(
                f"clusters: the map covers {self.clusters.nranks} ranks, "
                f"nranks is {self.nranks}"
            )
        if self.config is None:
            object.__setattr__(self, "config", SPBCConfig(clusters=self.clusters))
        elif self.config.clusters != self.clusters:
            # The config's map is the one the protocol simulates; a
            # disagreeing one would silently override the argument.
            raise ValueError("config.clusters disagrees with the clusters argument")
        if self.restart_delay_ns < 0:
            raise ValueError(
                f"restart_delay_ns must be >= 0, got {self.restart_delay_ns}"
            )
        object.__setattr__(self, "schedule", tuple(tuple(e) for e in self.schedule))
        for i, (at_ns, rank, kind) in enumerate(self.schedule):
            if not 0 <= rank < self.nranks:
                raise ValueError(
                    f"schedule[{i}]: rank {rank} is outside [0, {self.nranks})"
                )
            if at_ns < 0:
                raise ValueError(f"schedule[{i}]: negative instant {at_ns}")
            if kind not in FAILURE_KINDS:
                raise ValueError(
                    f"schedule[{i}]: unknown failure kind {kind!r} "
                    f"(valid kinds: {', '.join(FAILURE_KINDS)})"
                )


def _resolve_specs(spec: RunSpec) -> None:
    """Install ``spec.storage`` and ``spec.ckpt_data`` into
    ``spec.config``, in place.  Spec strings go through the registries
    (:func:`make_backend`, :func:`parse_ckpt_data` with ``spec.profile``
    as the app's write-locality regions); live objects are used as-is."""
    cfg, storage, ckpt_data = spec.config, spec.storage, spec.ckpt_data
    if storage is not None:
        if cfg.storage is not None:
            raise ValueError(
                "storage backend supplied both via config.storage and the "
                "storage argument"
            )
        cfg.storage = make_backend(storage) if isinstance(storage, str) else storage
    if ckpt_data is not None:
        if cfg.ckpt_data is not None:
            raise ValueError(
                "checkpoint data plane supplied both via config.ckpt_data and "
                "the ckpt_data argument"
            )
        if isinstance(ckpt_data, str):
            ckpt_data = parse_ckpt_data(ckpt_data, profile=spec.profile)
        cfg.ckpt_data = ckpt_data


def build_world(
    spec: RunSpec,
    sink,
    telemetry,
    ranks=None,
    world_cls=World,
    manager_cls=RecoveryManager,
) -> Tuple[World, RecoveryManager]:
    """Construct, launch and arm the world ``spec`` describes — the one
    place either engine builds a protected run.  The recovery manager is
    always installed (it is passive until a scheduled crash fires).
    ``sink`` receives the journal events (None = not recording); a shard
    passes the ``ranks`` it executes and its ``World``/``RecoveryManager``
    subclasses (see :mod:`repro.sim.shard`)."""
    hooks = SPBC(spec.config)
    hooks.journal = sink
    world = world_cls(
        spec.nranks,
        ranks_per_node=spec.ranks_per_node,
        hooks=hooks,
        seed=spec.seed,
        net_params=spec.net_params,
        trace=spec.trace,
        telemetry=telemetry,
    )
    _install_warp(world, spec.warp)
    manager = manager_cls(
        world,
        hooks,
        spec.app_factory,
        restart_delay_ns=spec.restart_delay_ns,
    )
    manager.journal = sink
    for r in range(spec.nranks) if ranks is None else ranks:
        world.launch(r, spec.app_factory(RankContext(world, r), None))
    for at_ns, rank, kind in spec.schedule:
        manager.inject_failure(at_ns, rank, kind=kind)
    return world, manager


def execute(spec: RunSpec, shards: Optional[int] = None, journal=None, telemetry=None):
    """Run ``spec`` and return its result — the single site that picks
    the engine, states what the engines exclude, and records the run;
    every rejection happens before a journal file or a worker exists.

    ``shards=N`` (N > 1) splits the run over N conservative PDES worker
    processes and returns the merged
    :class:`~repro.harness.parallel.ShardedRunResult`, bit-identical in
    its observables to the single-process :class:`RunResult`.

    ``journal`` (a path, or a :class:`repro.journal.JournalWriter`)
    records the run for strict replay, crash-resume and metric
    projection (see :mod:`repro.journal`); both engines journal the same
    canonical event stream.  It requires spec-string
    ``storage``/``ckpt_data`` (a live backend cannot be serialised).

    ``telemetry`` opts into metrics/timeline recording (see
    :mod:`repro.obs`); the default None costs nothing."""
    sharded = shards is not None and shards != 1
    if sharded:
        from repro.harness.parallel import partition_shards, run_sharded

        parts = partition_shards(spec.clusters, shards)  # 1 <= shards <= nclusters
        if spec.warp is not None:
            raise ValueError(
                "warp and shards are mutually exclusive: the steady-state "
                "detector needs the globally ordered event stream"
            )
        if spec.net_params is not None and spec.net_params.jitter_max_ns > 0:
            raise ValueError(
                "sharded runs require jitter_max_ns=0: per-packet jitter "
                "draws depend on global event order and would diverge"
            )
    # The header records the spec strings themselves, so it is built
    # before they are resolved into live objects — and the file is only
    # opened once nothing can reject the run any more.
    header = None
    if journal is not None:
        header = build_header(spec, recorded_shards=shards if sharded else None)
    _resolve_specs(spec)
    writer = None if journal is None else prepare_writer(journal, header)
    if sharded:
        result, worker_events = run_sharded(spec, parts, writer is not None, telemetry)
    else:
        world, manager = build_world(
            spec, writer, _resolve_run_telemetry(telemetry, spec.warp)
        )
        world.run()
        result = _collect(world, manager)
        worker_events = ()
    if writer is not None:
        finalize_run(writer, result, worker_events)
    return result


def run_failure_schedule(
    app_factory: AppFactory,
    nranks: int,
    clusters: ClusterMap,
    schedule: Sequence[FailureSpec],
    *,
    shards: Optional[int] = None,
    journal=None,
    telemetry=None,
    **spec_fields,
):
    """Run under SPBC with an arbitrary schedule of process/node crashes
    and full online recovery after each: ``spec_fields`` are the
    remaining :class:`RunSpec` fields, the rest goes to :func:`execute`."""
    spec = RunSpec(app_factory, nranks, clusters, schedule=schedule, **spec_fields)
    return execute(spec, shards=shards, journal=journal, telemetry=telemetry)


def run_spbc(app_factory: AppFactory, nranks: int, clusters: ClusterMap, **kw):
    """Failure-free run under SPBC (logging + identifiers active): the
    empty failure schedule."""
    return run_failure_schedule(app_factory, nranks, clusters, (), **kw)


def run_online_failure(
    app_factory: AppFactory, nranks: int, clusters: ClusterMap, fail_at_ns: int,
    fail_rank: int = 0, failure_kind: str = "process", **kw,
):
    """Run with a single crash at ``fail_at_ns`` and full online
    recovery: a one-entry failure schedule."""
    entry = (fail_at_ns, fail_rank, failure_kind)
    return run_failure_schedule(app_factory, nranks, clusters, [entry], **kw)
