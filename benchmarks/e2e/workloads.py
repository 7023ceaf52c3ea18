"""The benchmark's five workloads.

Each workload is built from ``(nranks, seed)`` into a :class:`Prepared`:
the public entry call one repetition makes, how its *simulated*
observables are read, and which reference equalities they must satisfy.
Every timing the benchmark reports is host time; simulated statistics
are deterministic and serve only as the correctness oracle.

Importing this module imports ``repro`` — the child processes of
``run.py`` do that inside their ``setup.import`` span.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from metrics import COUNT_NAMES
from repro.apps.synthetic import halo2d_app, ring_app
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness import experiments
from repro.harness.runner import run_failure_schedule, run_native, run_spbc
from repro.journal.format import canonical_json
from repro.journal.recorder import (
    commit_history_of,
    end_record,
    jsonable,
    log_counters_of,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Rank count of the warm-up run and of every ``--smoke`` workload.
SMALL_RANKS = 64


@dataclass
class Prepared:
    """One workload, ready to repeat."""

    #: One repetition: the workload's public entry call(s).
    run: Callable[[], Any]
    #: Simulated observables of a repetition's result (JSON-able).
    observe: Callable[[Any], dict]
    #: The reference runs/files the checks compare against (part of
    #: set-up; called once, before the first repetition).
    reference: Callable[[], None] = lambda: None
    #: Reference equalities beyond the digest; returns the problems found.
    check: Callable[[Any], List[str]] = lambda result: []
    #: Exact counts of a repetition's result (see COUNT_NAMES).
    counts: Callable[[Any], Dict[str, int]] = lambda result: {}
    #: The single-process twin of a sharded workload (speed-up pair and
    #: the source of the pinned digest); None for the rest.
    run_sequential: Optional[Callable[[], Any]] = None
    #: True when ``--seed`` changes this workload's inputs.
    seeded: bool = False
    #: Spans/counts hooks around the public calls inside one repetition
    #: (traced pass only).
    instrument: Callable[[Any, "Harvest"], contextlib.AbstractContextManager] = (
        lambda spans, harvest: contextlib.nullcontext()
    )


@dataclass
class Workload:
    name: str
    why: str
    nranks: int
    #: Timed repetitions when neither ``--reps`` nor ``--seconds`` is given.
    reps: int
    build: Callable[[int, int], Prepared] = field(repr=False)


def digest(observables: dict) -> str:
    """Stable digest of a repetition's simulated observables."""
    return hashlib.sha256(canonical_json(jsonable(observables)).encode()).hexdigest()


# ----------------------------------------------------------------------
# Observables and counts of the runners' three result types
# ----------------------------------------------------------------------

def _is_sharded(res) -> bool:
    return not hasattr(res, "world")


def _hooks(res):
    return res.hooks if hasattr(res, "hooks") else res.world.hooks


def _recovery(res):
    """Whatever carries ``failures``/``restarts``: the sharded result
    itself, a failure run's manager, or None for a failure-free run."""
    return res if _is_sharded(res) else getattr(res, "manager", None)


def _failures(res) -> list:
    return list(getattr(_recovery(res), "failures", ()))


def _restarts(res) -> Dict[int, int]:
    return dict(getattr(_recovery(res), "restarts", {}))


def _commit_history(res):
    hooks = _hooks(res)
    if _is_sharded(res):
        return res.commit_history
    if not hasattr(hooks, "storage"):  # native hooks: nothing commits
        return {}
    return commit_history_of(hooks)


def run_observables(res) -> dict:
    """The simulated observables the digest covers — the journal's
    ``end`` record (makespan, per-rank finish/results/log counters,
    restarts, commit history) plus the logged total and each failure's
    restart facts.  Engine event counts are deliberately left out: a
    change that fuses events must keep this digest."""
    hooks = _hooks(res)
    finish = (
        res.finish_ns
        if hasattr(res, "finish_ns")
        else {r: p.finish_time for r, p in res.world.processes.items()}
    )
    logging = hasattr(hooks, "state")
    obs = end_record(
        makespan_ns=res.makespan_ns,
        finish_ns=finish,
        results=res.results,
        log=log_counters_of(hooks) if logging else {},
        restarts=_restarts(res),
        commit_history=_commit_history(res),
    )
    obs["total_bytes_logged"] = hooks.total_bytes_logged() if logging else 0
    obs["failures"] = [
        [f.cluster, f.restarted_from_round, f.restored_tier, f.superseded]
        for f in _failures(res)
    ]
    return obs


def run_counts(res) -> Dict[str, int]:
    """Exact per-layer counts from a result's public attributes.  The
    sharded result carries no backend or data-plane object, so the
    counts only those expose read 0 on the sharded workload."""
    hooks = _hooks(res)
    logs = (
        [st.log for st in hooks.state.values()] if hasattr(hooks, "state") else []
    )
    failures = _failures(res)
    if _is_sharded(res):
        events, packets, nbytes = res.events_executed, res.packets_sent, res.bytes_sent
        storage: Any = res.storage_counters
        plane = None
        windows = res.windows
    else:
        world = res.world
        events = world.engine.events_executed
        packets, nbytes = world.network.packets_sent, world.network.bytes_sent
        backend = getattr(hooks, "storage", None)
        storage = vars(backend) if backend is not None else {}
        report = getattr(hooks, "data_plane_report", None)
        plane = report() if report is not None else None
        windows = 0
    plane = plane or {}
    stall = getattr(hooks, "total_checkpoint_stall_ns", None)
    return {
        "sim.engine.events": events,
        "sim.network.packets": packets,
        "sim.network.bytes": nbytes,
        "core.logstore.records_logged": sum(lg.records_logged for lg in logs),
        "core.logstore.bytes_logged": sum(lg.bytes_logged for lg in logs),
        "core.logstore.bytes_collected": sum(
            getattr(lg, "collected_bytes", 0) for lg in logs
        ),
        "core.protocol.ckpt_commits": sum(
            len(hist) for hist in _commit_history(res).values()
        ),
        "core.protocol.ckpt_stall_sim_ns": stall() if stall is not None else 0,
        "core.recovery.failures": len(failures),
        "core.recovery.restarted_ranks": len(_restarts(res)),
        "core.recovery.superseded": sum(1 for f in failures if f.superseded),
        "core.recovery.restore_read_sim_ns": sum(f.restore_read_ns for f in failures),
        "storage.backend.writes": storage.get("writes", 0),
        "storage.backend.bytes_written": storage.get("bytes_written", 0),
        "storage.backend.flush_flows_started": storage.get("flush_flows_started", 0),
        "storage.backend.flush_flows_cancelled": storage.get(
            "flush_flows_cancelled", 0
        ),
        "storage.backend.invalidated_copies": storage.get("invalidated_copies", 0),
        "ckptdata.full_payloads": plane.get("full_payloads", 0),
        "ckptdata.delta_payloads": plane.get("delta_payloads", 0),
        "ckptdata.stored_bytes": plane.get("stored_bytes", 0),
        "sim.shard.windows": windows,
    }


class Harvest:
    """Sums :func:`run_counts` over the several worlds one repetition of
    the paper-tables workload simulates."""

    def __init__(self) -> None:
        self.totals = dict.fromkeys(COUNT_NAMES, 0)

    def add(self, res) -> None:
        for name, value in run_counts(res).items():
            self.totals[name] += value


# ----------------------------------------------------------------------
# 1. ring_exact_4096 and 2. ckpt_storm_512
# ----------------------------------------------------------------------

RING_MSG_BYTES = 4096
RING_COMPUTE_NS = 200_000


def _clusters_of_8(nranks: int) -> ClusterMap:
    return ClusterMap.block(nranks, nranks // 8)


def build_ring_exact(nranks: int, seed: int) -> Prepared:
    app = ring_app(iters=40, msg_bytes=RING_MSG_BYTES, compute_ns=RING_COMPUTE_NS)
    cm = _clusters_of_8(nranks)
    return Prepared(
        run=lambda: run_spbc(app, nranks, cm, trace=False, seed=seed),
        observe=run_observables,
        counts=run_counts,
    )


def build_ckpt_storm(nranks: int, seed: int) -> Prepared:
    app = ring_app(iters=20, msg_bytes=RING_MSG_BYTES, compute_ns=RING_COMPUTE_NS)
    cm = _clusters_of_8(nranks)

    def run():
        # Fresh config per repetition: the backend binds to the config.
        cfg = SPBCConfig(clusters=cm, checkpoint_every=1, state_nbytes=1 << 20)
        return run_spbc(
            app, nranks, cm, config=cfg,
            storage="partner:ram@1,partner@1,pfs@2:async",
            ckpt_data="incr:4:zlib-like", profile=TEST_PROFILE,
            trace=False, seed=seed,
        )

    return Prepared(run=run, observe=run_observables, counts=run_counts)


# ----------------------------------------------------------------------
# 3. failure_recovery_512
# ----------------------------------------------------------------------

MAX_FAILURES = 12


def failure_schedule(seed: int, clusters: ClusterMap, makespan_ns: int) -> List[tuple]:
    """Twelve crashes over the failure-free makespan (fewer on a map
    with fewer clusters: no cluster is hit twice).

    The seed picks the victims: a different cluster for each crash and
    a uniform rank inside it.  The instants sit on a fixed lattice (one
    crash before the first checkpoint commits, the rest spread over
    15-95 % of the makespan) and the kinds alternate node/process.

    Nothing else is drawn, on purpose: host time is a steep function of
    *where* in a checkpoint interval a crash lands, of how many crashes
    are node losses, and of whether a cluster is hit twice, and a
    benchmark whose inputs vary by more than its regression bound from
    seed to seed cannot resolve a regression (README, "Seeds")."""
    rng = random.Random(seed)
    members: Dict[int, List[int]] = {}
    for rank, cluster in enumerate(clusters.cluster_of):
        members.setdefault(cluster, []).append(rank)
    n = min(MAX_FAILURES, len(members))
    victims = rng.sample(sorted(members), n)
    step = (0.95 - 0.15) / (n - 1)
    fractions = [0.03] + [0.15 + (i + 0.5) * step for i in range(n - 1)]
    return [
        (
            int(frac * makespan_ns),
            rng.choice(members[victim]),
            ("node", "process")[i % 2],
        )
        for i, (frac, victim) in enumerate(zip(fractions, victims))
    ]


def build_failure_recovery(nranks: int, seed: int) -> Prepared:
    app = halo2d_app(iters=24, msg_bytes=8192, compute_ns=400_000)
    cm = _clusters_of_8(nranks)
    ref: Dict[str, Any] = {}

    def protected(schedule):
        cfg = SPBCConfig(clusters=cm, checkpoint_every=2)
        kw = dict(
            config=cfg, storage="partner:ram@1,partner@1,pfs@4:async",
            ckpt_data="incr:4:zlib-like", trace=False, seed=seed,
        )
        if schedule is None:
            return run_spbc(app, nranks, cm, **kw)
        return run_failure_schedule(app, nranks, cm, schedule, **kw)

    def reference():
        # The native run's results are what recovery must converge to.
        # The failure-free *protected* run's makespan places the crashes:
        # checkpoint stalls make it ~12x the native one, and crashes
        # placed on the native makespan would all precede the first
        # commit and exercise no restart read at all.
        native = run_native(app, nranks, trace=False, seed=seed)
        ref["results"] = dict(native.results)
        ref["schedule"] = failure_schedule(seed, cm, protected(None).makespan_ns)

    def run():
        return protected(ref["schedule"])

    def check(out) -> List[str]:
        if out.results != ref["results"]:
            return ["recovered results differ from the native run's"]
        return []

    return Prepared(
        run=run, reference=reference, observe=run_observables, check=check,
        counts=run_counts, seeded=True,
    )


# ----------------------------------------------------------------------
# 4. paper_tables_128
# ----------------------------------------------------------------------

TABLE1_JSON = REPO_ROOT / "benchmarks" / "results" / "table1.json"


@contextlib.contextmanager
def _patched(owner, attr: str, wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def build_paper_tables(nranks: int, seed: int) -> Prepared:
    full = nranks > SMALL_RANKS
    t1_apps = ("amg", "milc", "minife") if full else ("milc",)
    f5_apps = ("milc", "minife") if full else ("milc",)
    ks = (4, 16) if full else (4,)
    committed: Dict[str, Any] = {}

    def reference():
        committed.update(json.loads(TABLE1_JSON.read_text()))

    def run():
        table1 = experiments.table1_log_growth(apps=t1_apps, nranks=nranks)
        fig5 = experiments.fig5_recovery(apps=f5_apps, ks=ks, nranks=nranks)
        return table1, fig5

    def observe(result) -> dict:
        table1, fig5 = result
        return {
            "table1": [
                [r.app, r.k, r.avg_mb_s, r.max_mb_s, r.min_mb_s] for r in table1
            ],
            "fig5": [
                [r.app, r.k, r.rework_ns, r.native_ns, r.replayed_records,
                 r.replayed_bytes]
                for r in fig5
            ],
        }

    def check(result) -> List[str]:
        if committed["nranks"] != nranks:
            return []  # the committed table is the 128-rank one
        rows = {(r["app"], r["clusters"]): r for r in committed["rows"]}
        problems = []
        for r in result[0]:
            want = rows.get((r.app, r.k))
            got = dict(app=r.app, clusters=r.k, avg=r.avg_mb_s, max=r.max_mb_s,
                       min=r.min_mb_s)
            if want != got:
                problems.append(f"table1 row {r.app}/{r.k} differs from table1.json")
        return problems

    @contextlib.contextmanager
    def instrument(spans, harvest: Harvest) -> Iterator[None]:
        """One span per public call inside the experiment drivers, and
        the counts of every world they simulate."""

        def spanned(label, harvest_from=None):
            def wrap(fn):
                def wrapper(*args, **kwargs):
                    name = label(*args, **kwargs)
                    with spans.span(name) if name else contextlib.nullcontext():
                        out = fn(*args, **kwargs)
                    if harvest_from is not None:
                        harvest.add(harvest_from(out))
                    return out
                return wrapper
            return wrap

        with contextlib.ExitStack() as stack:
            stack.enter_context(_patched(
                experiments, "make_logging_run",
                spanned(lambda name, *a, **k: f"make_logging_run({name})",
                        lambda run: run.result),
            ))
            stack.enter_context(_patched(
                experiments.LoggingRun, "clustering_for",
                spanned(lambda self, k: f"clustering_for({k})"),
            ))
            stack.enter_context(_patched(
                experiments, "run_emulated_recovery",
                spanned(lambda *a, **k: "run_emulated_recovery", lambda rec: rec),
            ))
            stack.enter_context(_patched(
                experiments, "run_native",
                spanned(lambda *a, **k: None, lambda res: res),
            ))
            yield

    return Prepared(
        run=run, reference=reference, observe=observe, check=check,
        instrument=instrument,
    )


# ----------------------------------------------------------------------
# 5. shard2_ring_2048
# ----------------------------------------------------------------------

def build_shard2_ring(nranks: int, seed: int) -> Prepared:
    app = ring_app(iters=40, msg_bytes=RING_MSG_BYTES, compute_ns=RING_COMPUTE_NS)
    cm = _clusters_of_8(nranks)

    def run(shards: Optional[int] = 2):
        cfg = SPBCConfig(clusters=cm, checkpoint_every=8, state_nbytes=1 << 20)
        return run_spbc(
            app, nranks, cm, config=cfg, storage="tiered:ram@1,pfs@4",
            trace=False, seed=seed, shards=shards,
        )

    return Prepared(
        run=run, observe=run_observables, counts=run_counts,
        run_sequential=lambda: run(shards=None),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ring_exact_4096",
            "pure hot loop (engine, process resume, MPI matching, network, "
            "protocol send path) at the scale where per-event cost has doubled; "
            "storage idle",
            4096, 4, build_ring_exact,
        ),
        Workload(
            "ckpt_storm_512",
            "checkpoint write path does the work (storage backend, flow "
            "scheduler, collectives, data plane); the hot-loop layers do little",
            512, 5, build_ckpt_storm,
        ),
        Workload(
            "failure_recovery_512",
            "same storage, log and protocol layers the other way round: restart "
            "reads, flush cancellation, invalidation, log replay, rollback",
            512, 5, build_failure_recovery,
        ),
        Workload(
            "paper_tables_128",
            "what a user reproducing the paper runs (Table 1 + Figure 5): real "
            "app skeletons, trace on, full logging; bypass for scale fixes",
            128, 3, build_paper_tables,
        ),
        Workload(
            "shard2_ring_2048",
            "only workload where shard coordination and IPC matter; first "
            "multi-core number for the sharded engine",
            2048, 7, build_shard2_ring,
        ),
    )
}
