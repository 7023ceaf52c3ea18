"""Journal consumers: strict replay and crash-resume.

``replay_strict`` is the determinism oracle: rebuild the run's
``RunSpec`` from the header, re-execute it (sequential or sharded —
the engine is a replay choice, not part of the recorded config), and
fail loudly at the first canonical position where the re-execution's
event stream or final observables differ from the recording.

``resume`` restarts a killed campaign: a complete journal returns its
recorded observables with zero re-simulation (the common sweep-cache
case); a torn journal is deterministically re-executed, the recorded
prefix is verified to be a sub-multiset of the re-execution's events
(so a config drift between kill and resume cannot silently launder
different results under the old header), and the file is rewritten
complete.  The simulator's generator-based processes have no snapshot
of interpreter state, so a torn journal cannot warm-start mid-event —
determinism makes re-execution an exact substitute (see
docs/journal.md, "resume limits").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.journal.format import (
    DivergenceError,
    Journal,
    JournalError,
    canonical_json,
    strip_lsn,
)
from repro.journal.recorder import JournalWriter, journaled_app, rewrite_complete
from repro.util.units import SEC

#: Header fields of retired options, each with the one value this code
#: still runs (the old default): older journals replay when they carry
#: that value and are refused otherwise.
_RETIRED_FIELDS = {"restart_stagger_ns": 0}
_RETIRED_CONFIG_FIELDS = {"mtbf_prior_ns": 60 * SEC, "pfs_stagger_ns": 0}


@dataclass
class ReplayResult:
    """Observables of a journal-driven run.

    ``resimulated`` is False when the numbers came straight from the
    journal's ``end`` record (no simulation happened at all)."""

    journal: Journal
    resimulated: bool
    makespan_ns: int
    finish_ns: Dict[int, int]
    results: Dict[int, Any]
    log: Dict[int, Tuple[int, int]]
    restarts: Dict[int, int]
    commit_history: Dict[int, List[Tuple[int, int]]]


def _load(journal) -> Journal:
    if isinstance(journal, Journal):
        return journal
    return Journal.load(journal)


def _check_retired(
    fields: Dict[str, Any], retired: Dict[str, Any], where: str
) -> None:
    """Refuse a header whose retired field holds anything but the value
    every run now has."""
    for name, only in retired.items():
        value = fields.get(name, only)
        if value != only:
            raise JournalError(
                f"header {where}{name}={value!r}: the option is retired "
                f"and this code only runs {name}={only!r}"
            )


def spec_from_header(journal: Journal, app_factory=None):
    """The :class:`~repro.harness.runner.RunSpec` the header describes
    (the inverse of :func:`~repro.journal.recorder.build_header`).
    Headers written before an option was retired still replay when its
    field holds the value every run now has."""
    from repro.ckptdata.regions import MemoryRegion, WriteLocalityProfile
    from repro.core.clusters import ClusterMap
    from repro.core.protocol import LogCostModel, SPBCConfig
    from repro.harness.runner import RunSpec
    from repro.sim.network import NetworkParams
    from repro.sim.warp import WarpConfig

    h = journal.header
    if app_factory is None:
        if h.get("app") is None:
            raise JournalError(
                "journal was recorded with an unannotated app factory "
                "(header app: null); pass app_factory= explicitly, or "
                "record with repro.journal.journaled_app(name, **params)"
            )
        app_factory = journaled_app(h["app"]["name"], **h["app"]["params"])
    clusters = ClusterMap(list(h["clusters"]))
    _check_retired(h, _RETIRED_FIELDS, "")
    _check_retired(h["config"], _RETIRED_CONFIG_FIELDS, "config.")
    cfg_h = {
        k: v for k, v in h["config"].items() if k not in _RETIRED_CONFIG_FIELDS
    }
    if cfg_h.get("mtbf_ns") == "observed":
        raise JournalError(
            "header config.mtbf_ns='observed': the observed-MTBF mode is "
            "retired and mtbf_ns must be a positive integer"
        )
    config = SPBCConfig(
        clusters=clusters, cost=LogCostModel(**cfg_h.pop("cost")), **cfg_h
    )
    warp = h.get("warp")
    if isinstance(warp, dict):
        warp = WarpConfig(**warp)
    profile = None
    if h.get("profile") is not None:
        profile = WriteLocalityProfile(
            regions=tuple(MemoryRegion(**r) for r in h["profile"])
        )
    net = h.get("net_params")
    return RunSpec(
        app_factory=app_factory,
        nranks=h["nranks"],
        clusters=clusters,
        config=config,
        schedule=h["schedule"],
        restart_delay_ns=h["restart_delay_ns"],
        ranks_per_node=h["ranks_per_node"],
        seed=h["seed"],
        net_params=None if net is None else NetworkParams(**net),
        trace=h["trace"],
        storage=h.get("storage"),
        ckpt_data=h.get("ckpt_data"),
        profile=profile,
        warp=warp,
    )


def _rerun(
    journal: Journal,
    app_factory=None,
    shards: Optional[int] = None,
    crash_at_lsn: Optional[int] = None,
    telemetry=None,
) -> JournalWriter:
    """Re-execute the journal's spec, recording into a fresh in-memory
    writer; returns the writer (its ``to_journal()`` is the re-run)."""
    from repro.harness.runner import execute

    writer = JournalWriter(path=None, crash_at_lsn=crash_at_lsn)
    execute(
        spec_from_header(journal, app_factory),
        shards=shards,
        journal=writer,
        telemetry=telemetry,
    )
    return writer


def _result_from(journal: Journal, resimulated: bool) -> ReplayResult:
    end = journal.result
    if end is None:
        raise JournalError("journal has no end record")
    return ReplayResult(
        journal=journal,
        resimulated=resimulated,
        makespan_ns=end["makespan_ns"],
        finish_ns={r: t for r, t in end["finish_ns"]},
        results={r: v for r, v in end["results"]},
        log={r: (b, n) for r, b, n in end["log"]},
        restarts={r: n for r, n in end["restarts"]},
        commit_history={
            r: [tuple(pair) for pair in hist] for r, hist in end["commits"]
        },
    )


def replay_strict(
    journal, app_factory=None, shards: Optional[int] = None, telemetry=None
) -> ReplayResult:
    """Re-execute a complete journal's config and verify bit-identical
    observables — the first divergence raises :class:`DivergenceError`
    naming the recorded event's LSN.

    ``shards`` picks the replay engine (None/1 = sequential); the
    comparison is engine-independent because both sides are put in
    canonical order.  Returns the verified observables.

    ``telemetry`` instruments the re-execution (see :mod:`repro.obs`);
    recording is observation-only, so the verification verdict is
    telemetry-independent.  Pass a :class:`~repro.obs.Telemetry`
    instance to keep the recording (``python -m repro trace --run``
    renders a full-fidelity timeline this way)."""
    recorded = _load(journal)
    if not recorded.complete:
        raise JournalError(
            f"{recorded.path or '<memory>'}: incomplete journal — "
            "replay_strict verifies finished recordings; use resume() "
            "for a killed campaign"
        )
    writer = _rerun(
        recorded, app_factory=app_factory, shards=shards, telemetry=telemetry
    )
    replayed = writer.to_journal()
    _compare_events(recorded, replayed)
    if canonical_json(recorded.result) != canonical_json(replayed.result):
        raise DivergenceError(
            "final observables diverged:\n"
            f"  recorded: {canonical_json(recorded.result)}\n"
            f"  replayed: {canonical_json(replayed.result)}",
            recorded=recorded.result,
            replayed=replayed.result,
        )
    return _result_from(recorded, resimulated=True)


def _compare_events(recorded: Journal, replayed: Journal) -> None:
    rec = recorded.canonical_events()
    new = replayed.canonical_events()
    for i in range(max(len(rec), len(new))):
        if i >= len(rec):
            raise DivergenceError(
                f"replay produced {len(new) - len(rec)} event(s) the "
                f"journal never recorded; first extra: "
                f"{canonical_json(strip_lsn(new[i]))}",
                replayed=strip_lsn(new[i]),
            )
        if i >= len(new):
            raise DivergenceError(
                f"recorded event LSN {rec[i]['lsn']} was never "
                f"reproduced: {canonical_json(strip_lsn(rec[i]))}",
                lsn=rec[i]["lsn"],
                recorded=strip_lsn(rec[i]),
            )
        a, b = strip_lsn(rec[i]), strip_lsn(new[i])
        if a != b:
            raise DivergenceError(
                f"first divergence at recorded LSN {rec[i]['lsn']} "
                f"(canonical position {i}):\n"
                f"  recorded: {canonical_json(a)}\n"
                f"  replayed: {canonical_json(b)}",
                lsn=rec[i]["lsn"],
                recorded=a,
                replayed=b,
            )


def resume(
    journal, app_factory=None, shards: Optional[int] = None
) -> ReplayResult:
    """Finish a killed campaign.

    A complete journal returns its recorded observables immediately
    (``resimulated=False``).  A torn/incomplete one is re-executed
    deterministically; every recorded event must reappear in the re-run
    (sub-multiset check — a header that no longer matches the code or
    inputs fails here instead of silently producing fresh numbers), and
    the on-disk journal is rewritten complete."""
    recorded = _load(journal)
    if recorded.complete and not recorded.torn_tail:
        return _result_from(recorded, resimulated=False)
    writer = _rerun(recorded, app_factory=app_factory, shards=shards)
    rerun = writer.to_journal()
    remaining = Counter(
        canonical_json(strip_lsn(ev)) for ev in rerun.events
    )
    for ev in recorded.events:
        key = canonical_json(strip_lsn(ev))
        if remaining[key] <= 0:
            raise DivergenceError(
                f"recorded event LSN {ev['lsn']} did not reappear in the "
                f"resumed execution: {key} — the journal does not "
                "describe this code/config; refusing to resume",
                lsn=ev["lsn"],
                recorded=strip_lsn(ev),
            )
        remaining[key] -= 1
    if recorded.path is not None:
        rewrite_complete(recorded.path, rerun)
    return _result_from(rerun, resimulated=True)
