"""Recording side: journal writers, event sinks, and header building.

:func:`repro.harness.runner.execute` owns the recording lifecycle: it
serialises the :class:`~repro.harness.runner.RunSpec` into the header
(exactly what a replay needs), hands the writer to the protocol/recovery
emission points as a *sink* (anything with ``emit``), and stamps the
final observables into the ``end`` record.  Inside shard workers the
sink is a :class:`ListSink` — events ride back to the coordinator in the
worker summary and the coordinator appends them, so a sharded run's
journal holds the same canonical event set as the sequential run's.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.journal.format import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    canonical_json,
    fingerprint,
)


def jsonable(value: Any) -> Any:
    """Primitives (and containers of them) pass through; anything else
    degrades to ``repr`` — results must compare equal after a JSON
    round-trip, so an opaque object is recorded by its stable face."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


class ListSink:
    """In-process event sink for shard workers: events accumulate as
    plain dicts and travel to the coordinator in the worker summary."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, kind: str, t: int, **fields: Any) -> None:
        ev = {"k": kind, "t": int(t)}
        ev.update(fields)
        self.events.append(json.loads(canonical_json(jsonable(ev))))


class JournalWriter:
    """Append-only journal writer: stamps LSNs, keeps an in-memory copy
    (for replay's in-process recordings), and optionally streams every
    record to ``path`` with a flush per line.

    ``crash_at_lsn`` is fault injection for the resume tests: events up
    to that LSN are written intact, the next event's line is torn
    mid-byte, and nothing further (including the ``end`` record) reaches
    the file — exactly what a ``kill -9`` mid-campaign leaves behind.
    The in-memory view still records everything, so one run yields both
    the torn file and the uninterrupted reference observables."""

    def __init__(
        self, path: Optional[str] = None, crash_at_lsn: Optional[int] = None
    ) -> None:
        self.path = str(path) if path is not None else None
        self.crash_at_lsn = crash_at_lsn
        self.header: Optional[Dict[str, Any]] = None
        self.events: List[Dict[str, Any]] = []
        self.result: Optional[Dict[str, Any]] = None
        self._lsn = 0
        self._fh = None
        self._file_dead = False

    # ------------------------------------------------------------------
    def write_header(self, header: Dict[str, Any]) -> None:
        if self.header is not None:
            raise JournalError("journal header written twice")
        header = dict(header)
        header["type"] = "header"
        header["version"] = JOURNAL_VERSION
        header["fingerprint"] = fingerprint(header)
        self.header = header
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write_line(canonical_json(header))

    def emit(self, kind: str, t: int, **fields: Any) -> None:
        ev = {"k": kind, "t": int(t)}
        ev.update(fields)
        self.emit_event(ev)

    def emit_event(self, ev: Dict[str, Any]) -> None:
        """Append one pre-built event dict (``k``/``t`` + payload)."""
        if self.header is None:
            raise JournalError("journal event emitted before the header")
        if self.result is not None:
            raise JournalError("journal event emitted after finish()")
        self._lsn += 1
        ev = json.loads(canonical_json(jsonable(ev)))
        ev["lsn"] = self._lsn
        self.events.append(ev)
        rec = dict(ev)
        rec["type"] = "ev"
        line = canonical_json(rec)
        if self.crash_at_lsn is not None and self._lsn == self.crash_at_lsn + 1:
            # The injected kill: this record's append is torn mid-byte.
            if self._fh is not None:
                self._fh.write(line[: max(1, len(line) // 2)])
                self._fh.flush()
            self._file_dead = True
        self._write_line(line)

    def finish(self, result: Dict[str, Any]) -> None:
        if self.result is not None:
            raise JournalError("journal finished twice")
        self.result = json.loads(canonical_json(jsonable(result)))
        rec = dict(self.result)
        rec["type"] = "end"
        self._write_line(canonical_json(rec))
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _write_line(self, line: str) -> None:
        if self._fh is None or self._file_dead:
            return
        self._fh.write(line + "\n")
        self._fh.flush()

    # ------------------------------------------------------------------
    def to_journal(self) -> Journal:
        """The in-memory (uninterrupted) view as a :class:`Journal`."""
        if self.header is None:
            raise JournalError("journal has no header")
        return Journal(
            path=self.path,
            header=self.header,
            events=list(self.events),
            result=self.result,
        )


def rewrite_complete(path: str, journal: Journal) -> None:
    """Atomically replace ``path`` with a complete journal (resume's
    final step after a verified re-execution)."""
    if journal.result is None:
        raise JournalError("refusing to rewrite an incomplete journal")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(journal.header) + "\n")
        for ev in journal.events:
            rec = dict(ev)
            rec["type"] = "ev"
            fh.write(canonical_json(rec) + "\n")
        rec = dict(journal.result)
        rec["type"] = "end"
        fh.write(canonical_json(rec) + "\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Replayable app factories
# ----------------------------------------------------------------------

def journaled_app(name: str, **params: Any):
    """Instantiate a registered app with its identity annotated, so a
    journal recorded with it is replayable standalone.

    An un-annotated factory (a bare closure) records ``app: null`` in
    the header; such a journal replays only with an explicit
    ``app_factory=`` override."""
    from repro.apps.base import get_app

    factory = get_app(name).factory(**params)
    factory._journal_app = {"name": name, "params": jsonable(dict(params))}
    return factory


# ----------------------------------------------------------------------
# Header building (runner-side)
# ----------------------------------------------------------------------

def _spec_string(arg: Any, cfg_value: Any, what: str) -> Optional[str]:
    """A journal can only re-create what a string spec can describe —
    live backend/plane objects are refused up front, not at replay."""
    if isinstance(arg, str):
        return arg
    if arg is None and cfg_value is None:
        return None
    raise JournalError(
        f"journaling requires a spec-string {what} (or none), not a "
        f"live object: got {arg if arg is not None else cfg_value!r}"
    )


def build_header(spec, recorded_shards: Optional[int] = None) -> Dict[str, Any]:
    """Serialize a :class:`~repro.harness.runner.RunSpec` into the
    header record (``spec_from_header`` is the inverse).

    Must run *before* the spec strings are resolved into the config:
    the raw strings are what replay rebuilds from."""
    config = spec.config
    if config.emulated_recovering is not None:
        raise JournalError(
            "emulated-recovery runs are not journalable (they are a "
            "measurement scaffold, not a replayable execution)"
        )
    ckpt_spec = _spec_string(spec.ckpt_data, config.ckpt_data, "ckpt_data")
    storage_spec = _spec_string(spec.storage, config.storage, "storage")
    warp, profile, net_params = spec.warp, spec.profile, spec.net_params
    if warp is not None:
        warp = int(warp) if isinstance(warp, int) else asdict(warp)
    if profile is not None:
        profile = [asdict(region) for region in profile.regions]
    return {
        "app": getattr(spec.app_factory, "_journal_app", None),
        "nranks": int(spec.nranks),
        "ranks_per_node": int(spec.ranks_per_node),
        "seed": int(spec.seed),
        "clusters": list(spec.clusters.cluster_of),
        "schedule": [[int(t), int(r), str(k)] for t, r, k in spec.schedule],
        "restart_delay_ns": int(spec.restart_delay_ns),
        "net_params": None if net_params is None else asdict(net_params),
        "trace": bool(spec.trace),
        "storage": storage_spec,
        "ckpt_data": ckpt_spec,
        "profile": profile,
        "warp": warp,
        "config": {
            "ident_matching": bool(config.ident_matching),
            "cost": asdict(config.cost),
            "checkpoint_every": config.checkpoint_every,
            "mtbf_ns": config.mtbf_ns,
            "state_nbytes": config.state_nbytes,
            "rollback_scope": config.rollback_scope,
        },
        "recorded_shards": recorded_shards,
    }


def prepare_writer(journal: Any, header: Dict[str, Any]) -> JournalWriter:
    """Resolve the runners' ``journal=`` argument: a path string opens a
    streaming file writer, an existing :class:`JournalWriter` (replay's
    in-memory recorder) is used as-is; either way ``header`` is written
    first."""
    if isinstance(journal, JournalWriter):
        writer = journal
    elif isinstance(journal, (str, os.PathLike)):
        writer = JournalWriter(path=str(journal))
    else:
        raise TypeError(
            f"journal= accepts a path or a JournalWriter, got {journal!r}"
        )
    writer.write_header(header)
    return writer


# ----------------------------------------------------------------------
# Run-side event/observable extraction (shared by both engines)
# ----------------------------------------------------------------------

def failure_fields(ev) -> Dict[str, Any]:
    """The crash-side facts of a FailureEvent — exactly the fields the
    shard-equivalence contract guarantees identical across engines.
    Restart-side fields (round/tier) are *mutated* on the event after a
    later restart runs, so they are journaled as separate ``restart``
    events instead (emitted only for restarts that actually executed)."""
    return {
        "rank": ev.rank,
        "cluster": ev.cluster,
        "failure_kind": ev.kind,
        "node": ev.node,
        "killed_ranks": list(ev.killed_ranks),
        "purged_packets": ev.purged_packets,
        "invalidated_copies": ev.invalidated_copies,
        "cancelled_flushes": ev.cancelled_flushes,
    }


def commit_history_of(hooks, ranks=None) -> Dict[int, List[Tuple[int, int]]]:
    """rank -> [(round, taken_at_ns)] from the storage backend's final
    state (the shard-equivalence invariant's shape), for ``ranks``
    (default: every rank — a shard worker passes the ones it owns)."""
    storage = hooks.storage
    out: Dict[int, List[Tuple[int, int]]] = {}
    for r in sorted(hooks.state if ranks is None else ranks):
        history = []
        for rnd in storage.rounds_of(r):
            plan = storage.restore_plan(r, rnd)
            if plan is not None:
                history.append((rnd, plan.ckpt.taken_at_ns))
        out[r] = history
    return out


def end_record(
    *,
    makespan_ns: int,
    finish_ns: Dict[int, int],
    results: Dict[int, Any],
    log: Dict[int, Tuple[int, int]],
    restarts: Dict[int, int],
    commit_history: Dict[int, List[Tuple[int, int]]],
) -> Dict[str, Any]:
    """The final-observables record, as sorted rank-keyed pair lists
    (JSON objects can't key on ints, and sorted lists compare exactly)."""
    return {
        "makespan_ns": int(makespan_ns),
        "finish_ns": [[r, int(t)] for r, t in sorted(finish_ns.items())],
        "results": [[r, jsonable(v)] for r, v in sorted(results.items())],
        "log": [
            [r, int(b), int(n)] for r, (b, n) in sorted(log.items())
        ],
        "restarts": [[r, int(n)] for r, n in sorted(restarts.items())],
        "commits": [
            [r, [[int(rnd), int(t)] for rnd, t in hist]]
            for r, hist in sorted(commit_history.items())
        ],
    }


def log_counters_of(hooks, ranks=None) -> Dict[int, Tuple[int, int]]:
    """Per-rank (bytes_logged, records_logged) — works on both the live
    SPBC hooks and the sharded result's hooks shim; ``ranks`` as in
    :func:`commit_history_of`."""
    state = hooks.state
    return {
        r: (state[r].log.bytes_logged, state[r].log.records_logged)
        for r in (state if ranks is None else ranks)
    }


def finalize_run(
    writer: JournalWriter, result, worker_events: Sequence[Dict[str, Any]] = ()
) -> None:
    """Stamp a finished run into the journal: worker-collected events
    (sharded runs), the failure events (derived from the final event
    list — identical across engines by the equivalence contract),
    per-rank finish events, then the ``end`` observables.  ``result`` is
    either engine's: both spell the observables the same way."""
    for ev in worker_events:
        writer.emit_event(ev)
    for ev in result.failures:
        writer.emit("failure", t=ev.time_ns, **failure_fields(ev))
    for r, t in sorted(result.finish_ns.items()):
        writer.emit("finish", t=t, rank=r)
    writer.finish(
        end_record(
            makespan_ns=result.makespan_ns,
            finish_ns=result.finish_ns,
            results=result.results,
            log=result.log,
            restarts=result.restarts,
            commit_history=result.commit_history,
        )
    )
