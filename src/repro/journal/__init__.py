"""Deterministic run journal: record, strict replay, crash-resume,
metric projection.

The paper's premise — a send-deterministic execution is fully described
by its inputs plus its observable event stream — applied to the
simulator itself.  See docs/journal.md for the format and contracts.

Record::

    from repro.journal import journaled_app
    run_failure_schedule(journaled_app("ring", iters=40), 128, clusters,
                         schedule, journal="campaign.journal", ...)

Consume::

    from repro.journal import replay_strict, resume, project
    replay_strict("campaign.journal")          # determinism oracle
    resume("campaign.journal")                 # finish a killed run
    project("campaign.journal", downtime_ns)   # new metric, no sim
"""

from repro.journal.format import (
    JOURNAL_VERSION,
    DivergenceError,
    Journal,
    JournalError,
    canonical_key,
)
from repro.journal.project import project
from repro.journal.recorder import JournalWriter, ListSink, journaled_app
from repro.journal.replay import ReplayResult, replay_strict, resume, spec_from_header

__all__ = [
    "JOURNAL_VERSION",
    "DivergenceError",
    "Journal",
    "JournalError",
    "JournalWriter",
    "ListSink",
    "ReplayResult",
    "canonical_key",
    "journaled_app",
    "project",
    "replay_strict",
    "resume",
    "spec_from_header",
]
