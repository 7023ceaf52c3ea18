"""Command-line entry point: regenerate paper experiments from a shell.

Usage::

    python -m repro table1 [--ranks 128] [--rpn 8] [--apps amg,milc]
    python -m repro table2            # also: table2_sweep, fig5, fig6
    python -m repro ckptcost [--storage tiered:ram@1,pfs@4]
    python -m repro blastradius [--storage partner:ram@1,partner@1,pfs@4]
                                [--checkpoint-every 2|auto] [--mtbf 0.5]
    python -m repro auto_interval [--storage tiered:ram@1,pfs@4] [--mtbf 0.5]
    python -m repro deltachain [--ckpt-data incr:4:zlib-like]
                               [--storage tiered:ram@1,pfs@4]
    python -m repro ioverlap [--storage tiered:ram@1,pfs@4]
    python -m repro ablation_clustering   # sections 6.2/6.6: partitioners
    python -m repro ablation_containment  # rolled-back ranks vs log volume
    python -m repro ablation_online       # contained vs global rollback
    python -m repro ablation_window       # section 5.2.2: pre-post window
    python -m repro simperf [--shards N]   # gates on the simulator's own speed
    python -m repro apps            # list registered workloads
    python -m repro journal out.journal --record [--app ring] [--ranks 32]
                                    [--schedule 3:2:process,9:9:node]
    python -m repro journal out.journal            # inspect / project
    python -m repro replay out.journal [--shards N] [--resume]
                                       [--metrics] [--trace-out t.json]
    python -m repro trace out.journal [--trace-out t.json] [--run]

Each experiment is one row of ``repro.harness.experiments.EXPERIMENTS``
and prints one table: without flags, the ``rendered`` string of its
committed ``benchmarks/results/*.json`` (``pytest benchmarks/`` runs the
same row).  ``--ranks``/``--rpn``/``--apps`` rescale any row; a driver
flag the row does not accept is an error.
"""

from __future__ import annotations

import argparse
import sys


def _spec(parse):
    """An argparse type: the spec string itself, once ``parse`` accepts
    it (the message names the token and ``parse``'s reason)."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{text!r}: {e}") from None
        return text

    return check


def positive_int(text: str) -> int:
    """``--ranks``/``--rpn``: a count of at least one."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: must be an integer >= 1")
    return int(text)


def positive_int_or_auto(text: str):
    """``--checkpoint-every``: iterations between checkpoints, or 'auto'."""
    if text == "auto":
        return text
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r}: must be an integer >= 1 or 'auto'"
        )
    return int(text)


def positive_seconds(text: str) -> int:
    """``--mtbf``: positive (simulated) seconds, as nanoseconds."""
    from repro.util.units import SEC

    try:
        seconds = float(text)
    except ValueError:
        seconds = float("nan")
    if not 0 < seconds < float("inf"):
        raise argparse.ArgumentTypeError(
            f"{text!r}: MTBF must be positive, finite seconds"
        )
    return int(seconds * SEC)


def main(argv=None) -> int:
    from repro.ckptdata.plane import parse_ckpt_data
    from repro.harness.experiments import EXPERIMENTS
    from repro.storage.backend import make_backend

    def takers(dest: str) -> str:
        return "/".join(n for n, e in EXPERIMENTS.items() if dest in e.flags)

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the SPBC paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "simperf", "apps", "journal", "replay", "trace"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="journal/replay/trace: the journal file to record, inspect, "
        "replay, or render as a timeline",
    )
    parser.add_argument(
        "--ranks", type=positive_int, default=None, help="simulated ranks"
    )
    parser.add_argument(
        "--rpn", type=positive_int, default=None, help="ranks per node"
    )
    parser.add_argument(
        "--apps", type=str, default=None, help="comma-separated app subset"
    )
    # Each driver flag's dest is the driver keyword it sets.
    driver_flags = [
        parser.add_argument(
            "--storage",
            type=_spec(make_backend),
            help=f"{takers('storage')}, journal --record: storage backend "
            "spec — memory, tiered, partner, or tiered:ram@1,ssd@4,pfs@16; "
            "append :async for the background-flush mode (ioverlap takes "
            "the base plan and derives the async variant itself) "
            "(default: the experiment's built-in plans)",
        ),
        parser.add_argument(
            "--ckpt-data",
            type=_spec(parse_ckpt_data),
            help=f"{takers('ckpt_data')}: checkpoint data-plane spec for the "
            "incremental mode — full | incr[:period][:compression], e.g. "
            "incr:4:zlib-like (default: the built-in full-vs-incr pair)",
        ),
        parser.add_argument(
            "--checkpoint-every",
            type=positive_int_or_auto,
            help=f"{takers('checkpoint_every')}: iterations between "
            "coordinated checkpoints (a positive integer, or 'auto' for the "
            "Young/Daly cadence)",
        ),
        parser.add_argument(
            "--mtbf",
            dest="mtbf_ns",
            type=positive_seconds,
            metavar="SECONDS",
            help=f"{takers('mtbf_ns')}: node MTBF in (simulated) seconds "
            "driving the 'auto' cadence (default 0.5)",
        ),
    ]
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="journal --record / replay / trace --run: run on N conservative "
        "PDES worker shards; simperf: add the two sequential-over-N-shards "
        "gates (4096-rank ring, sync and async flush)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="journal: record a fresh run to PATH instead of inspecting it",
    )
    parser.add_argument(
        "--app",
        type=str,
        default="ring",
        help="journal --record: registered app to run (default ring)",
    )
    parser.add_argument(
        "--iters",
        type=int,
        default=12,
        help="journal --record: app iterations (default 12)",
    )
    parser.add_argument(
        "--clusters",
        type=int,
        default=8,
        metavar="SIZE",
        help="journal --record: ranks per cluster (default 8)",
    )
    parser.add_argument(
        "--schedule",
        type=str,
        default=None,
        help="journal --record: failure schedule as MS:RANK:KIND[,...] "
        "(KIND is process or node), e.g. 3:2:process,9:9:node",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay: complete a torn journal in place (verified re-run) "
        "instead of strict replay",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON file (load it in Perfetto "
        "or chrome://tracing); for 'trace' defaults to "
        "<journal>.trace.json, for 'journal --record'/'replay' it turns "
        "on live telemetry during the run",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="journal --record / replay / trace: print the run's metrics "
        "snapshot as tables (counters, gauges, timing spans)",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="trace: re-simulate the journal under strict replay with "
        "live telemetry (full compute/MPI-wait/storage lanes) instead of "
        "projecting the coarse timeline from the journal events",
    )
    args = parser.parse_args(argv)
    if args.path is not None and args.experiment not in (
        "journal", "replay", "trace",
    ):
        parser.error(f"{args.experiment} takes no journal path argument")

    if args.experiment in EXPERIMENTS:
        return _experiment_command(parser, args, EXPERIMENTS, driver_flags)

    if args.experiment == "apps":
        from repro.apps.base import list_apps

        for spec in list_apps():
            tags = []
            if spec.paper_app:
                tags.append("paper")
            if spec.nas_app:
                tags.append("nas")
            if spec.uses_anysource:
                tags.append("ANY_SOURCE")
            print(f"{spec.name:14s} {spec.description}"
                  + (f"  [{', '.join(tags)}]" if tags else ""))
        return 0

    if args.experiment == "simperf":
        from repro.harness import simperf

        return simperf.main(shards=args.shards)

    return _journal_command(args)


def _experiment_command(parser, args, table, driver_flags) -> int:
    """Run row ``args.experiment`` of the experiment table and print its
    table; a driver flag that this row does not accept is a usage
    error."""
    experiment = table[args.experiment]
    kwargs = {}
    for flag in driver_flags:
        value = getattr(args, flag.dest)
        if value is None:
            continue
        if flag.dest not in experiment.flags:
            parser.error(
                f"{flag.option_strings[0]} is not accepted by {args.experiment}"
            )
        kwargs[flag.dest] = value
    if args.apps:
        kwargs["apps"] = args.apps.split(",")
    if args.ranks is not None:
        kwargs["nranks"] = args.ranks
    if args.rpn is not None:
        kwargs["ranks_per_node"] = args.rpn
    try:
        rows = experiment.run(**kwargs)
    except ValueError as e:
        # A combination the driver rejects before simulating, e.g.
        # --storage memory with --checkpoint-every auto.
        print(f"error: {args.experiment}: {e}", file=sys.stderr)
        return 2
    print(experiment.render(rows))
    return 0


def _parse_schedule(spec):
    """Parse ``MS:RANK:KIND[,...]`` into (time_ns, rank, kind) triples
    (``RunSpec`` checks what they say)."""
    from repro.util.units import MS

    out = []
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(
                f"bad schedule entry {part!r}: expected MS:RANK:KIND"
            )
        t_ms, rank, kind = fields
        out.append((int(float(t_ms) * MS), int(rank), kind))
    return out


def _journal_command(args) -> int:
    import json as _json

    from repro.journal import (
        DivergenceError,
        Journal,
        JournalError,
        project,
        replay_strict,
        resume,
    )
    from repro.journal.project import summary

    if args.path is None:
        print(f"error: {args.experiment} requires a journal PATH",
              file=sys.stderr)
        return 2

    if args.experiment == "journal" and args.record:
        from repro.core.clusters import ClusterMap
        from repro.core.protocol import SPBCConfig
        from repro.harness.runner import RunSpec, execute
        from repro.journal.recorder import journaled_app

        nranks = args.ranks or 32
        clusters = ClusterMap.block(nranks, args.clusters)
        try:
            spec = RunSpec(
                journaled_app(args.app, iters=args.iters),
                nranks,
                clusters,
                SPBCConfig(clusters=clusters, checkpoint_every=3,
                           state_nbytes=1 << 12),
                schedule=_parse_schedule(args.schedule) if args.schedule else (),
                ranks_per_node=args.rpn or 8,
                storage=args.storage or "tiered:ram@1,pfs@4",
            )
        except (KeyError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        tele = _make_telemetry(args)
        execute(spec, shards=args.shards, journal=args.path, telemetry=tele)
        jr = Journal.load(args.path)
        print(f"recorded {len(jr.events)} events to {args.path}")
        print(_json.dumps(summary(jr), indent=1, default=str))
        _emit_telemetry(args, tele)
        return 0

    try:
        journal = Journal.load(args.path)
    except (OSError, JournalError) as e:
        print(f"error: cannot load {args.path!r}: {e}", file=sys.stderr)
        return 2

    if args.experiment == "trace":
        return _trace_command(args, journal)

    if args.experiment == "journal":
        print(_json.dumps(summary(journal), indent=1, default=str))
        if journal.complete:
            from repro.journal.project import (
                commit_intervals_ns,
                committed_bytes,
                downtime_ns,
                gc_notice_count,
                rework_ns,
            )

            projections = {
                "committed_bytes": project(journal, committed_bytes),
                "gc_notices": project(journal, gc_notice_count),
                "downtime_ns": project(journal, downtime_ns),
                "rework_ns": project(journal, rework_ns),
                "commit_interval_count": len(
                    project(journal, commit_intervals_ns)
                ),
            }
            print(_json.dumps({"projections": projections}, indent=1))
        return 0

    # replay
    if args.resume:
        try:
            res = resume(args.path, shards=args.shards)
        except JournalError as e:
            print(f"error: resume failed: {e}", file=sys.stderr)
            return 1
        verb = "re-simulated" if res.resimulated else "already complete"
        print(f"resume: {verb}; makespan {res.makespan_ns} ns, "
              f"{len(res.finish_ns)} ranks finished")
        return 0
    tele = _make_telemetry(args)
    try:
        res = replay_strict(args.path, shards=args.shards, telemetry=tele)
    except DivergenceError as e:
        print(f"REPLAY DIVERGED at LSN {e.lsn}:", file=sys.stderr)
        print(f"  recorded: {e.recorded}", file=sys.stderr)
        print(f"  replayed: {e.replayed}", file=sys.stderr)
        return 1
    except JournalError as e:
        print(f"error: replay failed: {e}", file=sys.stderr)
        return 1
    print(f"replay-strict: OK ({len(journal.events)} events bit-identical; "
          f"makespan {res.makespan_ns} ns)")
    _emit_telemetry(args, tele)
    return 0


def _make_telemetry(args):
    """A live telemetry sink when ``--metrics``/``--trace-out`` ask for
    one, else None (the zero-overhead default)."""
    if not (args.metrics or args.trace_out):
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _emit_telemetry(args, tele) -> None:
    """Write ``--trace-out`` and print ``--metrics`` for a live run."""
    import json as _json

    if tele is None:
        return
    if args.trace_out:
        doc = tele.to_chrome()
        with open(args.trace_out, "w") as fh:
            _json.dump(doc, fh)
        print(f"wrote {len(doc['traceEvents'])} trace events "
              f"to {args.trace_out}")
    if args.metrics:
        from repro.obs import format_metrics

        print()
        print(format_metrics(tele.metrics_snapshot()))


def _trace_command(args, journal) -> int:
    """Render a journal as a Chrome trace-event file.

    Default: project the coarse timeline straight from the journal's
    events (milliseconds, no simulation).  ``--run``: re-execute under
    strict replay with live telemetry for the full-fidelity lanes."""
    import json as _json

    from repro.obs.schema import trace_lane_counts
    from repro.util.table import format_table

    if args.run:
        from repro.journal import DivergenceError, JournalError, replay_strict
        from repro.obs import Telemetry

        tele = Telemetry()
        try:
            replay_strict(journal, shards=args.shards, telemetry=tele)
        except DivergenceError as e:
            print(f"REPLAY DIVERGED at LSN {e.lsn}:", file=sys.stderr)
            return 1
        except JournalError as e:
            print(f"error: trace --run failed: {e}", file=sys.stderr)
            return 1
        source = "strict replay"
    else:
        from repro.obs.convert import timeline_from_journal

        tele = timeline_from_journal(journal)
        source = "journal projection"
    doc = tele.to_chrome()
    out = args.trace_out or f"{args.path}.trace.json"
    with open(out, "w") as fh:
        _json.dump(doc, fh)
    counts = trace_lane_counts(doc)
    print(format_table(
        ["lane group", "events"],
        [[k, counts[k]] for k in sorted(counts)],
        title=f"Timeline of {args.path} ({source})",
    ))
    print(f"wrote {len(doc['traceEvents'])} trace events to {out}")
    if args.metrics:
        from repro.obs import format_metrics

        print()
        print(format_metrics(tele.metrics_snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
