"""Tracing for the benchmark: spans at the boundaries the benchmark
controls, and cProfile self time bucketed into the repo's layers.

Both live in the benchmark's own files; nothing under ``src/`` is
instrumented.  Spans are kept in memory and written out (Chrome trace
JSON) when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: The repo's layers, one bucket each (README.md has the mapping to the
#: north-star layers).  ``other`` takes what no path rule claims.
LAYERS = (
    "sim.engine", "sim.eventq", "sim.process", "sim.network",
    "sim.resources", "sim.warp", "sim.shard", "sim.tracing",
    "mpi.runtime", "mpi.matching", "mpi.collectives", "mpi.api",
    "core.protocol", "core.logstore", "core.recovery", "core.other",
    "storage.backend", "storage.iosched", "storage.model",
    "ckptdata", "journal", "obs", "harness", "apps", "clustering",
    "baselines", "other",
)

#: Files that are a layer of their own; every other file of a package
#: falls into the package's catch-all bucket below.
_FILE_LAYER = {
    "sim/engine.py": "sim.engine",
    "sim/eventq.py": "sim.eventq",
    "sim/process.py": "sim.process",
    "sim/network.py": "sim.network",
    "sim/resources.py": "sim.resources",
    "sim/warp.py": "sim.warp",
    "sim/shard.py": "sim.shard",
    "sim/tracing.py": "sim.tracing",
    "mpi/runtime.py": "mpi.runtime",
    "mpi/matching.py": "mpi.matching",
    "mpi/collectives.py": "mpi.collectives",
    "core/protocol.py": "core.protocol",
    "core/logstore.py": "core.logstore",
    "core/recovery.py": "core.recovery",
    "storage/backend.py": "storage.backend",
    "storage/iosched.py": "storage.iosched",
}
_PACKAGE_LAYER = {
    "mpi": "mpi.api",
    "core": "core.other",
    "storage": "storage.model",
    "ckptdata": "ckptdata",
    "journal": "journal",
    "obs": "obs",
    "harness": "harness",
    "apps": "apps",
    "clustering": "clustering",
    "baselines": "baselines",
}

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_path(filename: str) -> Optional[str]:
    """Layer of a source file of the simulated program, None for
    anything else (stdlib, C builtins, numpy, the benchmark itself)."""
    idx = filename.rfind(_REPRO_MARK)
    if idx < 0:
        return None
    rel = filename[idx + len(_REPRO_MARK):].replace(os.sep, "/")
    layer = _FILE_LAYER.get(rel)
    if layer is not None:
        return layer
    return _PACKAGE_LAYER.get(rel.split("/", 1)[0], "other")


def bucket_profile(profile: cProfile.Profile) -> Dict[str, object]:
    """Bucket every profiled function's self time and call count into
    :data:`LAYERS`.

    A function defined under ``src/repro`` counts for its file's layer.
    Anything else (C builtins, stdlib, numpy) is charged to the layers
    that called it, through the profiler's callers table — transitively,
    so ``posix.read`` under ``multiprocessing.connection`` under
    ``harness/parallel.py`` lands in ``harness``.  What cannot be traced
    back to a repo function goes to ``other``.  The buckets partition
    the profile: they sum to the profiler's total self time."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    own = {func: layer_of_path(func[0]) for func in stats}
    shares: Dict[tuple, Dict[str, float]] = {}

    def share_of(func: tuple, path: Tuple[tuple, ...]) -> Dict[str, float]:
        """Layer mix (fractions summing to 1) that reaches ``func``."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        known = shares.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        if func in path or not callers:
            return {"other": 1.0}
        # Weight callers by how often they called ``func``: call counts
        # repeat exactly from run to run, times do not, and the bucketed
        # ``calls`` must repeat exactly.
        # Sorted, like the loop below: the profiler's own order varies from
        # run to run, and the cycle cut above depends on the order.
        weights = {c: callers[c][0] for c in sorted(callers)}
        total = sum(weights.values())
        mix: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, frac in share_of(caller, path + (func,)).items():
                mix[layer] = mix.get(layer, 0.0) + frac * weight / total
        shares[func] = mix
        return mix

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_s = 0.0
    for func in sorted(stats):
        _cc, nc, tt, _ct, callers = stats[func]
        total_s += tt
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        left_s, left_calls = tt, nc
        for caller in sorted(callers):
            c_nc, _c_cc, c_tt, _c_ct = callers[caller]
            mix = share_of(caller, (func,))
            top = max(mix, key=lambda layer: (round(mix[layer], 9), layer))
            for into, frac in mix.items():
                self_s[into] += c_tt * frac
            calls[top] += c_nc  # a call is not split: it goes to the main caller
            left_s -= c_tt
            left_calls -= c_nc
        self_s["other"] += left_s
        calls["other"] += left_calls
    return {"self_s": self_s, "calls": calls, "total_s": total_s}


def self_time_of(profile: cProfile.Profile, names: Tuple[str, ...]) -> float:
    """Summed self time of the C functions whose profiler name contains
    one of ``names`` (the coordinator's pipe waits)."""
    stats = pstats.Stats(profile).stats
    return sum(
        v[2]
        for func, v in stats.items()
        if func[0] == "~" and any(n in func[2] for n in names)
    )


class Spans:
    """In-memory span recorder: name, start, end, parent, all spans of
    one child process sharing the workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: List[dict] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = {
            "name": name,
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self.records.append(rec)
        self._open.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._open.pop()
            rec["end_s"] = time.perf_counter() - self._t0


def chrome_trace(per_child: List[List[dict]]) -> dict:
    """Chrome trace-event JSON (Perfetto-loadable) of recorded spans,
    one thread lane per child process (timed pass, traced pass).
    ``self_us`` is a span's duration minus what its child spans cover."""
    events = []
    for tid, spans in enumerate(per_child, start=1):
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["end_s"] - rec["start_s"]
        for i, rec in enumerate(spans):
            dur = rec["end_s"] - rec["start_s"]
            events.append({
                "name": rec["name"],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": rec["start_s"] * 1e6,
                "dur": dur * 1e6,
                "args": {
                    "workload": rec["workload"],
                    "parent": (
                        spans[rec["parent"]]["name"]
                        if rec["parent"] is not None else None
                    ),
                    "self_us": (dur - covered[i]) * 1e6,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
