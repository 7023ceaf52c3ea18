#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: baseline A, candidate B.

    python3 benchmarks/e2e/compare.py A/result.json B/result.json

For every (end-to-end metric, workload) it applies the metric's bound
(metrics.py) and prints one of

* ``better``     — B's median improved on A's by more than the bound;
* ``same``       — the medians are within the bound of each other;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's own spread (IQR / median of its
  samples) is wider than the bound, so a difference of that size
  cannot be told from noise — unless every B sample beats every A
  sample, which is reported as ``better``.

One row per workload.  Exits non-zero on any ``worse`` and on any rise
in ``failed_share``.  When both files carry a traced pass, the exact
counts (``*.calls`` and the count metrics) are compared too: on one
commit they must be identical; between commits the differences are the
work an optimisation removed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def spread(samples: Optional[List[float]]) -> float:
    """IQR of the samples as a share of their median (0 for one sample)."""
    if not samples or len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]  # > 0: B is worse
    sa, sb = a.get("samples") or [a["value"]], b.get("samples") or [b["value"]]
    if max(spread(sa), spread(sb)) > bound:
        b_always_wins = (
            max(sb) < min(sa) if better == "lower" else min(sb) > max(sa)
        )
        return "better" if b_always_wins else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def exact_names() -> List[str]:
    return [
        name for name, unit, _better in metrics.per_layer()
        if name.endswith(".calls") or name in metrics.COUNT_NAMES
    ]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_file, b_file = (json.loads(Path(p).read_text()) for p in argv)
    bad = 0
    names = [n for n, _u, _b, _bound in metrics.END_TO_END]
    exact = exact_names()
    header = "".join(f"{n:>24}" for n in names)
    print(f"{'workload':<22}{header}{'failed_share':>16}")
    for workload, a in a_file["workloads"].items():
        b = b_file["workloads"].get(workload)
        if b is None:
            print(f"{workload:<22} missing from B")
            bad += 1
            continue
        cells = []
        for name, _unit, better, _bound in metrics.END_TO_END:
            ma = a.get("end_to_end", {}).get(name)
            mb = b.get("end_to_end", {}).get(name)
            if ma is None or mb is None:
                cells.append("-")
                continue
            v = verdict(ma, mb, better, metrics.bound_for(name, workload))
            bad += v == "worse"
            cells.append(f"{v} {(mb['value'] / ma['value'] - 1) * 100:+.1f}%")
        rose = b["failed_share"] > a["failed_share"]
        bad += rose
        cells_txt = "".join(f"{c:>24}" for c in cells)
        print(
            f"{workload:<22}{cells_txt}"
            f"{'ROSE' if rose else 'ok':>8} {b['failed_share']:.3f}"
        )
        pa, pb = a.get("per_layer"), b.get("per_layer")
        if pa and pb:
            differ = [
                n for n in exact
                if pa.get(n, {}).get("value") != pb.get(n, {}).get("value")
            ]
            print(
                f"{'':<22}  exact counts: "
                f"{len(exact) - len(differ)} identical, {len(differ)} differ"
                + (": " + ", ".join(differ) if differ else "")
            )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
