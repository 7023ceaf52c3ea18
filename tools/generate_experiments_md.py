#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from benchmarks/results/*.json.

Run the benchmark suite first:

    PYTHONPATH=src pytest benchmarks/ --benchmark-only

then:

    PYTHONPATH=src python tools/generate_experiments_md.py

One section per committed artefact: every row of the experiment table
(``repro.harness.experiments.EXPERIMENTS``) and the four ablations.  The
paper's own artefacts carry the paper's numbers and the shape checks;
the others print their rendered table under the command that
regenerates it.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.harness.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

PAPER_TABLE1 = """\
clusters   AMG        CM1        GTC        MILC       MiniFE     MiniGhost
           avg / max  avg / max  avg / max  avg / max  avg / max  avg / max
2          0.1 / 0.4  0.1 / 0.8  0.1 / 0.9  0.1 / 0.1  0.1 / 0.1  0.3 / 1.1
4          0.2 / 0.7  0.1 / 0.7  0.1 / 0.9  0.1 / 0.1  0.1 / 0.2  0.5 / 2.1
8          0.4 / 0.7  0.2 / 1.5  0.2 / 0.9  0.2 / 0.2  0.1 / 0.3  1.1 / 2.1
16         0.5 / 0.7  0.4 / 1.5  0.4 / 0.9  0.2 / 0.3  0.1 / 0.3  1.6 / 2.1
64         1.2 / 1.4  1.5 / 2.2  1.7 / 1.7  0.4 / 0.4  0.2 / 0.3  3.7 / 4.2
512        1.7 / 2.0  2.8 / 2.9  1.7 / 1.8  0.6 / 0.6  0.5 / 0.6  5.5 / 6.3"""

PAPER_TABLE2 = """\
AMG 0.26%   CM1 0.63%   GTC 1.14%   MILC 0.07%   MiniFE 0.08%   MiniGhost 0.36%"""

#: Ablation results (written by benchmarks/test_ablation_*.py, not rows
#: of the experiment table) and their section titles.
ABLATIONS = {
    "ablation_window": "Ablation — replay pre-post window (section 5.2.2)",
    "ablation_clustering": "Ablation — clustering strategy (sections 6.2/6.6)",
    "ablation_containment": "Ablation — containment vs logging trade-off",
    "ablation_online": "Ablation — online recovery, contained vs global rollback",
}


def load(name: str):
    path = RESULTS / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def table1_section(t1) -> str:
    return (
        f"## Table 1 — log growth rate per process (MB/s)\n\n"
        f"**Paper (512 ranks):**\n\n```\n{PAPER_TABLE1}\n```\n\n"
        f"**Measured ({t1['nranks']} ranks; cluster counts scale "
        f"accordingly, last row = pure message logging):**\n\n"
        f"```\n{t1['rendered']}\n```\n\n"
        "Shape checks (asserted by the benchmark): growth increases "
        "with cluster count for every app; MiniGhost logs the most; "
        "MiniFE/MILC the least; MILC balanced (avg = max); GTC's max "
        "constant over small cluster counts; hybrid clustering cuts "
        "logging by 2-10x versus pure message logging.\n"
    )


def table2_section(t2) -> str:
    lines = [
        f"{r['app']}: {r['overhead_pct']:.3f}%" for r in t2["rows"]
    ]
    return (
        f"## Table 2 — failure-free overhead (16 clusters)\n\n"
        f"**Paper:** {PAPER_TABLE2}\n\n"
        f"**Measured ({t2['nranks']} ranks):** " + "   ".join(lines) + "\n\n"
        f"```\n{t2['rendered']}\n```\n\n"
        "Shape: every app well below 1%; overhead follows the logged "
        "volume (MiniGhost/GTC highest, MILC lowest), the same "
        "relationship as the paper.  Where magnitudes differ (GTC, "
        "CM1) it is because the simulator charges only the direct "
        "logging copy, not the cache pollution a real memcpy "
        "inflicts on the surrounding computation.\n"
    )


def table2_sweep_section(t2s) -> str:
    return (
        f"## Section 6.3 — overhead vs cluster count (MiniGhost)\n\n"
        f"```\n{t2s['rendered']}\n```\n\n"
        "Paper: \"for lower numbers of clusters, we observed even "
        "smaller overhead\" — reproduced: overhead is monotone in the "
        "cluster count.\n"
    )


def fig5_section(f5) -> str:
    return (
        f"## Figure 5 — recovery time normalized to failure-free\n\n"
        "**Paper (512 ranks):** all bars < 1.0; AMG up to ~25% faster; "
        "CM1/GTC/MiniFE at best ~4% faster; smaller clusters (more "
        "inter-cluster traffic) recover faster.\n\n"
        f"**Measured ({f5['nranks']} ranks):**\n\n"
        f"```\n{f5['rendered']}\n```\n\n"
        "Shape: every configuration ≤ 1.0; AMG gains the most (its "
        "communication is latency-bound and crosses clusters); the "
        "compute-bound trio gains the least; gains grow with the "
        "cluster count.  Magnitudes are milder than the paper's "
        "(AMG: 25% there, ~12% here): with 8x fewer ranks the "
        "replayed-message share of execution time is smaller.\n"
    )


def fig6_section(f6) -> str:
    return (
        f"## Figure 6 — SPBC vs HydEE recovery (NAS, 8 clusters)\n\n"
        "**Paper (512 ranks):** SPBC at or below failure-free on all "
        "four; HydEE noticeably slower (up to ~2x), in some "
        "benchmarks slower than failure-free execution.\n\n"
        f"**Measured ({f6['nranks']} ranks):**\n\n"
        f"```\n{f6['rendered']}\n```\n\n"
        "Shape: SPBC ≤ 1.0 everywhere; HydEE slower on every "
        "benchmark, exceeding failure-free time where replay chains "
        "are dense (the centralized, delivery-coupled coordination "
        "cannot pre-send messages and serializes every grant).\n"
    )


#: The paper's own artefacts, written up against the paper's numbers.
PAPER_SECTIONS = {
    "table1": table1_section,
    "table2": table2_section,
    "table2_sweep": table2_sweep_section,
    "fig5": fig5_section,
    "fig6": fig6_section,
}


def artefacts():
    """``(results JSON stem, generic section title)`` of every committed
    artefact: the experiment table's rows, then the ablations."""
    for name, exp in EXPERIMENTS.items():
        heading = exp.title.split(":")[0]
        yield exp.artefact or name, f"{heading} (`python -m repro {name}`)"
    yield from ABLATIONS.items()


def main() -> int:
    sections = [
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Regenerated from `benchmarks/results/*.json` by "
        "`tools/generate_experiments_md.py`.  Paper numbers are from the "
        "SC'13 evaluation at 512 ranks / 64 nodes; measured numbers come "
        "from the simulator at the scale noted per section "
        "(`REPRO_BENCH_RANKS`).  The reproduction target is the *shape* "
        "of each result (orderings, trends, crossovers); the absolute "
        "values depend on the calibrated compute/network model "
        "(repro/apps/calibration.py) and are expected to be in the same "
        "ballpark, not identical.\n"
    ]
    missing = []
    for stem, title in artefacts():
        data = load(stem)
        if data is None:
            missing.append(stem)
        elif stem in PAPER_SECTIONS:
            sections.append(PAPER_SECTIONS[stem](data))
        else:
            sections.append(f"## {title}\n\n```\n{data['rendered']}\n```\n")

    out = ROOT / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    print(f"wrote {out} ({len(sections)-1} result sections)")
    if missing:
        print(f"note: no results yet for: {', '.join(missing)} "
              "(run pytest benchmarks/ --benchmark-only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
