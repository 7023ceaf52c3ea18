"""Figure 6: SPBC vs HydEE recovery on NAS BT/LU/MG/SP, 8 clusters.

Paper shape (512 ranks, 8 clusters): SPBC's distributed per-channel
replay keeps every benchmark at or below failure-free time; HydEE's
centralized, dependency-ordered replay makes recovery noticeably slower
— in some benchmarks slower than failure-free execution — with SPBC up
to ~2x faster.
"""

import pytest


@pytest.mark.benchmark(group="fig6")
def test_fig6_hydee_vs_spbc(regenerate):
    rows = regenerate("fig6")
    for r in rows:
        # SPBC never slower than failure-free.
        assert r.spbc_normalized <= 1.02, r
        # HydEE is slower than SPBC on every benchmark.
        assert r.hydee_normalized > r.spbc_normalized, r
    # The coordination penalty is substantial somewhere (paper: up to 2x,
    # with HydEE sometimes slower than failure-free execution).
    assert max(r.hydee_normalized / r.spbc_normalized for r in rows) > 1.3
    assert any(r.hydee_normalized > 1.0 for r in rows)
