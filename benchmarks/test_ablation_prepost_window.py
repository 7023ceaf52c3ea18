"""Ablation: the replay pre-post window (paper section 5.2.2).

The paper: replaying processes "pre-post a set of send requests before
trying to complete some of them", up to 50 per process, both for
performance and to avoid rendezvous deadlocks when completion order
differs from post order.

On a well-behaved stencil (MiniGhost) the window barely matters —
replay is never the bottleneck.  The deadlock half (an adversarial log
order whose reordering depth exceeds the window) is a unit-scale test,
``tests/core/test_window_stress.py``.
"""

import pytest


@pytest.mark.benchmark(group="ablation")
def test_prepost_window_ablation(regenerate):
    by = {r.window: r.normalized for r in regenerate("ablation_window")}
    # A serial replayer is never faster than the paper's window of 50...
    assert by[1] >= by[50] - 1e-6
    # ...and beyond ~50 there is nothing left to gain.
    assert abs(by[200] - by[50]) < 0.02
