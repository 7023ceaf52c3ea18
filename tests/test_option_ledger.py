"""The option ledger: every settable field of the classes that describe a
run, in declaration order.

An option earns its place by a caller outside the tests that sets it to
a value other than its default; one that only tests set is a constant
instead.  Pinning the fields here makes adding a knob (or dropping one)
a one-line ledger edit that review sees.
"""

import dataclasses
import inspect

import pytest

from repro.ckptdata.plane import CkptDataPlane
from repro.core.protocol import SPBCConfig
from repro.harness.runner import RunSpec
from repro.obs import Telemetry
from repro.storage.backend import TieredBackend

LEDGER = {
    SPBCConfig: (
        "clusters", "ident_matching", "cost", "checkpoint_every", "mtbf_ns",
        "storage", "ckpt_data", "state_nbytes", "rollback_scope",
        "emulated_recovering",
    ),
    RunSpec: (
        "app_factory", "nranks", "clusters", "config", "schedule",
        "restart_delay_ns", "ranks_per_node", "seed", "net_params", "trace",
        "storage", "ckpt_data", "profile", "warp",
    ),
    TieredBackend: ("plan", "async_flush"),
    CkptDataPlane: (
        "mode", "full_period", "compression", "profile", "full_on_durable",
    ),
    Telemetry: ("metrics", "timeline", "shard", "sample_queue"),
}


def settable(cls):
    """Constructor fields of a dataclass, constructor parameters of any
    other class."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls) if f.init)
    params = inspect.signature(cls.__init__).parameters
    return tuple(name for name in params if name != "self")


@pytest.mark.parametrize("cls", list(LEDGER), ids=lambda cls: cls.__name__)
def test_settable_fields_match_the_ledger(cls):
    assert settable(cls) == LEDGER[cls]
