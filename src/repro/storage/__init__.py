"""Checkpoint storage: tier cost models and the store that runs them.

The paper excludes checkpoint-writing time from its measurements and
cites multi-level checkpointing work (FTI [3], SCR [27]) for that side
of the problem; this package provides the corresponding cost models
(PFS, node-local SSD, RAM, partner copy) *and* the one store that
executes them inside the protocol: :class:`TieredBackend` runs a
:class:`MultiLevelPlan` with write and restart-read time charged to the
simulation clock.  The default plan is the paper's free ``memory`` tier
(see ``docs/storage.md``).
"""

from repro.storage.backend import (
    RestoreLink,
    RestorePlan,
    RestoreReceipt,
    RoundWrites,
    SaveReceipt,
    TieredBackend,
    default_plan,
    make_backend,
    parse_plan,
    partner_default_plan,
)
from repro.storage.iosched import ChainRead, IOScheduler
from repro.storage.model import (
    StorageTier,
    local_ssd_tier,
    memory_tier,
    partner_tier,
    pfs_tier,
    ram_tier,
)
from repro.storage.multilevel import (
    MultiLevelPlan,
    optimal_interval,
    optimal_interval_ns,
    optimal_interval_rounds,
)

__all__ = [
    "StorageTier",
    "pfs_tier",
    "local_ssd_tier",
    "ram_tier",
    "partner_tier",
    "memory_tier",
    "MultiLevelPlan",
    "optimal_interval",
    "optimal_interval_ns",
    "optimal_interval_rounds",
    "TieredBackend",
    "SaveReceipt",
    "RoundWrites",
    "RestoreReceipt",
    "RestorePlan",
    "RestoreLink",
    "IOScheduler",
    "ChainRead",
    "make_backend",
    "parse_plan",
    "default_plan",
    "partner_default_plan",
]
