"""Checkpoint storage: tier cost models and pluggable backends.

The paper excludes checkpoint-writing time from its measurements and
cites multi-level checkpointing work (FTI [3], SCR [27]) for that side
of the problem; this package provides the corresponding cost models
(PFS, node-local SSD, RAM) *and* the backends that execute them inside
the protocol: the free :class:`InMemoryBackend` default and the
:class:`TieredBackend` that runs a :class:`MultiLevelPlan` with write
and restart-read time charged to the simulation clock (see
``docs/storage.md``).
"""

from repro.storage.backend import (
    InMemoryBackend,
    PartnerCopyBackend,
    RestoreLink,
    RestorePlan,
    RestoreReceipt,
    RoundWrites,
    SaveReceipt,
    StorageBackend,
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
    "MultiLevelPlan",
    "optimal_interval",
    "optimal_interval_ns",
    "optimal_interval_rounds",
    "StorageBackend",
    "InMemoryBackend",
    "TieredBackend",
    "PartnerCopyBackend",
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
