"""Reproduction of SPBC (Ropars et al., SC 2013): Scalable Pattern-Based
Checkpointing for MPI HPC applications.

Public API tour
---------------
* :mod:`repro.sim`  — deterministic discrete-event substrate;
* :mod:`repro.mpi`  — the simulated MPI library (``World``, ``RankContext``);
* :mod:`repro.core` — the SPBC protocol: clustering-aware sender-side
  logging, pattern identifiers, coordinated checkpointing, recovery;
* :mod:`repro.baselines` — HydEE, the recovery SPBC is compared against;
* :mod:`repro.clustering` — the communication-driven clustering tool;
* :mod:`repro.apps` — the paper's workloads as communication skeletons;
* :mod:`repro.harness` — runners and the Table/Figure experiment drivers.

Quickstart::

    from repro import ClusterMap, run_spbc
    from repro.apps import get_app

    app = get_app("minighost").factory(nvars=8, iters=10)
    clusters = ClusterMap.block(32, 4)
    result = run_spbc(app, nranks=32, clusters=clusters)
    print(result.makespan_ns, result.hooks.total_bytes_logged())
"""

from repro.core import (
    SPBC,
    SPBCConfig,
    ClusterMap,
    LogCostModel,
    RecoveryManager,
    ReplayPlan,
)
from repro.harness import (
    RunSpec,
    execute,
    run_app,
    run_native,
    run_spbc,
    run_emulated_recovery,
    run_failure_schedule,
    run_online_failure,
)
from repro.mpi import ANY_SOURCE, ANY_TAG, RankContext, World
from repro.storage import MultiLevelPlan, TieredBackend, make_backend

__version__ = "1.0.0"

__all__ = [
    "SPBC",
    "SPBCConfig",
    "ClusterMap",
    "LogCostModel",
    "RecoveryManager",
    "ReplayPlan",
    "RunSpec",
    "execute",
    "run_app",
    "run_native",
    "run_spbc",
    "run_emulated_recovery",
    "run_failure_schedule",
    "run_online_failure",
    "ANY_SOURCE",
    "ANY_TAG",
    "RankContext",
    "World",
    "TieredBackend",
    "MultiLevelPlan",
    "make_backend",
    "__version__",
]
