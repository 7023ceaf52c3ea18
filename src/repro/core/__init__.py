"""SPBC — Scalable Pattern-Based Checkpointing (the paper's contribution).

The protocol (paper section 4, Algorithm 1):

* processes are partitioned into clusters (:mod:`repro.core.clusters`);
* inter-cluster messages are logged in their sender's memory
  (:mod:`repro.core.logstore`), with per-channel sequence numbers;
* coordinated checkpointing runs inside each cluster
  (:mod:`repro.core.checkpoint`);
* message/request identifiers from the pattern API prevent mismatches of
  anonymous receives during recovery (:mod:`repro.core.protocol`);
* after a failure only the failed cluster rolls back; other clusters
  replay logged messages per channel, in sequence-number order, with no
  inter-process synchronization (:mod:`repro.core.recovery` online path,
  :mod:`repro.core.emulated` paper-methodology path).
"""

from repro.core.clusters import ClusterMap
from repro.core.logstore import LogRecord, LogStore
from repro.core.protocol import SPBC, SPBCConfig, LogCostModel
from repro.core.checkpoint import Checkpoint
from repro.core.recovery import RecoveryManager
from repro.core.emulated import ReplayPlan, replayer_process

__all__ = [
    "ClusterMap",
    "LogRecord",
    "LogStore",
    "SPBC",
    "SPBCConfig",
    "LogCostModel",
    "Checkpoint",
    "RecoveryManager",
    "ReplayPlan",
    "replayer_process",
]
