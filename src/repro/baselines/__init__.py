"""Baselines SPBC is compared against.

* :mod:`repro.baselines.hydee` — HydEE [19]: the only other protocol with
  failure containment and no reliable event logging; needs a centralized
  coordinator to order replayed messages during recovery (Figure 6).

The two extremes the hybrid design interpolates between are SPBC itself
at its endpoints: ``ClusterMap.single`` (pure coordinated checkpointing,
global rollback; the k=1 row of ``python -m repro ablation_online``) and
``ClusterMap.singletons`` (pure message logging; Table 1's last row).
"""

from repro.baselines.hydee import (
    HydEEPlan,
    run_hydee_recovery,
)

__all__ = [
    "HydEEPlan",
    "run_hydee_recovery",
]
