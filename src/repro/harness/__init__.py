"""Experiment harness: run apps under a protocol, measure, reproduce the
paper's tables and figures."""

from repro.harness.runner import (
    RunResult,
    RunSpec,
    RecoveryResult,
    execute,
    run_app,
    run_native,
    run_spbc,
    run_emulated_recovery,
    run_failure_schedule,
    run_online_failure,
)

__all__ = [
    "RunResult",
    "RunSpec",
    "RecoveryResult",
    "execute",
    "run_app",
    "run_native",
    "run_spbc",
    "run_emulated_recovery",
    "run_failure_schedule",
    "run_online_failure",
]
