"""Multi-level checkpoint planning (SCR/FTI-style, paper refs [3], [27]).

SPBC composes with multi-level checkpointing (paper reference [4]):
cluster checkpoints and logs go to fast local tiers at high frequency,
with periodic propagation to the PFS.  The plan here decides which
tiers each round writes (the store only executes that decision), and the Young/Daly-style optimal interval puts the
clustering trade-off's log-size numbers in context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.storage.model import StorageTier


@dataclass
class MultiLevelPlan:
    """Checkpoint levels, cheapest/most-frequent first."""

    tiers: Sequence[StorageTier]
    # every level-i checkpoint happens once per `period[i]` level-0 rounds
    periods: Sequence[int]
    # Rounds after which the write pattern repeats: lcm(periods).
    cycle: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tiers) != len(self.periods):
            raise ValueError("one period per tier")
        if not self.tiers:
            raise ValueError("at least one tier")
        if list(self.periods) != sorted(self.periods):
            raise ValueError("periods must be non-decreasing (rarer upward)")
        if self.periods[0] != 1:
            raise ValueError("the first tier runs every round")
        self.cycle = math.lcm(*self.periods)

    def tiers_written(self, round_no: int) -> Tuple[StorageTier, ...]:
        """Tiers checkpoint round ``round_no`` (1-based) writes: every
        tier whose period divides the round.  The one place this rule
        lives; it depends only on ``round_no % cycle``, so callers that
        ask per round memoise its answer per residue."""
        return tuple(
            t for t, period in zip(self.tiers, self.periods)
            if round_no % period == 0
        )


def optimal_interval_ns(ckpt_cost_ns: int, mtbf_ns: int) -> int:
    """Young's first-order optimal checkpoint interval:
    sqrt(2 * C * MTBF)."""
    if ckpt_cost_ns <= 0 or mtbf_ns <= 0:
        raise ValueError("costs and MTBF must be positive")
    return int(math.sqrt(2.0 * ckpt_cost_ns * mtbf_ns))


#: Public name used by ``checkpoint_every="auto"`` and the docs.
optimal_interval = optimal_interval_ns


def optimal_interval_rounds(
    ckpt_cost_ns: int, mtbf_ns: int, iter_ns: float, max_rounds: int = 1_000_000
) -> int:
    """Young/Daly interval expressed in application iterations: the
    number of ``maybe_checkpoint`` boundaries between checkpoints when
    one iteration takes ``iter_ns``.  Never below 1 (checkpointing less
    than every boundary is the only knob the protocol has) and clamped
    to ``max_rounds``."""
    if iter_ns <= 0:
        raise ValueError("iteration time must be positive")
    t_opt = optimal_interval_ns(ckpt_cost_ns, mtbf_ns)
    return max(1, min(max_rounds, round(t_opt / iter_ns)))
