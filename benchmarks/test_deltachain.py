"""Delta chains: incremental vs full checkpoint payloads.

The scalability axis the data plane opens: how many bytes actually move
toward storage per checkpoint round, and what a chain-aware restart
costs.  The acceptance shape: on at least two paper apps with large
read-mostly regions, incremental mode writes measurably fewer total
bytes than full-every-round while recovery still restarts from a
consistent (chain-complete) round.

Shape targets:

* incremental mode writes < 60% of full mode's bytes on both apps;
* deltas appear between the periodic fulls (the chain is real);
* both modes restart from a durable round after a node failure (the
  chain-aware restorable-rounds logic never picks a stranded delta).
"""

import pytest

from repro.harness.experiments import DELTACHAIN_APPS


@pytest.mark.benchmark(group="deltachain")
def test_deltachain_incremental_writes_fewer_bytes(regenerate):
    rows = regenerate("deltachain")
    by = {(r.app, r.mode): r for r in rows}
    for name in DELTACHAIN_APPS:
        full, incr = by[(name, "full")], by[(name, "incr")]
        # The headline: measurably fewer bytes on the storage tiers.
        assert incr.written_mb < 0.6 * full.written_mb, (name, incr, full)
        # The chain is real: deltas between periodic fulls.
        assert incr.delta_payloads > 0
        assert incr.full_payloads < full.full_payloads
        # Chain-aware restart picked a reconstructible durable round.
        assert incr.restarted_from_round > 0
        assert incr.restored_tier == "pfs"
        assert full.restarted_from_round > 0
        # The storage tiers see a cheaper write path.  (End-to-end time
        # is a genuine tradeoff: the deflate-class compression stage
        # spends CPU comparable to the bandwidth it saves — visible in
        # compress_ms_per_rank next to write_ms_per_rank in the table.)
        assert incr.write_ms_per_rank < full.write_ms_per_rank
