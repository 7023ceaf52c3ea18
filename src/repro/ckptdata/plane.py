"""The incremental checkpoint data plane.

Sits between the protocol and the storage backends: the protocol asks it
to turn "rank ``r`` checkpoints at round ``n``" into a
:class:`CkptPayload` — **full** (the whole region set) or **delta** (the
dirty-region union since the previous round) — runs the modeled
compression stage, and maintains each rank's **delta chain** so the
storage layer can reason about which rounds are actually restorable.

Chain semantics
---------------

* Round payloads form per-rank chains: a delta's ``base_round`` is the
  immediately preceding checkpoint round; walking base links from any
  round reaches the chain's full checkpoint.
* A full payload is produced: on a rank's first checkpoint, every
  ``full_period`` rounds (so a chain holds at most ``full_period - 1``
  deltas), after a restart (a delta must never span a rollback — the
  re-executed state has no committed base), and — unless
  ``full_on_durable=False`` — on rounds the storage plan propagates to
  the shared durable tier (so a PFS round is self-contained, FTI/SCR
  style; the free ``memory`` tier is durable but not shared, so it
  keeps writing deltas).
* Restoring round ``n`` means reading the whole chain ``full..n``; a
  delta whose base copy was lost with a node is unusable (the storage
  backend enforces this, see ``TieredBackend.restorable_rounds``).

The sender-side log bytes ride along with whatever payload the round
produces (they are already incremental: only records not carried by an
earlier commit are resident), and the compression stage covers the
combined blob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ckptdata.compression import (
    CompressionModel,
    NO_COMPRESSION,
    compression_model,
)
from repro.ckptdata.regions import WriteLocalityProfile, synthetic_default_profile

FULL = "full"
DELTA = "delta"


@dataclass(frozen=True)
class CkptPayload:
    """What one checkpoint round actually writes for one rank.

    ``full_bytes`` is the logical (uncompressed, full-state) size the
    round *represents*; ``delta_bytes`` is the uncompressed size of what
    this round carries (== ``full_bytes + log_bytes`` for a full);
    ``stored_bytes`` is what the storage tiers are charged for after
    compression."""

    kind: str  # FULL | DELTA
    round_no: int
    full_bytes: int  # uncompressed full state size (app regions)
    delta_bytes: int  # uncompressed bytes carried this round (incl. logs)
    base_round: Optional[int]  # previous chain link (None for a full)
    stored_bytes: int  # bytes written to storage (post-compression)
    compress_ns: int  # modeled compression CPU time, charged to the clock
    compression: str = "none"
    chain_len: int = 0  # deltas since the chain's full (0 for a full)

    def __post_init__(self) -> None:
        if self.kind not in (FULL, DELTA):
            raise ValueError(f"payload kind must be full|delta, got {self.kind!r}")
        if self.kind == FULL and self.base_round is not None:
            raise ValueError("a full payload has no base round")
        if self.kind == DELTA and self.base_round is None:
            raise ValueError("a delta payload needs a base round")


@dataclass
class _RankChain:
    """Per-rank chain cursor."""

    last_round: int = 0
    chain_len: int = 0  # deltas since the last full
    force_full: bool = True  # first checkpoint / after restart


class CkptDataPlane:
    """Produces payloads and tracks per-rank delta chains.

    ``mode="full"`` makes every round a full checkpoint (the data plane
    still models sizes and compression); ``mode="incr"`` produces deltas
    between periodic fulls."""

    def __init__(
        self,
        mode: str = "incr",
        full_period: int = 8,
        compression: CompressionModel = NO_COMPRESSION,
        profile: Optional[WriteLocalityProfile] = None,
        full_on_durable: bool = True,
    ) -> None:
        if mode not in ("full", "incr"):
            raise ValueError(f"ckpt-data mode must be full|incr, got {mode!r}")
        if full_period < 1:
            raise ValueError(f"full_period must be >= 1, got {full_period}")
        self.mode = mode
        self.full_period = full_period
        self.compression = compression
        self.profile = profile or synthetic_default_profile()
        self.full_on_durable = full_on_durable
        self._chains: Dict[int, _RankChain] = {}
        # Accounting (reported by the deltachain experiment).
        self.full_payloads = 0
        self.delta_payloads = 0
        self.raw_bytes = 0  # uncompressed bytes handed to compression
        self.stored_bytes_total = 0
        self.compress_ns_total = 0

    # ------------------------------------------------------------------
    def _chain(self, rank: int) -> _RankChain:
        ch = self._chains.get(rank)
        if ch is None:
            ch = self._chains[rank] = _RankChain()
        return ch

    def note_restore(self, rank: int, round_no: int) -> None:
        """The rank restarted from ``round_no``: the next payload must be
        a full (a delta over a rolled-back base would be unsound — the
        base the re-execution produces was never committed)."""
        ch = self._chain(rank)
        ch.last_round = round_no
        ch.chain_len = 0
        ch.force_full = True

    def _wants_full(self, ch: _RankChain, round_no: int, durable_round: bool) -> bool:
        if self.mode == "full" or ch.force_full:
            return True
        if round_no != ch.last_round + 1:
            return True  # non-contiguous rounds (re-taken after rollback)
        if ch.chain_len + 1 >= self.full_period:
            return True
        if durable_round and self.full_on_durable:
            return True
        return False

    def build_payload(
        self,
        rank: int,
        round_no: int,
        iters_since_prev: int,
        log_bytes: int = 0,
        durable_round: bool = False,
        state_bytes: Optional[int] = None,
    ) -> CkptPayload:
        """Payload for ``rank``'s checkpoint of ``round_no``.

        ``iters_since_prev`` is the number of application iterations
        covered since the previous checkpoint (the dirty-region window);
        ``log_bytes`` rides along uncompressed-size-wise and is
        compressed with the state blob; ``durable_round`` tells the plane
        the storage plan writes its shared durable tier (the PFS) this
        round."""
        full_bytes = state_bytes if state_bytes else self.profile.total_bytes
        ch = self._chain(rank)
        if self._wants_full(ch, round_no, durable_round):
            kind, base, chain_len = FULL, None, 0
            carried = full_bytes
        else:
            kind, base = DELTA, ch.last_round
            chain_len = ch.chain_len + 1
            delta = self.profile.delta_bytes(max(1, iters_since_prev))
            if state_bytes:
                # An app-declared size scales the profile's delta by the
                # same factor (the profile defines the *shape*).
                delta = int(delta * (state_bytes / max(1, self.profile.total_bytes)))
            carried = min(full_bytes, delta)
        raw = carried + max(0, log_bytes)
        stored, cost_ns = self.compression.compress(raw)
        payload = CkptPayload(
            kind=kind,
            round_no=round_no,
            full_bytes=full_bytes,
            delta_bytes=raw,
            base_round=base,
            stored_bytes=stored,
            compress_ns=cost_ns,
            compression=self.compression.name,
            chain_len=chain_len,
        )
        ch.last_round = round_no
        ch.chain_len = chain_len
        ch.force_full = False
        if kind == FULL:
            self.full_payloads += 1
        else:
            self.delta_payloads += 1
        self.raw_bytes += raw
        self.stored_bytes_total += stored
        self.compress_ns_total += cost_ns
        return payload

    # ------------------------------------------------------------------
    def expected_stored_bytes(
        self, iters_per_round: int = 1, full_period: Optional[int] = None
    ) -> int:
        """Expected bytes written per checkpoint round in steady state:
        one full plus ``period - 1`` deltas per cycle, compressed.
        Feeds the Young/Daly cadence's write-cost ``C`` so the interval
        optimizes against the *incremental* cost, not the full size.

        ``full_period`` overrides the configured one with the *effective*
        full cadence when something forces fulls more often (the caller
        knows the storage plan's PFS-round density)."""
        period = full_period if full_period is not None else self.full_period
        period = max(1, min(period, self.full_period))
        full_stored, _ = self.compression.compress(self.profile.total_bytes)
        if self.mode == "full" or period <= 1:
            return full_stored
        delta_raw = self.profile.delta_bytes(max(1, iters_per_round))
        delta_stored, _ = self.compression.compress(delta_raw)
        cycle = full_stored + (period - 1) * delta_stored
        return cycle // period

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "full_period": self.full_period,
            "compression": self.compression.name,
            "full_payloads": self.full_payloads,
            "delta_payloads": self.delta_payloads,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes_total,
            "compress_ns": self.compress_ns_total,
        }


def parse_ckpt_data(
    spec: str, profile: Optional[WriteLocalityProfile] = None
) -> CkptDataPlane:
    """Build a data plane from a CLI spec string.

    * ``"full"`` — full payloads every round (sizes + compression still
      modeled);
    * ``"incr"`` — deltas with the default full period (8);
    * ``"incr:4"`` — a full every 4th round;
    * ``"incr:4:zlib-like"`` — plus the deflate-class compression stage;
    * ``"full::zlib-like"`` — full payloads, compressed.
    """
    parts = spec.split(":")
    mode = parts[0].strip()
    if mode not in ("full", "incr"):
        raise ValueError(
            f"unknown ckpt-data mode {mode!r} in spec {spec!r} "
            "(write e.g. 'full', 'incr', 'incr:4', 'incr:4:zlib-like')"
        )
    if len(parts) > 3:
        raise ValueError(
            f"too many ':' fields in ckpt-data spec {spec!r} "
            "(format: mode[:period][:compression])"
        )
    period = 8
    if len(parts) > 1 and parts[1].strip():
        try:
            period = int(parts[1])
        except ValueError:
            raise ValueError(
                f"bad full period {parts[1]!r} in ckpt-data spec {spec!r}: "
                "expected an integer (write e.g. 'incr:4')"
            ) from None
        if period < 1:
            raise ValueError(
                f"bad full period {period} in ckpt-data spec {spec!r}: "
                "must be >= 1"
            )
    comp = NO_COMPRESSION
    if len(parts) > 2 and parts[2].strip():
        comp = compression_model(parts[2].strip())
    return CkptDataPlane(
        mode=mode, full_period=period, compression=comp, profile=profile
    )
