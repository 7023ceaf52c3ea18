"""Network and topology model.

The model mirrors what the SPBC evaluation ran on: a cluster of nodes
(8 ranks per node in the paper) connected by a flat fabric.  Message cost
uses the classic alpha-beta model with distinct parameters for intra-node
(shared memory) and inter-node (InfiniBand/IPoIB) transfers:

    arrival = depart + alpha + nbytes * beta (+ jitter)

Guarantees:

* **Per-channel FIFO** — packets on a directed (src, dst) pair arrive in
  send order, matching MPI's non-overtaking rule that SPBC's per-channel
  sequence numbers rely on.
* **Sender NIC serialization** — a rank injects one packet at a time at
  the injection bandwidth, so a burst of sends is spaced realistically
  (this is what makes "skipping inter-cluster sends" profitable during
  recovery, paper section 6.4).
* Optional seeded jitter perturbs arrival times without breaking FIFO;
  different seeds give different-but-valid executions, which is how the
  determinism checkers produce "other executions in E_A".

Failure support: all in-flight packets to and from a set of ranks can be
purged atomically (used when a cluster rolls back).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.util.units import KB, US


@dataclass(frozen=True)
class Topology:
    """Placement of ranks onto nodes; ranks are block-distributed."""

    nranks: int
    ranks_per_node: int = 8

    def __post_init__(self) -> None:
        if self.nranks <= 0 or self.ranks_per_node <= 0:
            raise ValueError("nranks and ranks_per_node must be positive")

    @property
    def nnodes(self) -> int:
        return (self.nranks + self.ranks_per_node - 1) // self.ranks_per_node

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0,{self.nranks})")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def ranks_on_node(self, node: int) -> range:
        lo = node * self.ranks_per_node
        hi = min(lo + self.ranks_per_node, self.nranks)
        if lo >= self.nranks:
            raise ValueError(f"node {node} out of range")
        return range(lo, hi)


@dataclass(frozen=True)
class NetworkParams:
    """Latency/bandwidth parameters (defaults ~ IPoIB on IB 20G + shm).

    beta values are ns/byte: 0.8 ns/B ~ 1.25 GB/s effective inter-node,
    0.12 ns/B ~ 8 GB/s intra-node.  alpha values are one-way latencies.
    """

    alpha_inter_ns: int = 8 * US
    beta_inter_ns_per_byte: float = 0.8
    alpha_intra_ns: int = 400
    beta_intra_ns_per_byte: float = 0.12
    # Sender-side injection (NIC/memcpy) cost per byte; serializes sends.
    inject_ns_per_byte: float = 0.25
    inject_fixed_ns: int = 300
    # Uniform random extra latency in [0, jitter_max_ns]; 0 disables.
    jitter_max_ns: int = 0

    def wire_time(self, same_node: bool, nbytes: int) -> int:
        if same_node:
            return self.alpha_intra_ns + int(nbytes * self.beta_intra_ns_per_byte)
        return self.alpha_inter_ns + int(nbytes * self.beta_inter_ns_per_byte)

    def inject_time(self, nbytes: int) -> int:
        return self.inject_fixed_ns + int(nbytes * self.inject_ns_per_byte)


@dataclass(slots=True)
class Packet:
    """One transfer on the wire (an MPI message fragment or control msg)."""

    src: int
    dst: int
    payload: object
    nbytes: int
    sent_at: int = 0
    inject_done_at: int = 0  # when the sender's NIC finished injecting
    arrives_at: int = 0
    channel_seq: int = 0  # network-level FIFO index on (src, dst)


class Network:
    """Connects ranks; delivers packets to a per-rank callback."""

    __slots__ = (
        "engine",
        "topology",
        "params",
        "_rng",
        "_pcache",
        "_chan_state",
        "_nic_free",
        "_node_of",
        "_sinks",
        "_in_flight",
        "_flight_ids",
        "packets_sent",
        "bytes_sent",
    )

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        params: Optional[NetworkParams] = None,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.params = params or NetworkParams()
        p = self.params
        # Hot-path constants unpacked per send in one tuple load.
        self._pcache = (
            p.inject_fixed_ns, p.inject_ns_per_byte,
            p.alpha_intra_ns, p.beta_intra_ns_per_byte,
            p.alpha_inter_ns, p.beta_inter_ns_per_byte,
        )
        self._rng = random.Random(seed ^ 0x5B5C_2013)
        # Per-directed-pair [last_arrival_ns, fifo_seq], one dict per
        # source rank keyed by destination, filled on a pair's first
        # send: memory is O(pairs that sent).  (A flat src*nranks+dst
        # list saves the dict probe but costs 2 GiB at 16384 ranks, all
        # of it walked by every full GC pass.)  FIFO enforcement and
        # channel numbering share the entry.
        self._chan_state: List[Dict[int, List[int]]] = [
            {} for _ in range(topology.nranks)
        ]
        # Per-rank NIC availability time (sender serialization).
        self._nic_free: List[int] = [0] * topology.nranks
        # Cached rank -> node map (send-path: same-node test is two list
        # indexings instead of a method call with range checks).
        self._node_of: List[int] = [
            topology.node_of(r) for r in range(topology.nranks)
        ]
        # Delivery sinks, installed by the MPI runtimes.
        self._sinks: List[Optional[Callable[[Packet], None]]] = [
            None
        ] * topology.nranks
        # In-flight packets by flight id (failure purge removes entries;
        # the delivery event then no-ops).
        self._in_flight: Dict[int, Packet] = {}
        self._flight_ids = 0
        # Counters (useful for tests/benches).
        self.packets_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    def attach(self, rank: int, sink: Callable[[Packet], None]) -> None:
        """Install the delivery callback for ``rank``."""
        self._sinks[rank] = sink

    def detach(self, rank: int) -> None:
        self._sinks[rank] = None

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: object, nbytes: int) -> Packet:
        """Inject a packet; returns it (with ``arrives_at`` filled in).

        The sender's NIC is busy until injection completes; the packet then
        takes ``wire_time`` and arrives no earlier than the previous packet
        on the same directed pair (FIFO).
        """
        if src == dst:
            raise ValueError("network send to self is not modeled; loopback "
                             "messages are handled inside the MPI runtime")
        if nbytes < 0:
            raise ValueError("negative nbytes")
        inj_f, inj_b, a_in, b_in, a_ex, b_ex = self._pcache
        engine = self.engine
        now = engine.now
        inject = inj_f + int(nbytes * inj_b)
        nic_free = self._nic_free
        start = nic_free[src]
        if now > start:
            start = now
        nic_free[src] = start + inject
        node_of = self._node_of
        if node_of[src] == node_of[dst]:
            wire = a_in + int(nbytes * b_in)
        else:
            wire = a_ex + int(nbytes * b_ex)
        jitter_max = self.params.jitter_max_ns
        jitter = self._rng.randrange(jitter_max + 1) if jitter_max else 0
        arrival = start + inject + wire + jitter
        row = self._chan_state[src]
        try:
            state = row[dst]
        except KeyError:  # the pair's first send
            state = row[dst] = [0, 0]
        if arrival <= state[0]:
            arrival = state[0] + 1  # preserve FIFO and strict ordering
        state[0] = arrival
        seq = state[1] + 1
        state[1] = seq

        pkt = Packet(src, dst, payload, nbytes, now, start + inject, arrival, seq)
        fid = self._flight_ids = self._flight_ids + 1
        # No cancellation handle: purging a packet removes it from the
        # in-flight table, and the delivery event no-ops on the miss.
        # (schedule_at_fast inlined — arrival >= now by construction.)
        engine._seq += 1
        engine._push((arrival, engine._seq, None, self._deliver, (fid,)))
        self._in_flight[fid] = pkt
        self.packets_sent += 1
        self.bytes_sent += nbytes
        return pkt

    def _deliver(self, fid: int) -> None:
        pkt = self._in_flight.pop(fid, None)
        if pkt is None:
            return  # purged at rollback time
        sink = self._sinks[pkt.dst]
        if sink is None:
            return  # destination dead and not yet restarted: packet lost
        sink(pkt)

    # ------------------------------------------------------------------
    def purge_involving(self, ranks: set[int]) -> int:
        """Drop every in-flight packet to or from ``ranks``.

        Used at rollback time: a failed cluster loses its in-flight traffic
        in both directions (paper model: crash kills the node's transport).
        Returns the number of packets dropped.
        """
        doomed = [
            fid
            for fid, pkt in self._in_flight.items()
            if pkt.src in ranks or pkt.dst in ranks
        ]
        for fid in doomed:
            del self._in_flight[fid]
        return len(doomed)

    def chan_state_items(self):
        """Directed pairs that have sent, as ((src, dst), [last_arrival,
        seq]) in ascending (src, dst) order (warp snapshot/apply helper)."""
        for src, row in enumerate(self._chan_state):
            for dst in sorted(row):
                yield (src, dst), row[dst]


DEFAULT_EAGER_THRESHOLD = 64 * KB
