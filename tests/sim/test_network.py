"""Unit and property tests for the network model (FIFO is the paper's
foundational channel assumption, section 3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.network import Network, NetworkParams, Packet, Topology


def make_net(nranks=4, ranks_per_node=2, jitter=0, seed=0):
    eng = Engine()
    topo = Topology(nranks=nranks, ranks_per_node=ranks_per_node)
    net = Network(eng, topo, NetworkParams(jitter_max_ns=jitter), seed=seed)
    return eng, net


def test_topology_node_mapping():
    topo = Topology(nranks=16, ranks_per_node=8)
    assert topo.nnodes == 2
    assert topo.node_of(0) == 0 and topo.node_of(7) == 0
    assert topo.node_of(8) == 1
    assert topo.same_node(1, 7) and not topo.same_node(7, 8)
    assert list(topo.ranks_on_node(1)) == list(range(8, 16))


def test_topology_ragged_last_node():
    topo = Topology(nranks=10, ranks_per_node=4)
    assert topo.nnodes == 3
    assert list(topo.ranks_on_node(2)) == [8, 9]


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(nranks=0)
    topo = Topology(nranks=4, ranks_per_node=2)
    with pytest.raises(ValueError):
        topo.node_of(4)
    with pytest.raises(ValueError):
        topo.ranks_on_node(5)


def test_delivery_reaches_sink_with_latency():
    eng, net = make_net()
    got = []
    net.attach(1, got.append)
    pkt = net.send(0, 1, "hi", 100)
    eng.run()
    assert len(got) == 1 and got[0].payload == "hi"
    assert pkt.arrives_at > 0
    assert eng.now == pkt.arrives_at


def test_intra_node_faster_than_inter_node():
    eng, net = make_net(nranks=4, ranks_per_node=2)
    t_intra = net.send(0, 1, "a", 4096).arrives_at
    t_inter = net.send(0, 2, "b", 4096).arrives_at
    # second send also pays NIC serialization; compare wire components
    p = net.params
    assert p.wire_time(True, 4096) < p.wire_time(False, 4096)
    assert t_intra < t_inter


def test_self_send_rejected():
    _eng, net = make_net()
    with pytest.raises(ValueError):
        net.send(2, 2, "x", 1)


def test_sender_nic_serializes_bursts():
    eng, net = make_net()
    net.attach(1, lambda p: None)
    a = net.send(0, 1, "a", 50_000)
    b = net.send(0, 1, "b", 50_000)
    # b cannot start injecting before a finished injecting
    assert b.arrives_at > a.arrives_at
    inject = net.params.inject_time(50_000)
    assert b.arrives_at - a.arrives_at >= inject - 1


def test_fifo_same_channel_even_with_mixed_sizes():
    eng, net = make_net()
    arrivals = []
    net.attach(1, lambda p: arrivals.append(p.payload))
    net.send(0, 1, "big", 1_000_000)
    net.send(0, 1, "small", 8)
    eng.run()
    assert arrivals == ["big", "small"]


def test_purge_drops_inflight_both_directions():
    eng, net = make_net()
    got = []
    net.attach(0, got.append)
    net.attach(1, got.append)
    net.attach(2, got.append)
    net.send(0, 1, "to-failed", 10)
    net.send(1, 2, "from-failed", 10)
    net.send(0, 2, "unrelated", 10)
    dropped = net.purge_involving({1})
    eng.run()
    assert dropped == 2
    assert [p.payload for p in got] == ["unrelated"]


def test_detached_sink_drops_packet():
    eng, net = make_net()
    net.send(0, 1, "x", 10)  # rank 1 has no sink
    eng.run()  # must not raise


def test_counters():
    eng, net = make_net()
    net.attach(1, lambda p: None)
    net.send(0, 1, "x", 10)
    net.send(0, 1, "y", 20)
    assert net.packets_sent == 2
    assert net.bytes_sent == 30


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=2_000_000), min_size=1, max_size=40),
    jitter=st.integers(min_value=0, max_value=20_000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_fifo_per_channel_under_jitter(sizes, jitter, seed):
    """Arrival order == send order on a directed pair, for any sizes/jitter."""
    eng, net = make_net(jitter=jitter, seed=seed)
    order = []
    net.attach(1, lambda p: order.append(p.channel_seq))
    for i, size in enumerate(sizes):
        net.send(0, 1, i, size)
    eng.run()
    assert order == sorted(order) == list(range(1, len(sizes) + 1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_same_seed_same_arrivals(seed):
    def arrivals(s):
        eng, net = make_net(jitter=5000, seed=s)
        out = []
        net.attach(1, lambda p: out.append((p.channel_seq, p.arrives_at)))
        for i in range(10):
            net.send(0, 1, i, 1000 * i)
        eng.run()
        return out

    assert arrivals(seed) == arrivals(seed)


# ----------------------------------------------------------------------
# Sparse per-channel state: memory is O(pairs that sent), not O(nranks^2)
# ----------------------------------------------------------------------
def test_channel_table_holds_exactly_the_pairs_that_sent(monkeypatch):
    from repro.apps.synthetic import ring_app
    from repro.core.clusters import ClusterMap
    from repro.harness.runner import run_spbc

    nranks = 64
    sent = {}
    real_send = Network.send

    def recording_send(self, src, dst, payload, nbytes):
        pkt = real_send(self, src, dst, payload, nbytes)
        sent[(src, dst)] = pkt.channel_seq
        return pkt

    monkeypatch.setattr(Network, "send", recording_send)
    res = run_spbc(
        ring_app(iters=3, msg_bytes=512, compute_ns=10_000),
        nranks, ClusterMap.block(nranks, 8), trace=False,
    )
    items = list(res.world.network.chan_state_items())
    keys = [k for k, _ in items]
    assert keys == sorted(sent)  # exactly the senders, ascending (src, dst)
    assert len(keys) <= 4 * nranks  # a ring is O(n) pairs, not n^2
    # fifo_seq of each entry is the channel_seq of the pair's last packet.
    assert {pair: state[1] for pair, state in items} == sent


def test_repeated_pair_fifo_bump_and_channel_seq():
    eng, net = make_net()
    net.attach(1, lambda p: None)
    # A large packet followed by a tiny one: the tiny one's natural
    # arrival is earlier, so FIFO bumps it to last_arrival + 1.
    big = net.send(0, 1, "big", 1_000_000)
    eng.run(until_ns=net.params.inject_time(1_000_000))  # NIC idle again
    small = net.send(0, 1, "small", 0)
    other = net.send(0, 2, "other", 0)
    assert (big.channel_seq, small.channel_seq, other.channel_seq) == (1, 2, 1)
    assert small.arrives_at == big.arrives_at + 1
    assert list(net.chan_state_items()) == [
        ((0, 1), [small.arrives_at, 2]),
        ((0, 2), [other.arrives_at, 1]),
    ]


def test_network_construction_memory_is_linear_in_ranks():
    import tracemalloc

    topo = Topology(nranks=16384, ranks_per_node=8)
    eng = Engine()
    tracemalloc.start()
    try:
        net = Network(eng, topo)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.topology is topo
    # 2 GiB with an nranks*nranks table; ~1.6 MiB of per-rank rows now.
    assert allocated < 8 * 1024 * 1024
