"""Unit tests for the checkpoint data plane: region math, compression
cost accounting, payload/chain production, and the spec parser."""

import pytest

from repro.ckptdata.compression import (
    NO_COMPRESSION,
    compression_model,
    compression_names,
)
from repro.ckptdata.plane import (
    CkptDataPlane,
    CkptPayload,
    parse_ckpt_data,
)
from repro.ckptdata.regions import (
    MemoryRegion,
    WriteLocalityProfile,
    synthetic_default_profile,
    uniform_profile,
)
from repro.util.units import KB, MB, SEC


# ----------------------------------------------------------------------
# Regions: dirty coverage saturates, never exceeds the full size
# ----------------------------------------------------------------------

def test_region_dirty_bytes_saturate():
    r = MemoryRegion("field", 1000, 0.5)
    assert r.dirty_bytes(0) == 0
    assert r.dirty_bytes(1) == 500
    assert r.dirty_bytes(2) == 750  # 1 - 0.5^2
    assert r.dirty_bytes(100) <= 1000


def test_region_validation():
    with pytest.raises(ValueError, match="dirty_fraction"):
        MemoryRegion("x", 10, 1.5)
    with pytest.raises(ValueError, match="negative"):
        MemoryRegion("x", -1, 0.5)


def test_profile_totals_and_delta():
    p = WriteLocalityProfile(
        regions=(
            MemoryRegion("hot", 100, 1.0),
            MemoryRegion("cold", 900, 0.0),
        )
    )
    assert p.total_bytes == 1000
    assert p.delta_bytes(1) == 100  # only the hot region
    assert p.delta_bytes(50) == 100  # cold stays cold forever
    assert p.dirty_fraction(1) == pytest.approx(0.1)


def test_profile_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="duplicate"):
        WriteLocalityProfile(
            regions=(MemoryRegion("a", 1, 0.1), MemoryRegion("a", 2, 0.1))
        )
    with pytest.raises(ValueError, match="at least one region"):
        WriteLocalityProfile(regions=())


def test_synthetic_default_is_nonzero():
    p = synthetic_default_profile()
    assert p.total_bytes == 4 * MB
    assert 0 < p.delta_bytes(1) < p.total_bytes


# ----------------------------------------------------------------------
# Compression: ratio + CPU cost accounting
# ----------------------------------------------------------------------

def test_no_compression_is_free_identity():
    stored, cost = NO_COMPRESSION.compress(12345)
    assert stored == 12345 and cost == 0


def test_zlib_like_shrinks_and_charges_cpu():
    m = compression_model("zlib-like")
    stored, cost = m.compress(10 * MB)
    assert stored == int(10 * MB / m.ratio)
    # cost = fixed + bytes / throughput
    assert cost == m.fixed_ns + int(10 * MB / m.throughput_bytes_per_s * SEC)
    assert cost > 0


def test_compression_model_lookup_and_errors():
    assert set(compression_names()) == {"none", "zlib-like", "lz4-like"}
    with pytest.raises(ValueError, match="unknown compression"):
        compression_model("zstd")


# ----------------------------------------------------------------------
# The plane: full/delta decisions and chain bookkeeping
# ----------------------------------------------------------------------

def plane(**kw):
    kw.setdefault("profile", uniform_profile(100 * KB, 0.2))
    return CkptDataPlane(**kw)


def test_first_checkpoint_is_full_then_deltas_until_period():
    p = plane(full_period=4)
    kinds = [
        p.build_payload(0, rnd, iters_since_prev=1).kind for rnd in range(1, 9)
    ]
    # round 1 full, 2-4 deltas, 5 full (period), 6-8 deltas
    assert kinds == ["full", "delta", "delta", "delta",
                     "full", "delta", "delta", "delta"]


def test_delta_base_links_form_a_chain():
    p = plane(full_period=4)
    payloads = [p.build_payload(0, rnd, 1) for rnd in range(1, 5)]
    assert payloads[0].base_round is None
    assert [x.base_round for x in payloads[1:]] == [1, 2, 3]
    assert [x.chain_len for x in payloads] == [0, 1, 2, 3]


def test_a_chain_holds_at_most_full_period_minus_one_deltas():
    p = plane(full_period=3)
    lens = [p.build_payload(0, rnd, 1).chain_len for rnd in range(1, 5)]
    p.note_restore(0, 4)  # a restart restarts the chain
    lens += [p.build_payload(0, rnd, 1).chain_len for rnd in range(5, 9)]
    assert lens == [0, 1, 2, 0, 0, 1, 2, 0]


def test_full_mode_never_produces_deltas():
    p = plane(mode="full")
    for rnd in range(1, 5):
        assert p.build_payload(0, rnd, 1).kind == "full"


def test_durable_round_forces_a_full():
    p = plane(full_period=100)
    p.build_payload(0, 1, 1)
    assert p.build_payload(0, 2, 1, durable_round=True).kind == "full"
    # ... and the chain restarts from there
    assert p.build_payload(0, 3, 1).base_round == 2


def test_restore_forces_a_full_and_resets_the_chain():
    p = plane(full_period=100)
    for rnd in range(1, 4):
        p.build_payload(0, rnd, 1)
    p.note_restore(0, 2)  # rolled back to round 2
    redone = p.build_payload(0, 3, 1)
    assert redone.kind == "full"


def test_non_contiguous_round_forces_a_full():
    p = plane(full_period=100)
    p.build_payload(0, 1, 1)
    assert p.build_payload(0, 5, 1).kind == "full"  # gap: no valid base


def test_delta_grows_with_the_iteration_window_and_caps_at_full():
    p = plane(profile=uniform_profile(100 * KB, 0.3), full_period=100)
    p.build_payload(0, 1, 1)
    small = p.build_payload(0, 2, iters_since_prev=1)
    p2 = plane(profile=uniform_profile(100 * KB, 0.3), full_period=100)
    p2.build_payload(0, 1, 1)
    big = p2.build_payload(0, 2, iters_since_prev=10)
    assert small.delta_bytes < big.delta_bytes <= 100 * KB


def test_log_bytes_ride_along_and_are_compressed():
    comp = compression_model("zlib-like")
    p = plane(compression=comp)
    payload = p.build_payload(0, 1, 1, log_bytes=50 * KB)
    raw = p.profile.total_bytes + 50 * KB
    stored, cost = comp.compress(raw)
    assert payload.delta_bytes == raw
    assert payload.stored_bytes == stored
    assert payload.compress_ns == cost
    # the plane's accounting matches the payload stream
    assert p.stats()["raw_bytes"] == raw
    assert p.stats()["stored_bytes"] == stored
    assert p.stats()["compress_ns"] == cost


def test_expected_stored_bytes_sits_between_delta_and_full():
    p = plane(profile=uniform_profile(1 * MB, 0.1), full_period=8)
    full = 1 * MB
    delta = p.profile.delta_bytes(1)
    expected = p.expected_stored_bytes(iters_per_round=1)
    assert delta < expected < full
    # full mode: expectation is the full size
    pf = plane(profile=uniform_profile(1 * MB, 0.1), mode="full")
    assert pf.expected_stored_bytes() == full


def test_payload_validation():
    with pytest.raises(ValueError, match="full\\|delta"):
        CkptPayload(
            kind="weird", round_no=1, full_bytes=1, delta_bytes=1,
            base_round=None, stored_bytes=1, compress_ns=0,
        )
    with pytest.raises(ValueError, match="base round"):
        CkptPayload(
            kind="delta", round_no=2, full_bytes=1, delta_bytes=1,
            base_round=None, stored_bytes=1, compress_ns=0,
        )
    with pytest.raises(ValueError, match="no base"):
        CkptPayload(
            kind="full", round_no=1, full_bytes=1, delta_bytes=1,
            base_round=0, stored_bytes=1, compress_ns=0,
        )


# ----------------------------------------------------------------------
# Spec parsing (the --ckpt-data CLI surface)
# ----------------------------------------------------------------------

def test_parse_ckpt_data_specs():
    assert parse_ckpt_data("full").mode == "full"
    p = parse_ckpt_data("incr")
    assert p.mode == "incr" and p.full_period == 8
    p = parse_ckpt_data("incr:4")
    assert p.full_period == 4
    p = parse_ckpt_data("incr:4:zlib-like")
    assert p.compression.name == "zlib-like"
    p = parse_ckpt_data("full::lz4-like")
    assert p.mode == "full" and p.compression.name == "lz4-like"


@pytest.mark.parametrize("bad, match", [
    ("weird", "unknown ckpt-data mode"),
    ("incr:x", "bad full period"),
    ("incr:0", "must be >= 1"),
    ("incr:4:zstd", "unknown compression"),
    ("incr:4:zlib-like:extra", "too many"),
])
def test_parse_ckpt_data_errors(bad, match):
    with pytest.raises(ValueError, match=match):
        parse_ckpt_data(bad)


def test_plane_constructor_validation():
    with pytest.raises(ValueError, match="mode"):
        CkptDataPlane(mode="diff")
    with pytest.raises(ValueError, match="full_period"):
        CkptDataPlane(full_period=0)


# ----------------------------------------------------------------------
# Zero-byte checkpoint warning (cost-modeled backend, no payload size)
# ----------------------------------------------------------------------

def test_zero_byte_checkpoint_warns_against_cost_modeled_backend():
    from repro.core.clusters import ClusterMap
    from repro.core.protocol import SPBCConfig
    from repro.harness.runner import run_spbc
    from repro.apps.synthetic import ring_app

    cm = ClusterMap.block(4, 4)  # singleton-ish clusters: rank 0 logs
    app = ring_app(iters=4, msg_bytes=0, compute_ns=50_000)
    with pytest.warns(RuntimeWarning, match="zero-byte checkpoint"):
        run_spbc(
            app, 4, cm,
            config=SPBCConfig(clusters=cm, checkpoint_every=2),
            storage="tiered:ram@1,pfs@2",
            ranks_per_node=2,
        )


def test_nonzero_state_bytes_do_not_warn():
    import warnings as _warnings

    from repro.core.clusters import ClusterMap
    from repro.core.protocol import SPBCConfig
    from repro.harness.runner import run_spbc
    from repro.apps.synthetic import ring_app

    cm = ClusterMap.block(4, 4)
    app = ring_app(iters=4, msg_bytes=64, compute_ns=50_000)
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", RuntimeWarning)
        run_spbc(
            app, 4, cm,
            config=SPBCConfig(
                clusters=cm, checkpoint_every=2, state_nbytes=4 * KB
            ),
            storage="tiered:ram@1,pfs@2",
            ranks_per_node=2,
        )
