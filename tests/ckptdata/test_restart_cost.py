"""Region-level restart cost: modeled decompression on retrieve/restart.

Compression is charged on the write path; the restart path has the
matching decode stage with its own (asymmetric) throughput.  The
closed-form default keeps the seed's read-only restart delay —
``RestoreReceipt.decompress_ns`` is always reported, but only async
flush's flow restores add it to the restart delay
(tests/storage/test_iosched.py).
"""

import pytest

from repro.apps.synthetic import ring_app
from repro.ckptdata.compression import CompressionModel, compression_model
from repro.ckptdata.plane import CkptDataPlane
from repro.ckptdata.regions import TEST_PROFILE
from repro.core.clusters import ClusterMap
from repro.core.protocol import SPBCConfig
from repro.harness.runner import run_failure_schedule, run_native
from repro.storage.backend import TieredBackend, parse_plan
from repro.util.units import MB


def test_decompression_is_asymmetric_for_the_named_models():
    for name in ("zlib-like", "lz4-like"):
        m = compression_model(name)
        raw = 64 * MB
        _stored, compress_ns = m.compress(raw)
        decompress_ns = m.decompress_cost_ns(raw)
        assert 0 < decompress_ns < compress_ns, name
        assert m.decompress_throughput_bytes_per_s > m.throughput_bytes_per_s


def test_identity_stage_decompresses_for_free():
    m = compression_model("none")
    assert m.decompress_cost_ns(64 * MB) == 0


def test_symmetric_fallback_when_no_decode_throughput_is_given():
    m = CompressionModel(name="sym", ratio=2.0, throughput_bytes_per_s=1e9)
    raw = 10 * MB
    assert m.decompress_cost_ns(raw) == m.compress(raw)[1]


def test_decompress_validation():
    with pytest.raises(ValueError, match="decompress throughput"):
        CompressionModel(
            name="bad",
            ratio=2.0,
            throughput_bytes_per_s=1e9,
            decompress_throughput_bytes_per_s=0,
        )
    with pytest.raises(ValueError, match="negative"):
        compression_model("zlib-like").decompress_cost_ns(-1)


def _plane():
    return CkptDataPlane(
        full_period=3,
        profile=TEST_PROFILE,
        compression=compression_model("zlib-like"),
    )


def _failure_run(backend_factory, fail_frac=0.8):
    nranks, rpn = 8, 2
    clusters = ClusterMap.block(nranks, 4)
    factory = ring_app(iters=10, msg_bytes=2048, compute_ns=200_000)
    ref = run_native(factory, nranks, ranks_per_node=rpn)
    probe = run_failure_schedule(
        factory, nranks, clusters, [],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=rpn, storage=backend_factory(), ckpt_data=_plane(),
        profile=TEST_PROFILE,
    )
    fail_at = int(probe.makespan_ns * fail_frac)
    out = run_failure_schedule(
        factory, nranks, clusters,
        [(fail_at, 0, "node")],
        config=SPBCConfig(clusters=clusters, checkpoint_every=2),
        ranks_per_node=rpn, storage=backend_factory(), ckpt_data=_plane(),
        profile=TEST_PROFILE,
    )
    assert out.results == ref.results
    return out


def test_receipt_reports_decompress_ns_for_compressed_chains():
    out = _failure_run(lambda: TieredBackend(parse_plan("ram@1,pfs@2")))
    ev = out.manager.failures[0]
    assert ev.restarted_from_round > 0
    # Reported on the event even though the default path does not
    # charge it (seed restart delays stay bit-identical).
    assert ev.restore_decompress_ns > 0
    backend = out.world.hooks.storage
    rec = backend.retrieve(2, backend.restorable_rounds(2)[-1])
    assert rec.decompress_ns > 0
    # The decode stage matches the model's math for the chain.
    model = compression_model("zlib-like")
    expected = sum(
        model.decompress_cost_ns(
            backend.retrieve(2, rnd).ckpt.payload.delta_bytes
        )
        for rnd in (rec.chain or (rec.ckpt.round_no,))
    )
    assert rec.decompress_ns == expected

