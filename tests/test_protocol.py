"""Tests for the communication layer: epochs, frames, bit accounting,
aggregation, and the epoch engine."""

import dataclasses
import inspect
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedoms.protocol as protocol
from fedoms import learners, sampling
from fedoms.learners import LearnerConfig, check_epochs, run_fomd_oms, run_nco_oms
from fedoms.data import AdversarialSpec, Streams, generate_adversarial, synthetic_linear
from fedoms.protocol import (
    AuditLog,
    KIND_DOWNLINK,
    KIND_UPLINK,
    ProtocolError,
    RunInvariantError,
    bits_per_index,
    decode_frames,
    encode_frames,
)
from fedoms.spaces import CoordinateMap, IdentityMap, Loss, gaussian_rff, make_space

import oracles


# ---------------------------------------------------------------------------
# Epoch schedule


def test_epoch_schedule_partitions_rounds():
    # the trace labels rounds 1-4 epoch 1, rounds 5-8 epoch 2, and so on
    art = run_fomd_oms(_one_space_config(12, epochs=3), _constant_streams([1.0] * 12, [0.5] * 12))
    assert art.epochs == 3
    assert art.epoch_ids.tolist() == [1] * 4 + [2] * 4 + [3] * 4
    assert art.round_ids.tolist() == list(range(1, 13))


def test_epoch_schedule_rejects_ragged_split():
    check_epochs(12, 3)
    with pytest.raises(ValueError, match="divide"):
        check_epochs(10, 3)
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        check_epochs(10, 0)
    # the learner's config applies the same rule, and its own horizon check
    with pytest.raises(ValueError, match="divide"):
        _one_space_config(10, epochs=3)
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        _one_space_config(10, epochs=0)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        _one_space_config(0, epochs=1)


def test_single_round_epochs_are_the_identity_schedule():
    art = run_fomd_oms(_one_space_config(7), _constant_streams([1.0] * 7, [0.5] * 7))
    assert art.epochs == 7
    assert art.epoch_ids.tolist() == art.round_ids.tolist() == list(range(1, 8))


# ---------------------------------------------------------------------------
# Bit accounting


def test_bits_per_index_is_ceil_log2():
    assert bits_per_index(1) == 0
    assert bits_per_index(2) == 1
    assert bits_per_index(8) == 3
    assert bits_per_index(9) == 4
    assert bits_per_index(16) == 4
    assert bits_per_index(17) == 5
    with pytest.raises(ProtocolError):
        bits_per_index(0)


def _encode(kind, epoch, client_ids, indices, rows, num_spaces):
    """One frame per float row through :func:`encode_frames`, checked against the oracle.

    ``kind`` and ``epoch`` are each one value for every frame or one per
    frame; frame ``r`` goes to ``client_ids[r]`` and carries ``rows[r]`` (an
    uplink's mean losses first) and ``indices[r]``.  :func:`encode_frames`
    codes one kind per call, so each run of consecutive frames of one kind
    is encoded in its own call, and the buffers are joined in frame order.
    The buffer must hold the per-frame oracle's frames back to back.
    Returns the buffer and the frame lengths.
    """
    counts = np.array([len(row) for row in rows])
    floats = np.zeros((len(rows), counts.max()))
    for r, row in enumerate(rows):
        floats[r, :len(row)] = row
    client_ids = np.asarray(client_ids)
    indices = np.asarray(indices, dtype=np.int64)
    kinds = np.broadcast_to(kind, len(rows))
    epochs = np.broadcast_to(epoch, len(rows))
    cuts = [0, *np.flatnonzero(kinds[1:] != kinds[:-1]) + 1, len(rows)]
    parts = [encode_frames(int(kinds[lo]), epochs[lo:hi] if np.ndim(epoch) else epoch,
                           client_ids[lo:hi], indices[lo:hi], floats[lo:hi], counts[lo:hi],
                           num_spaces)
             for lo, hi in zip(cuts[:-1], cuts[1:])]
    buffer = np.concatenate([part[0] for part in parts])
    lengths = np.concatenate([part[1] for part in parts])
    frames = [oracles.reference_frame_bytes(int(k), int(e), int(c), idx.tolist(), row,
                                            num_spaces)
              for k, e, c, idx, row in zip(np.broadcast_to(kind, len(rows)),
                                           np.broadcast_to(epoch, len(rows)), client_ids,
                                           indices, rows)]
    assert buffer.tobytes() == b"".join(frames)
    assert lengths.tolist() == [len(f) for f in frames]
    return buffer, lengths


def _decode(blob, lengths, num_spaces, dims):
    return decode_frames(np.frombuffer(bytes(blob), dtype=np.uint8), lengths, num_spaces,
                         dims)


def test_account_bits_matches_closed_forms():
    # J=2 sampled spaces of dimension 100 each, K=8 spaces total:
    # uplink = 32*(200 + 2) + 2*3 = 6470, downlink = 32*200 + 2*3 = 6406
    down = _encode(KIND_DOWNLINK, 1, [0], [(3, 5)], [np.zeros(200)], num_spaces=8)
    up = _encode(KIND_UPLINK, 1, [0], [(3, 5)], [np.zeros(202)], num_spaces=8)
    for (buffer, lengths), bits in ((down, 6406), (up, 6470)):
        header = _decode(buffer, lengths, 8, [100] * 8)[0]
        assert header["payload_bits"].tolist() == [bits]


def test_account_bits_counts_per_space_dimensions():
    buffer, lengths = _encode(KIND_DOWNLINK, 1, [0], [(0, 2)], [np.zeros(10)], num_spaces=4)
    header = _decode(buffer, lengths, 4, [3, 1, 7, 1])[0]
    assert header["payload_bits"][0] == 32 * 10 + 2 * 2


# ---------------------------------------------------------------------------
# Frames


def _single(values):
    return np.asarray(values, dtype="<f4").astype(float)


@st.composite
def _messages(draw):
    """One message of either kind: its kind, header, indices and floats, K and dims.

    K=1 makes the index field 0 bits wide; J stays within the header's
    one-byte index count, and epoch and client id span their 32-bit fields.
    """
    num_spaces = draw(st.one_of(st.just(1), st.integers(1, 300)), label="K")
    subset_size = draw(st.integers(1, min(num_spaces, 255)), label="J")
    indices = draw(st.permutations(range(num_spaces)))[:subset_size]
    dims = draw(st.lists(st.integers(1, 100), min_size=num_spaces,
                         max_size=num_spaces), label="dims")
    epoch = draw(st.integers(0, 2**32 - 1), label="epoch")
    client_id = draw(st.integers(0, 2**32 - 1), label="client id")
    # float values need no shrinking: draw a seed, not 25,000 floats
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors = [rng.standard_normal(dims[i]) * 10.0 ** rng.integers(-3, 4) for i in indices]
    kind = draw(st.sampled_from((KIND_DOWNLINK, KIND_UPLINK)), label="kind")
    losses = rng.random(subset_size) if kind == KIND_UPLINK else np.empty(0)
    return kind, epoch, client_id, indices, losses, vectors, num_spaces, dims


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_frame_round_trip_preserves_messages_to_single_precision(case):
    kind, epoch, client_id, indices, losses, vectors, num_spaces, dims = case
    row = np.concatenate([losses, *vectors])
    buffer, lengths = _encode(kind, epoch, [client_id], [indices], [row], num_spaces)
    J = len(indices)
    bits = 32 * row.size + J * bits_per_index(num_spaces)
    # padding never exceeds the byte that closes the index block
    assert 0 <= 8 * (lengths[0] - 16) - bits < 8
    header, got_indices, got_losses, got_vectors = _decode(buffer.tobytes(), lengths,
                                                           num_spaces, dims)
    assert header["payload_bits"][0] == bits
    assert (header["kind"][0], header["epoch"][0], header["client_id"][0]) == (
        kind, epoch, client_id)
    assert got_indices[0].tolist() == list(indices)
    if kind == KIND_UPLINK:
        assert np.array_equal(got_losses[0], _single(losses))
    for a, (i, want) in enumerate(zip(indices, vectors)):
        assert np.array_equal(got_vectors[0, a, :dims[i]], _single(want))
        assert not got_vectors[0, a, dims[i]:].any()


def test_frame_payload_is_byte_aligned_exactly_when_index_bits_are():
    # K=16 -> 4 bits per index, J=2 -> 8 index bits: byte-aligned payload
    buffer, lengths = _encode(KIND_DOWNLINK, 1, [0], [(0, 9)], [np.zeros(10)], num_spaces=16)
    bits = _decode(buffer, lengths, 16, [5] * 16)[0]["payload_bits"][0]
    assert bits == 8 * (lengths[0] - 16) == 32 * 10 + 8
    # K=8 -> 3 bits per index, J=2 -> 6 index bits: two zero padding bits
    buffer, lengths = _encode(KIND_DOWNLINK, 1, [0], [(0, 5)], [np.zeros(10)], num_spaces=8)
    bits = _decode(buffer, lengths, 8, [5] * 8)[0]["payload_bits"][0]
    assert 8 * (lengths[0] - 16) - bits == 2


def test_frame_header_layout_is_sixteen_bytes_little_endian():
    # an uplink's mean losses (0.5, 0.25), then two 2-wide gradients of ones
    buffer, lengths = _encode(KIND_UPLINK, 7, [3], [(1, 0)], [[0.5, 0.25, 1, 1, 1, 1]],
                              num_spaces=4)
    blob = buffer.tobytes()
    epoch, client, bits, kind, count, pad = struct.unpack_from("<IIIBBH", blob)
    assert (epoch, client, kind, count, pad) == (7, 3, KIND_UPLINK, 2, 0)
    assert bits == 32 * (4 + 2) + 2 * 2
    assert len(blob) == lengths[0] == 16 + (bits + 7) // 8
    # payload floats are little-endian IEEE-754 singles in message order
    first = struct.unpack_from("<f", blob, 16)[0]
    assert first == 0.5


def test_frame_rejects_malformed_blobs():
    dims = [2, 2, 2, 2]
    with pytest.raises(ProtocolError, match="frame shorter than header: 10 bytes"):
        _decode(b"\x00" * 10, [10], 4, dims)
    buffer, lengths = _encode(KIND_DOWNLINK, 1, [0], [(0, 1)], [np.zeros(4)], num_spaces=4)
    blob = buffer.tobytes()
    # header claiming more bits than the payload carries
    tampered = struct.pack("<IIIBBH", 1, 0, 10_000, KIND_DOWNLINK, 2, 0) + blob[16:]
    with pytest.raises(ProtocolError, match="header claims 10000 payload bits but the "
                                            "payload carries 132"):
        _decode(tampered, lengths, 4, dims)
    # non-zero padding bits in the index block
    bad = blob[:-1] + bytes([blob[-1] | 0x01])
    with pytest.raises(ProtocolError, match="index block has non-zero padding bits"):
        _decode(bad, lengths, 4, dims)
    # float block the wrong length for the decoded indices
    short = struct.pack("<IIIBBH", 1, 0, 132 - 32, KIND_DOWNLINK, 2, 0) + blob[20:]
    with pytest.raises(ProtocolError, match="downlink float block has 3 values, expected 4"):
        _decode(short, [len(short)], 4, dims)


def test_encode_frames_refuses_an_empty_batch():
    with pytest.raises(ProtocolError, match="cannot encode an empty batch"):
        encode_frames(KIND_DOWNLINK, 1, np.zeros(0, dtype=np.int64),
                      np.zeros((0, 2), dtype=np.int64), np.zeros((0, 4)),
                      np.zeros(0, dtype=np.int64), 4)


def test_decode_frames_refuses_an_empty_batch():
    with pytest.raises(ProtocolError, match="cannot decode an empty batch"):
        decode_frames(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64), 4, [1] * 4)


def test_encoders_reject_header_fields_that_do_not_fit():
    too_many = [range(256)]  # the index count is a one-byte field
    with pytest.raises(ProtocolError, match="index count .* 256 .* 8-bit"):
        _encode(KIND_DOWNLINK, 1, [0], too_many, [np.zeros(256)], num_spaces=256)
    with pytest.raises(ProtocolError, match="index count"):
        _encode(KIND_UPLINK, 1, [0], too_many, [np.zeros(512)], num_spaces=256)
    for epoch, client in ((2**32, 0), (1, 2**32), (-1, 0)):
        with pytest.raises(ProtocolError, match="32-bit"):
            _encode(KIND_DOWNLINK, epoch, [client], [(0, 1)], [np.zeros(2)], num_spaces=4)
    # the largest values that fit still round-trip
    edge = 2**32 - 1
    buffer, lengths = _encode(KIND_DOWNLINK, edge, [edge], [range(255)], [np.zeros(255)],
                              num_spaces=256)
    header, indices, _, _ = _decode(buffer, lengths, 256, [1] * 256)
    assert (header["epoch"][0], header["client_id"][0]) == (edge, edge)
    assert indices[0].tolist() == list(range(255))


def test_frames_of_mixed_epochs_keep_each_header_epoch():
    # an audit batch may span several epochs: each frame's header names its own
    epochs = np.array([1, 1, 2, 7, 2**32 - 1])
    buffer, lengths = _encode(KIND_UPLINK, epochs, range(5), [(0, 2)] * 5,
                              [np.ones(4)] * 5, num_spaces=4)
    header = _decode(buffer, lengths, 4, [1] * 4)[0]
    assert header["epoch"].tolist() == epochs.tolist()
    with pytest.raises(ProtocolError, match="epoch 4294967296 does not fit .* 32-bit"):
        _encode(KIND_DOWNLINK, np.array([1, 2**32]), [0, 1], [(0, 1)] * 2,
                [np.zeros(2)] * 2, num_spaces=4)


def test_audited_run_checks_the_header_limits_before_its_first_epoch():
    streams = synthetic_linear(input_dim=2, clients=2, horizon=4, seed=1)
    spaces = tuple(make_space(IdentityMap(2), radius=1.0, loss_kind=Loss.SQUARE)
                   for _ in range(256))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=256,
                        horizon=4, epochs=2, audit=True)
    with pytest.raises(ProtocolError, match="subset size"):
        run_fomd_oms(cfg, streams)


@pytest.mark.parametrize("kind", [KIND_DOWNLINK, KIND_UPLINK])
@pytest.mark.parametrize("offset", [-1, 1])
def test_decode_rejects_a_header_whose_bit_count_is_off_by_one(kind, offset):
    # K=8, J=2: the index block holds 6 bits plus 2 of padding, so a header one
    # bit off still fits in the payload and only an exact count can catch it
    rng = np.random.default_rng(3)
    indices = rng.choice(8, size=2, replace=False)
    # two 3-wide vectors, after an uplink's two mean losses
    row = rng.standard_normal(6 if kind == KIND_DOWNLINK else 8)
    buffer, lengths = _encode(kind, 1, [0], [indices], [row], num_spaces=8)
    blob = bytearray(buffer.tobytes())
    bits = struct.unpack_from("<I", blob, 8)[0]
    struct.pack_into("<I", blob, 8, bits + offset)
    with pytest.raises(ProtocolError, match=f"header claims {bits + offset} payload bits "
                                            f"but the payload carries {bits}"):
        _decode(blob, lengths, 8, [3] * 8)


@settings(max_examples=60, deadline=None)
@given(
    num_spaces=st.integers(min_value=2, max_value=64),
    data=st.data(),
)
def test_index_packing_round_trips(num_spaces, data):
    subset_size = data.draw(st.integers(min_value=2, max_value=min(num_spaces, 8)))
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=num_spaces - 1),
            min_size=subset_size, max_size=subset_size, unique=True,
        )
    )
    buffer, lengths = _encode(KIND_DOWNLINK, 1, [0], [indices], [np.zeros(subset_size)],
                              num_spaces)
    assert _decode(buffer, lengths, num_spaces, [1] * num_spaces)[1][0].tolist() == indices


@st.composite
def _frame_batches(draw):
    """Frames of one epoch for a few clients, with K, J and the dims.

    The kind is one scalar for every frame, or an array that may interleave
    downlink and uplink frames in one buffer.  Each client samples its own J
    distinct spaces of mixed widths; K=1 makes the index field 0 bits wide,
    and epoch and client ids span their 32-bit fields.  The subsets and
    floats come from a drawn seed, which keeps a failing example quick to
    shrink.
    """
    num_spaces = draw(st.one_of(st.just(1), st.integers(1, 300)), label="K")
    subset_size = draw(st.integers(1, min(num_spaces, 255)), label="J")
    dims = draw(st.lists(st.integers(1, 100), min_size=num_spaces,
                         max_size=num_spaces), label="dims")
    clients = draw(st.integers(1, 4), label="clients")
    client_ids = np.array(draw(st.lists(st.integers(0, 2**32 - 1), min_size=clients,
                                        max_size=clients), label="client ids"))
    epoch = draw(st.integers(0, 2**32 - 1), label="epoch")
    kinds = (KIND_DOWNLINK, KIND_UPLINK)
    if draw(st.booleans(), label="one kind"):
        kind = draw(st.sampled_from(kinds), label="kind")
        frame_kinds = [kind] * clients
    else:
        frame_kinds = draw(st.lists(st.sampled_from(kinds), min_size=clients,
                                    max_size=clients), label="kinds")
        kind = np.array(frame_kinds)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    indices = np.array([rng.permutation(num_spaces)[:subset_size] for _ in range(clients)])
    rows = []
    for row, frame_kind in zip(indices, frame_kinds):
        lead = rng.random(subset_size) if frame_kind == KIND_UPLINK else np.empty(0)
        rows.append(np.concatenate([lead, *(rng.standard_normal(dims[i]) for i in row)]))
    return kind, frame_kinds, epoch, client_ids, indices, rows, num_spaces, dims


@settings(max_examples=100, deadline=None)
@given(_frame_batches())
def test_frame_batch_matches_the_per_frame_oracle_and_decodes_back(case):
    kind, frame_kinds, epoch, client_ids, indices, rows, num_spaces, dims = case
    buffer, lengths = _encode(kind, epoch, client_ids, indices, rows, num_spaces)
    header, got_indices, losses, vectors = decode_frames(buffer, lengths, num_spaces, dims)
    assert header["epoch"].tolist() == [epoch] * len(rows)
    assert header["client_id"].tolist() == client_ids.tolist()
    assert header["kind"].tolist() == frame_kinds
    J = indices.shape[1]
    assert header["payload_bits"].tolist() == [
        32 * row.size + J * bits_per_index(num_spaces) for row in rows]
    # padding never exceeds the byte that closes the index block
    pad = 8 * (lengths - 16) - header["payload_bits"]
    assert ((0 <= pad) & (pad < 8)).all()
    assert np.array_equal(got_indices, indices)
    for r, row in enumerate(rows):
        lead = J if frame_kinds[r] == KIND_UPLINK else 0
        assert np.array_equal(losses[r], _single(row[:J]) if lead else np.zeros(J))
        sent = np.concatenate([vectors[r, a, :dims[i]] for a, i in enumerate(indices[r])])
        assert np.array_equal(sent, _single(row[lead:]))


def test_a_report_or_broadcast_naming_a_space_twice_is_rejected():
    # without the check this report decodes and aggregates at double weight
    buffer, lengths = _encode(KIND_UPLINK, 1, [0], [(1, 1)], [[0.5, 0.5, 1, 1]], 4)
    with pytest.raises(ProtocolError, match="client 0 names space 1 twice"):
        _decode(buffer, lengths, 4, [1] * 4)
    buffer, lengths = _encode(KIND_DOWNLINK, 1, [7], [(2, 0, 2)], [np.ones(3)], 4)
    with pytest.raises(ProtocolError, match="client 7 names space 2 twice"):
        _decode(buffer, lengths, 4, [1] * 4)


# ---------------------------------------------------------------------------
# Aggregation: the scatter the audit ties to the engine


def test_aggregate_reports_hand_example():
    # two clients, three spaces, inclusion probs (0.5, 0.25, 1.0); client 0
    # reports spaces (0, 1), client 1 spaces (1, 2), with the spaces' widths
    # (1, 2, 1) zero-padded to 2
    incl = np.array([0.5, 0.25, 1.0])
    spaces = np.array([0, 1, 1, 2])
    losses = np.array([0.2, 0.3, 0.1, 0.4])
    grads = np.array([[1.0, 0.0], [2.0, 2.0], [3.0, 1.0], [0.5, 0.0]])
    loss_est, grad_est = protocol._scatter_reports(spaces, losses, grads, incl, 2)
    # space 0: (0.2/0.5)/2 ; space 1: (0.3/0.25 + 0.1/0.25)/2 ; space 2: (0.4/1)/2
    assert np.allclose(loss_est, [0.2, 0.8, 0.2])
    assert np.allclose(grad_est[0, :1], [1.0])
    assert np.allclose(grad_est[1], [(2.0 / 0.25 + 3.0 / 0.25) / 2, (2.0 / 0.25 + 1.0 / 0.25) / 2])
    assert np.allclose(grad_est[2, :1], [0.25])


def test_aggregate_reports_unsampled_spaces_estimate_zero():
    incl = np.array([0.6, 0.6, 0.6, 0.6])
    loss_est, grad_est = protocol._scatter_reports(np.array([1, 3]), np.array([1.0, 1.0]),
                                                   np.ones((2, 2)), incl, 1)
    assert loss_est[0] == 0.0 and loss_est[2] == 0.0
    assert [i for i in range(4) if grad_est[i].any()] == [1, 3]


# ---------------------------------------------------------------------------
# Engine behavior through the public driver


def _stack(*runs):
    """Run ``runs`` as one kernel stack, each laid out by ``learners._layout``."""
    return learners._run_stack(list(runs), [learners._layout(*run) for run in runs])


def _one_space_config(horizon, **kwargs):
    space = make_space(IdentityMap(1), radius=1.0, loss_kind=Loss.SQUARE)
    return LearnerConfig(
        spaces=(space,), loss=Loss.SQUARE, clients=1, subset_size=1,
        horizon=horizon, **kwargs,
    )


def _constant_streams(values, targets):
    xs = np.asarray(values, dtype=float)[None, :, None]
    ys = np.asarray(targets, dtype=float)[None, :]
    return Streams(xs=xs, ys=ys, meta={})


def test_single_space_run_is_projected_online_gradient_descent():
    # K=1: p stays (1,) and the weight follows hand-computed OGD.
    # Square loss, x==1, targets (1, 0, 1), U=1, b=1 -> G=4, lambda_t = 1/(8 sqrt(t)).
    streams = _constant_streams([1.0, 1.0, 1.0], [1.0, 0.0, 1.0])
    art = run_fomd_oms(_one_space_config(3, master_seed=4), streams)
    w1 = 0.0 - (1.0 / 8.0) * (2.0 * (0.0 - 1.0))          # 0.25
    w2 = w1 - (1.0 / (8.0 * np.sqrt(2.0))) * (2.0 * (w1 - 0.0))
    assert art.predictions[0] == 0.0
    assert art.losses[0] == 1.0
    assert art.predictions[1] == pytest.approx(w1, abs=1e-15)
    assert art.losses[1] == pytest.approx(w1 ** 2, abs=1e-15)
    assert art.predictions[2] == pytest.approx(w2, abs=1e-15)
    assert np.array_equal(art.final_probs, [1.0])
    assert art.lead_indices.tolist() == [0, 0, 0]


def test_broadcast_weights_are_frozen_within_an_epoch():
    streams = _constant_streams([1.0] * 4, [1.0] * 4)
    art = run_fomd_oms(_one_space_config(4, epochs=2, master_seed=0), streams)
    # same weight inside each epoch, updated across the boundary
    assert art.predictions[0] == art.predictions[1]
    assert art.predictions[2] == art.predictions[3]
    assert art.predictions[1] != art.predictions[2]


def test_bit_columns_land_on_epoch_boundaries():
    streams = synthetic_linear(input_dim=3, clients=2, horizon=12, seed=9)
    spaces = tuple(make_space(IdentityMap(3), radius=r, loss_kind=Loss.SQUARE) for r in (0.5, 1.0))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                        horizon=12, epochs=3, master_seed=1)
    art = run_fomd_oms(cfg, streams)
    down = art.downlink_bits.reshape(12, 2)
    up = art.uplink_bits.reshape(12, 2)
    # J=K=2 samples both 3-dimensional spaces: downlink 32*6+2*1, uplink +32*2
    assert set(down[0]) == {32 * 6 + 2}
    assert set(up[3]) == {32 * 6 + 2 + 64}
    assert down[1:4].sum() == 0 and down[4].sum() > 0
    assert up[:3].sum() == 0 and up[4:7].sum() == 0
    assert art.total_downlink_bits == down.sum() == 3 * 2 * 194
    assert art.total_uplink_bits == up.sum() == 3 * 2 * 258


def test_halving_the_epoch_count_halves_the_bits():
    streams = synthetic_linear(input_dim=3, clients=2, horizon=40, seed=2)
    spaces = tuple(make_space(IdentityMap(3), radius=r, loss_kind=Loss.SQUARE) for r in (0.5, 1.0))
    base = dict(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                horizon=40, master_seed=3)
    full = run_fomd_oms(LearnerConfig(epochs=40, **base), streams)
    half = run_fomd_oms(LearnerConfig(epochs=20, **base), streams)
    assert half.total_downlink_bits * 2 == full.total_downlink_bits
    assert half.total_uplink_bits * 2 == full.total_uplink_bits


def test_leads_and_bits_filled_after_the_loop_repeat_what_each_epoch_staged():
    # 3 epochs of 4 rounds, J=3 of a 4-wide identity space and three one-wide
    # coordinate spaces: each epoch records its subsets in state.subsets, and
    # the trace columns derived after the last epoch must repeat them and
    # charge each message the closed form
    M, T, N = 3, 12, 4
    streams = synthetic_linear(input_dim=4, clients=M, horizon=T, seed=7)
    spaces = (make_space(IdentityMap(4), 1.0, Loss.SQUARE),) + tuple(
        make_space(CoordinateMap(4, i), 0.5, Loss.SQUARE) for i in range(3))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=M, subset_size=3,
                        horizon=T, epochs=T // N, master_seed=4, audit=True)
    art = run_fomd_oms(cfg, streams)
    state, setup, _ = _stack(("fomd", cfg, streams))
    assert art.meta["audit_mismatches"] == [] and state.subsets.shape == (T // N, M, 3)
    down, up, leads = (column.reshape(T, M) for column in
                       (art.downlink_bits, art.uplink_bits, art.lead_indices))
    dims = np.array([4, 1, 1, 1])
    for e, indices in enumerate(state.subsets):
        # 32 bits a float, 2 bits each of the 3 indices, 32 more a mean loss
        down_bits = 32 * dims[indices].sum(axis=1) + 3 * 2
        np.testing.assert_array_equal(setup.message_bits(indices),
                                      (down_bits, down_bits + 32 * 3))
        first, last = e * N, e * N + N - 1
        np.testing.assert_array_equal(down[first], down_bits)
        np.testing.assert_array_equal(up[last], down_bits + 32 * 3)
        assert not down[first + 1:last + 1].any() and not up[first:last].any()
        np.testing.assert_array_equal(leads[first:last + 1], np.tile(indices[:, 0], (N, 1)))
    # a subset with the identity space carries 6 floats, one without it 3
    assert set(down[::N].ravel().tolist()) == {32 * 6 + 3 * 2, 32 * 3 + 3 * 2}
    nco = run_nco_oms(dataclasses.replace(cfg, epochs=None, audit=False), streams)
    assert not nco.uplink_bits.any() and not nco.downlink_bits.any()


def test_numpy_keeps_the_summation_orders_the_kernel_relies_on():
    # every sum over clients or rounds in the kernel is a running sum
    # (run_epoch's merge, _add_rounds); a numpy release that changes one of
    # these orders must fail here
    rng = np.random.default_rng(11)
    for n in [*range(1, 40), 127, 128, 129, 200, 257]:
        x = rng.normal(size=(n, 3))
        # a table more than one column wide is summed down its rows, one at a time
        assert x.sum(axis=0).tolist() == [oracles.running_sum(col) for col in x.T]
        # bincount adds each cell's weights in input order
        cells = rng.integers(0, 4, n)
        assert np.bincount(cells, x[:, 0], minlength=4).tolist() == [
            oracles.running_sum(x[cells == c, 0]) for c in range(4)]
        # accumulate adds a single column in sequence, from its first term
        assert np.add.accumulate(x[:, 0])[-1] == oracles.running_sum(x[1:, 0], x[0, 0])
    # the sum and bincount start from +0.0, not from the first term
    minus = np.full((3, 2), -0.0)
    for total in (minus.sum(axis=0), np.bincount([0, 0, 0], minus[:, 0])):
        assert not np.signbit(total).any()


def test_run_invariant_violation_aborts_the_run():
    streams = _constant_streams([1.0, 1.0], [1.0, 1.0])
    space = make_space(IdentityMap(1), radius=1.0, loss_kind=Loss.SQUARE)
    tight_loss = dataclasses.replace(space, loss_bound=1e-6)
    cfg = LearnerConfig(spaces=(tight_loss,), loss=Loss.SQUARE, clients=1,
                        subset_size=1, horizon=2)
    with pytest.raises(RunInvariantError, match="loss"):
        run_fomd_oms(cfg, streams)
    tight_grad = dataclasses.replace(space, lipschitz_bound=1e-6)
    cfg2 = LearnerConfig(spaces=(tight_grad,), loss=Loss.SQUARE, clients=1,
                         subset_size=1, horizon=2)
    with pytest.raises(RunInvariantError, match="gradient"):
        run_fomd_oms(cfg2, streams)


@pytest.mark.parametrize("run_learner, epochs", [
    pytest.param(run_fomd_oms, None, id="run_fomd_oms"),
    pytest.param(run_nco_oms, None, id="run_nco_oms"),
    # round 7 in the middle of one 10-round block, and of the second 5-round one
    pytest.param(run_fomd_oms, 1, id="run_fomd_oms-one-epoch"),
    pytest.param(run_fomd_oms, 2, id="run_fomd_oms-two-epochs"),
])
def test_nan_target_aborts_naming_the_round_and_space(run_learner, epochs):
    # NaN fails every ordered comparison, so the bound check must not pass it
    # on to the mirror step, which cannot say where it came from.  Streams
    # refuses non-finite values when it is built, so the NaN is written into
    # a built one: the kernel's own check is what must fire
    streams = synthetic_linear(input_dim=3, clients=2, horizon=10, seed=4)
    streams.ys[1, 6] = np.nan
    spaces = tuple(make_space(IdentityMap(3), radius=r, loss_kind=Loss.SQUARE)
                   for r in (0.5, 1.0))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                        horizon=10, epochs=epochs, master_seed=4)
    # J=K: client 1 samples both spaces, and space 0 is checked first
    with pytest.raises(RunInvariantError, match="round 7: space 0 produced loss nan"):
        run_learner(cfg, streams)


@pytest.mark.parametrize("loss, x, y, message", [
    (Loss.SQUARE, 0.1, 100.0, r"loss \S+ outside its declared bound"),
    (Loss.LINEAR, 0.1, 1e6, r"loss \S+ below zero"),
    (Loss.SQUARE, 10.0, 0.5, r"gradient norm \S+ outside its declared bound"),
], ids=["loss-bound", "negative-loss", "gradient-bound"])
def test_a_bound_broken_inside_a_block_names_the_round_a_one_round_block_names(
        monkeypatch, loss, x, y, message):
    # two 10-round epochs of constant data, x = 0.1 and y = 0.5, except for
    # client 1 at round 16, the middle of the second epoch's one block; the
    # models are nonzero by then, so a linear loss can go negative
    xs = np.full((2, 20, 1), 0.1)
    ys = np.full((2, 20), 0.5)
    xs[1, 15], ys[1, 15] = x, y
    streams = Streams(xs=xs, ys=ys, meta={})
    spaces = tuple(make_space(IdentityMap(1), radius=r, loss_kind=loss) for r in (0.5, 1.0))
    cfg = LearnerConfig(spaces=spaces, loss=loss, clients=2, subset_size=2, horizon=20,
                        epochs=2, master_seed=5)
    with pytest.raises(RunInvariantError) as blocked:
        run_fomd_oms(cfg, streams)
    monkeypatch.setattr(protocol, "_BLOCK_FLOATS", 1)  # one round of one entry per block
    with pytest.raises(RunInvariantError) as one_round:
        run_fomd_oms(cfg, streams)
    assert str(blocked.value) == str(one_round.value)
    assert re.match(r"round 16: space 0 produced " + message, str(blocked.value))


def _calls_per_epoch(monkeypatch, cfg, streams, cooperative, kernel_frames_only=True):
    """The calls each epoch's run_epoch makes, after the first epoch, which
    also fills the set-up's cached properties.  With ``kernel_frames_only``
    a call counts when protocol.py's own frames make it (numpy functions,
    methods, builtins and the module's helpers, each counted once however
    much it does inside); without it, every Python and C call under the
    hook counts: run_epoch's own, those of every helper it reaches, and the
    hook's removal."""
    counts = []

    def counted(state, setup):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            caller = frame if event == "c_call" else frame.f_back if event == "call" else None
            if caller is not None and (not kernel_frames_only
                                       or caller.f_code.co_filename == protocol.__file__):
                calls += 1

        sys.setprofile(profile)
        try:
            protocol.run_epoch(state, setup)
        finally:
            sys.setprofile(None)
        counts.append(calls)

    monkeypatch.setattr(learners, "run_epoch", counted)
    _stack(("fomd" if cooperative else "nco", cfg, streams))
    return counts[1:]


def _kernel_calls_per_epoch(monkeypatch, spaces, input_dim, cooperative, epochs, clients):
    """:func:`_calls_per_epoch` from protocol.py's frames on a 12-round run."""
    streams = synthetic_linear(input_dim=input_dim, clients=clients, horizon=12, seed=1)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=clients, subset_size=2,
                        horizon=12, epochs=epochs, master_seed=2)
    return _calls_per_epoch(monkeypatch, cfg, streams, cooperative)


@pytest.mark.parametrize("cooperative, ceiling", [(True, 40), (False, 37)],
                         ids=["fomd", "nco"])
def test_a_hidden_arm_epoch_stays_under_its_call_ceiling(monkeypatch, cooperative, ceiling):
    # the benchmark's hidden-arm shape: K=16 coordinate spaces, J=2, M=10,
    # one round per epoch, so an epoch costs about its fixed numpy calls.
    # Per-run work is done on the first epoch (positions, targets, block
    # size) and the leads and bits after the last; each of the others must
    # stay at its pinned count (71 for fomd and 63 for nco before that split)
    spec = AdversarialSpec(kind="biased_arm", num_spaces=16, input_dim=16, horizon=40,
                           clients=10, seed=3, subset_size=2)
    spaces = tuple(make_space(CoordinateMap(16, i), radius=1.0, loss_kind=Loss.LINEAR)
                   for i in range(16))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.LINEAR, clients=10, subset_size=2,
                        horizon=40, master_seed=3)
    counts = _calls_per_epoch(monkeypatch, cfg, generate_adversarial(spec), cooperative,
                              kernel_frames_only=False)
    assert max(counts) <= ceiling, counts


def _every_client_samples(monkeypatch, forced):
    """Make every subset lead with the spaces ``forced``, then the others drawn."""

    def with_forced(probs, lead_uniforms, positions):
        drawn = sampling.subsets_from_uniforms(probs, lead_uniforms, positions).tolist()
        J = positions.shape[1] + 1
        return np.array([([*forced] + [k for k in row if k not in forced])[:J] for row in drawn])

    monkeypatch.setattr(protocol, "subsets_from_uniforms", with_forced)


@pytest.mark.parametrize("clients", [3, 10], ids=["under-8-per-space", "10-on-forced-spaces"])
@pytest.mark.parametrize("cooperative, epochs", [(True, None), (True, 2), (False, None)],
                         ids=["fomd", "fomd-6-round-epochs", "nco"])
def test_a_coordinate_epoch_makes_the_same_calls_whatever_spaces_it_touches(
        monkeypatch, clients, cooperative, epochs):
    # clients sample 2 of K spaces each.  3 clients touch 2 to 4 spaces at
    # K = 4 and 2 to 6 at K = 32, none of them 8 times.  10 clients all
    # sample spaces 0 and 1 at K = 4, and space 0 and 1 to 10 others at
    # K = 32: two spaces of 10 terms against one.  Whatever the spaces and
    # their term counts, one bincount sums every space's gradients
    per_k = {}
    for K in (4, 32):
        if clients == 10:
            _every_client_samples(monkeypatch, (0, 1) if K == 4 else (0,))
        spaces = tuple(make_space(CoordinateMap(K, i), 1.0, Loss.SQUARE) for i in range(K))
        per_k[K] = _kernel_calls_per_epoch(monkeypatch, spaces, K, cooperative, epochs, clients)
    assert len(set(per_k[4] + per_k[32])) == 1, per_k


@dataclasses.dataclass(frozen=True)
class _RecordingMap(oracles.OpaqueMap):
    """An :class:`oracles.OpaqueMap` that logs (its space, a copy of its input) per call."""

    space: int = 0
    log: list = dataclasses.field(default_factory=list, compare=False)

    def __call__(self, x):
        self.log.append((self.space, np.array(x)))
        return self.inner(x)


@pytest.mark.parametrize("one_round_blocks", [False, True], ids=["epoch-blocks", "round-blocks"])
@pytest.mark.parametrize("cooperative", [True, False], ids=["fomd", "nco"])
def test_each_block_maps_every_touched_space_once_over_its_clients_in_order(
        monkeypatch, cooperative, one_round_blocks):
    # a mixed family (coordinate, identity and two RFF spaces) runs every
    # space's map itself.  Whatever the block budget, the maps must be called
    # once per touched space and round, in ascending space order, on the
    # (clients, input) rows of exactly the clients whose subset holds that
    # space, in ascending client order: the order in which each space's sums
    # over clients add their terms
    if one_round_blocks:
        monkeypatch.setattr(protocol, "_BLOCK_FLOATS", 1)
    M, T, d = 7, 12, 3
    rng = np.random.default_rng(4)
    log = []
    maps = (CoordinateMap(d, 0), IdentityMap(d), gaussian_rff(d, 4, 1.0, rng),
            gaussian_rff(d, 5, 2.0, rng))
    spaces = tuple(make_space(_RecordingMap(fm, space=i, log=log), 0.5, Loss.SQUARE)
                   for i, fm in enumerate(maps))
    streams = synthetic_linear(input_dim=d, clients=M, horizon=T, seed=2)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=M, subset_size=2,
                        horizon=T, epochs=3 if cooperative else None, master_seed=6)
    state, _, _ = _stack(("fomd" if cooperative else "nco", cfg, streams))

    N = T // state.subsets.shape[0]
    want = []
    for e, subsets in enumerate(state.subsets):
        for t in range(e * N, (e + 1) * N):
            for i in np.unique(subsets).tolist():
                clients = np.flatnonzero((subsets == i).any(axis=1))
                want.append((i, streams.xs[clients, t]))  # (clients, d)
    assert len(log) == len(want)
    for (space, x), (want_space, want_x) in zip(log, want):
        assert space == want_space
        assert x.shape == want_x.shape and np.array_equal(x, want_x)


def test_maps_see_one_round_of_rows_and_every_audit_batch_is_of_one_kind(monkeypatch):
    # an audited run of 4-round epochs over identity and RFF spaces: every
    # feature-map call gets a 2-D (entries, input) array, and every encoded
    # batch carries frames of a single kind, each kind in turn
    M, T, d = 5, 16, 3
    rng = np.random.default_rng(8)
    log = []
    maps = (IdentityMap(d), gaussian_rff(d, 4, 1.0, rng), gaussian_rff(d, 6, 2.0, rng))
    spaces = tuple(make_space(_RecordingMap(fm, space=i, log=log), 0.5, Loss.SQUARE)
                   for i, fm in enumerate(maps))
    kinds = []

    def record_kind(original):
        def encode(kind, *args):
            kinds.append(np.unique(kind).tolist())
            return original(kind, *args)
        return encode
    monkeypatch.setattr(protocol, "encode_frames", record_kind(protocol.encode_frames))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=M, subset_size=2,
                        horizon=T, epochs=4, master_seed=1, audit=True)
    art = run_fomd_oms(cfg, synthetic_linear(input_dim=d, clients=M, horizon=T, seed=3))
    assert art.meta["audit_mismatches"] == []
    assert log and all(x.ndim == 2 and x.shape[1] == d for _, x in log)
    assert kinds == [[KIND_DOWNLINK], [KIND_UPLINK]]


def _linear_run_error(xs, ys, path, epochs=None, loss_bounds=(None,) * 3, seed=5):
    """The RunInvariantError text of a cooperative run of three spaces that
    each read the one input coordinate (linear loss, J = K = 3) over
    ``xs``/``ys``, with the features gathered by the kernel (``path``
    "fused") or computed by one map call per touched space and block, on
    that space's client-major entries ("map")."""
    spaces = []
    for radius, bound in zip((0.5, 0.75, 1.0), loss_bounds):
        space = make_space(CoordinateMap(1, 0), radius, Loss.LINEAR)
        if bound is not None:
            space = dataclasses.replace(space, loss_bound=bound)
        spaces.append(oracles.through_map_path(space) if path == "map" else space)
    cfg = LearnerConfig(spaces=tuple(spaces), loss=Loss.LINEAR, clients=xs.shape[0],
                        subset_size=3, horizon=xs.shape[1], epochs=epochs,
                        master_seed=seed, uniform_init=True)
    with pytest.raises(RunInvariantError) as failed:
        run_fomd_oms(cfg, Streams(xs=xs, ys=ys, meta={}))
    return str(failed.value)


@pytest.mark.parametrize("path", ["fused", "map"])
def test_of_two_spaces_breaking_a_bound_in_one_round_the_lower_is_named(path):
    # at w = 0 every loss is 1, over the bound 0.5 of spaces 1 and 2; seed 0
    # samples (2, 1, 0) for client 0, so its first failing entry is space 2
    xs, ys = np.full((3, 4, 1), 0.1), np.full((3, 4), 0.5)
    message = _linear_run_error(xs, ys, path, loss_bounds=(None, 0.5, 0.5), seed=0)
    assert message == ("round 1: space 1 produced loss 1 outside its declared bound "
                       "0.5; the step-size schedule is invalid for this data")


def _two_epochs_of_linear_data():
    # two 10-round epochs, one block each; after the first the models are
    # positive, so a target of 1e6 makes every loss negative and every
    # gradient 1e5 long, and a target of -1e6 puts every loss over its bound
    return np.full((2, 20, 1), 0.1), np.full((2, 20), 0.5)


@pytest.mark.parametrize("path", ["fused", "map"])
@pytest.mark.parametrize("targets, message", [
    ({(1, 15): 1e6}, r"round 16: space 0 produced loss -\S+ below zero"),
    ({(1, 15): 1e6, (0, 15): -1e6},
     r"round 16: space 0 produced loss \S+ outside its declared bound 1\.5"),
    ({(1, 12): 1e6, (0, 17): -1e6}, r"round 13: space 0 produced loss -\S+ below zero"),
], ids=["non-negativity-before-gradient", "loss-bound-before-non-negativity",
        "first-failing-round-of-the-block"])
def test_a_failing_block_names_its_first_round_and_check(path, targets, message):
    xs, ys = _two_epochs_of_linear_data()
    for cell, y in targets.items():
        ys[cell] = y
    text = _linear_run_error(xs, ys, path, epochs=2)
    assert re.fullmatch(message + r".*", text)
    assert text == _linear_run_error(xs, ys, "map" if path == "fused" else "fused", epochs=2)


@pytest.mark.parametrize("bad, text", [(-0.1, "loss -0.1 below zero"),
                                       (np.nan, "loss nan outside its declared bound"),
                                       (np.inf, "loss inf outside its declared bound")])
@pytest.mark.parametrize("learner", [run_fomd_oms, run_nco_oms])
def test_a_bad_loss_stops_the_run_before_any_mirror_step(monkeypatch, learner, bad, text):
    # the mirror step does not check its losses: the kernel's bound check
    # must stop a negative, NaN or infinite loss before it reaches the step
    steps = []

    def mirror_step(original):
        def step(*args):
            steps.append(args)
            return original(*args)
        return step

    def last_entry_bad(original):
        def loss_value(kind, values, targets):
            losses = original(kind, values, targets).copy()
            losses[-1, -1] = bad
            return losses
        return loss_value
    monkeypatch.setattr(protocol, "entropy_step_log_batch",
                        mirror_step(protocol.entropy_step_log_batch))
    monkeypatch.setattr(protocol, "loss_value", last_entry_bad(protocol.loss_value))
    streams = synthetic_linear(input_dim=4, clients=3, horizon=6, seed=2)
    spaces = tuple(make_space(CoordinateMap(4, i), 1.0, Loss.SQUARE) for i in range(4))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
                        horizon=6, master_seed=2)
    with pytest.raises(RunInvariantError, match=rf"round 1: space \d+ produced {text}"):
        learner(cfg, streams)
    assert steps == []


def _run_with_one_entry_at(learner, check, value, bound):
    """Run ``learner`` with the absolute loss over two clients, two
    coordinate spaces (J = K = 2) and four rounds, where client 1's round-3
    entry of space 1 has loss ``value`` (``check`` "loss") or gradient norm
    ``value`` ("gradient"), and space 1 declares ``bound`` for it.

    With the loss check every input is 0, so every loss is its target,
    exactly, and every gradient 0; with the gradient check every target is
    1 and every input 0 but that entry's, so space 1's model is 0 there, its
    loss 1 and its gradient norm |x| = ``value``, exactly.  Every other entry
    stays far inside its bounds.
    """
    xs, ys = np.zeros((2, 4, 2)), np.zeros((2, 4))
    spaces = [make_space(CoordinateMap(2, i), 1.0, Loss.ABSOLUTE) for i in range(2)]
    if check == "loss":
        ys[1, 2] = value
        spaces[0] = dataclasses.replace(spaces[0], loss_bound=1e12)
        spaces[1] = dataclasses.replace(spaces[1], loss_bound=bound)
    else:
        ys[:] = 1.0
        xs[1, 2, 1] = value
        spaces[1] = dataclasses.replace(spaces[1], lipschitz_bound=bound)
    cfg = LearnerConfig(spaces=tuple(spaces), loss=Loss.ABSOLUTE, clients=2, subset_size=2,
                        horizon=4, master_seed=1, uniform_init=True)
    return learner(cfg, Streams(xs=xs, ys=ys, meta={}))


@pytest.mark.parametrize("bound", [1e6, 1e-6], ids=["relative-tolerance", "absolute-tolerance"])
@pytest.mark.parametrize("check, text", [("loss", "loss"), ("gradient", "gradient norm")])
@pytest.mark.parametrize("learner", [run_fomd_oms, run_nco_oms])
def test_a_value_at_its_limit_passes_and_one_just_past_it_is_named(learner, check, text,
                                                                   bound):
    # a bound B allows B * (1 + 1e-12) + 1e-9: at B = 1e6 the relative
    # tolerance is the larger part (1e-6), at B = 1e-6 the absolute one.  A
    # value exactly at that limit passes, and the next float above it fails
    limit = bound * (1.0 + 1e-12) + 1e-9
    past = np.nextafter(limit, np.inf)
    if check == "gradient":  # squared norms are compared
        assert limit * limit < past * past
    _run_with_one_entry_at(learner, check, limit, bound)
    with pytest.raises(RunInvariantError,
                       match=rf"round 3: space 1 produced {text} \S+ outside its declared bound"):
        _run_with_one_entry_at(learner, check, past, bound)


def test_audit_log_reports_cleanliness():
    log = AuditLog()
    assert log.mismatches == [] and log.frames_checked == 0
    log.note("something diverged")
    assert log.mismatches == ["something diverged"]


def test_audited_run_checks_every_frame_and_stays_clean():
    streams = synthetic_linear(input_dim=4, clients=3, horizon=20, seed=21)
    spaces = tuple(make_space(IdentityMap(4), radius=r, loss_kind=Loss.SQUARE)
                   for r in (0.25, 0.5, 1.0))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
                        horizon=20, epochs=5, master_seed=8, audit=True)
    art = run_fomd_oms(cfg, streams)
    assert art.meta["audit_mismatches"] == []
    # one downlink and one uplink frame per client per epoch
    assert art.meta["audit_frames_checked"] == 2 * 3 * 5


# ---------------------------------------------------------------------------
# Audit fault injection: each check must name the epoch and the client or
# the space it caught


def _small_audited_run():
    """A 3-client, 5-epoch audited fomd run of K=3, J=2 four-wide spaces."""
    streams = synthetic_linear(input_dim=4, clients=3, horizon=20, seed=21)
    spaces = tuple(make_space(IdentityMap(4), radius=r, loss_kind=Loss.SQUARE)
                   for r in (0.25, 0.5, 1.0))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
                        horizon=20, epochs=5, master_seed=8, audit=True)
    art = run_fomd_oms(cfg, streams)
    assert art.meta["audit_frames_checked"] == 2 * 3 * 5
    return art


def _audited_run(monkeypatch, name, wrapper):
    """Run the small audited run with ``fedoms.protocol.<name>`` wrapped."""
    monkeypatch.setattr(protocol, name, wrapper(getattr(protocol, name)))
    return _small_audited_run().meta["audit_mismatches"]


def _perturb_audit_input(name, change, epoch=2):
    """Wrap ``_audit_epoch`` so that ``epoch`` sees ``change(copy of input name)``."""
    def wrapper(original):
        def audit_epoch(*args):
            bound = inspect.signature(original).bind(*args)
            if bound.arguments["epoch"] == epoch:
                value = np.array(bound.arguments[name], copy=True)
                change(value, bound.arguments)
                bound.arguments[name] = value
            return original(*bound.args)
        return audit_epoch
    return wrapper


def _add_one_to_epoch_2_client_1_bits(monkeypatch, column):
    """Make ``RunSetup.message_bits`` charge client 1 of epoch 2 one bit more
    in ``column`` (0 downlink, 1 uplink).  The small audited run asks for
    the bits of all its epochs at once, both for its trace and its replay."""
    original = protocol.RunSetup.message_bits

    def message_bits(self, subsets):
        bits = original(self, subsets)
        bits[column][1, 1] += 1
        return bits
    monkeypatch.setattr(protocol.RunSetup, "message_bits", message_bits)


@pytest.mark.parametrize("name, text", [
    ("down_bits", "engine downlink bits mismatch"),
    ("up_bits", "engine uplink bits mismatch"),
])
def test_audit_names_a_bit_account_the_frame_does_not_carry(monkeypatch, name, text):
    # one closed form charges the trace and states the audit's account, so
    # an account off by one bit moves the trace and fails the frame check
    column = ("down_bits", "up_bits").index(name)
    clean = _small_audited_run()
    _add_one_to_epoch_2_client_1_bits(monkeypatch, column)
    art = _small_audited_run()
    assert art.meta["audit_mismatches"] == [f"epoch 2 client 1: {text}"]
    trace = ("downlink_bits", "uplink_bits")[column]
    moved = (getattr(art, trace) - getattr(clean, trace)).reshape(20, 3)
    # epoch 2 spans rounds 5 to 8: its downlinks charged at the first, uplinks at the last
    assert np.argwhere(moved).tolist() == [[(4, 7)[column], 1]] and moved.sum() == 1


def test_audit_names_an_aggregated_loss_that_disagrees(monkeypatch):
    def change(loss_est, _):
        loss_est[0] += 1e-6
    mismatches = _audited_run(monkeypatch, "_audit_epoch",
                              _perturb_audit_input("loss_est", change))
    assert mismatches == ["epoch 2: aggregated losses disagree with engine"]


def test_audit_names_the_space_of_an_aggregated_gradient_that_disagrees(monkeypatch):
    seen = []

    def change(grad_est, arguments):
        grad_est[-1, 0] += 1e-6
        seen.append(int(arguments["stepped"][-1]))
    mismatches = _audited_run(monkeypatch, "_audit_epoch",
                              _perturb_audit_input("grad_est", change))
    assert mismatches == [f"epoch 2: aggregated gradient for space {seen[0]} disagrees"]


def test_audit_names_a_space_reported_but_not_stepped(monkeypatch):
    # the engine leaves out the last space it stepped in epoch 2; its
    # clients reported that space, so the audit's merge has an estimate for
    # it where the engine has none
    seen = []

    def drop_last_step(original):
        def audit_epoch(*args):
            bound = inspect.signature(original).bind(*args)
            if bound.arguments["epoch"] == 2:
                seen.append(int(bound.arguments["stepped"][-1]))
                for name in ("stepped", "grad_est"):
                    bound.arguments[name] = bound.arguments[name][:-1]
            return original(*bound.args)
        return audit_epoch
    mismatches = _audited_run(monkeypatch, "_audit_epoch", drop_last_step)
    assert mismatches == [f"epoch 2: aggregated gradient for space {seen[0]} disagrees"]


def _count_reports(original, reports):
    """Wrap ``_scatter_reports`` to record each call's report count per cell."""
    def scatter(spaces, mean_losses, mean_grads, inclusion_probs, count):
        reports.append(np.bincount(spaces, minlength=inclusion_probs.size).tolist())
        return original(spaces, mean_losses, mean_grads, inclusion_probs, count)
    return scatter


@pytest.mark.parametrize("name, text", [
    ("loss_est", "aggregated losses disagree with engine"),
    ("grad_est", "aggregated gradient for space {} disagrees"),
])
def test_audit_names_an_estimate_one_ulp_off_where_a_space_has_12_reports(
        monkeypatch, name, text):
    # J = K = 2 coordinate spaces over 12 clients: each space gets 12 one-
    # column reports an epoch, where a pairwise sum would part from the
    # running sum.  The audit's merge must match the engine's bit for bit,
    # so a last-bit move is a mismatch
    seen = []

    def change(estimate, arguments):
        seen.append(int(arguments["stepped"][-1]))
        estimate.reshape(-1)[-1] = np.nextafter(estimate.reshape(-1)[-1], np.inf)
    monkeypatch.setattr(protocol, "_audit_epoch",
                        _perturb_audit_input(name, change)(protocol._audit_epoch))
    reports = []
    monkeypatch.setattr(protocol, "_scatter_reports", _count_reports(
        protocol._scatter_reports, reports))
    streams = synthetic_linear(input_dim=2, clients=12, horizon=15, seed=2)
    spaces = tuple(make_space(CoordinateMap(2, i), radius=1.0, loss_kind=Loss.SQUARE)
                   for i in range(2))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=12, subset_size=2,
                        horizon=15, epochs=5, master_seed=6, audit=True)
    art = run_fomd_oms(cfg, streams)
    # one replay of the 5 epochs, in which each space has 12 reports an epoch
    assert reports == [[12, 12] * 5]
    assert art.meta["audit_mismatches"] == [f"epoch 2: {text.format(*seen)}"]


def _flip_in_client_1_frame(kind, offset_of, change=lambda byte: byte ^ 0x01, epoch=2):
    """Wrap ``decode_frames`` so that one byte of client 1's frame in ``epoch`` changes.

    The frame is the one whose header names ``epoch``, client 1 and ``kind``,
    wherever it sits in whichever batch carries it.  ``offset_of(frame)``
    picks the byte's offset within the frame's bytes.
    """
    def wrapper(original):
        def decode(buffer, lengths, num_spaces, dims):
            starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).tolist()
            for start, length in zip(starts, np.asarray(lengths).tolist()):
                frame = buffer[start:start + length]
                header = struct.unpack_from("<IIIB", frame.tobytes())
                if (header[0], header[1], header[3]) == (epoch, 1, kind):
                    buffer = buffer.copy()
                    at = start + offset_of(frame)
                    buffer[at] = change(int(buffer[at]))
            return original(buffer, lengths, num_spaces, dims)
        return decode
    return wrapper


@pytest.mark.parametrize("kind, name", [(KIND_DOWNLINK, "downlink"), (KIND_UPLINK, "uplink")])
@pytest.mark.parametrize("offset", [16, -2], ids=["first-float", "last-float"])
def test_audit_names_a_float_the_wire_changed(monkeypatch, kind, name, offset):
    # 16 is the low byte of the first float (an uplink's first mean loss);
    # with K=3 and J=2 the index block is the frame's last byte, so -2 is
    # the high byte of the last float
    mismatches = _audited_run(monkeypatch, "decode_frames", _flip_in_client_1_frame(
        kind, lambda frame: offset % len(frame)))
    assert mismatches == [f"epoch 2 client 1: {name} float round-trip failed"]


@pytest.mark.parametrize("kind, text", [
    (KIND_DOWNLINK, "downlink index round-trip failed"),
    (KIND_UPLINK, "uplink round-trip failed"),
])
def test_audit_names_an_index_the_wire_changed(monkeypatch, kind, text):
    # K=3 and J=2: the last byte holds two 2-bit indices and four zero bits;
    # swap the first for the one space the client did not sample
    def swap_first(byte):
        first, second = byte >> 6, (byte >> 4) & 0b11
        (unsampled,) = {0, 1, 2} - {first, second}
        return (unsampled << 6) | (second << 4)
    mismatches = _audited_run(monkeypatch, "decode_frames", _flip_in_client_1_frame(
        kind, lambda frame: len(frame) - 1, swap_first))
    assert mismatches == [f"epoch 2 client 1: {text}"]


@pytest.mark.parametrize("kind, name", [(KIND_DOWNLINK, "downlink"), (KIND_UPLINK, "uplink")])
@pytest.mark.parametrize("offset", [0, 4], ids=["epoch", "client-id"])
def test_audit_names_a_header_the_wire_changed(monkeypatch, kind, name, offset):
    mismatches = _audited_run(monkeypatch, "decode_frames", _flip_in_client_1_frame(
        kind, lambda frame: offset))
    assert mismatches == [f"epoch 2 client 1: {name} header round-trip failed"]


def test_audit_notes_every_downlink_check_before_any_uplink_check(monkeypatch):
    # one batch carries both directions; an uplink bit account (the first
    # check) still comes after a downlink header (the second)
    _add_one_to_epoch_2_client_1_bits(monkeypatch, 1)
    mismatches = _audited_run(monkeypatch, "decode_frames", _flip_in_client_1_frame(
        KIND_DOWNLINK, lambda frame: 0))
    assert mismatches == ["epoch 2 client 1: downlink header round-trip failed",
                          "epoch 2 client 1: engine uplink bits mismatch"]


def test_an_audit_cut_into_batches_stays_clean_and_still_names_a_fault(monkeypatch):
    whole = _small_audited_run()
    # 20 floats hold two frames of J * (d_max + 1) = 10 floats, so each
    # epoch's six frames travel in four batches, two per direction:
    # (downlink 0), (downlinks 1 and 2), (uplink 0), (uplinks 1 and 2)
    monkeypatch.setattr(protocol, "_BLOCK_FLOATS", 20)
    batches = []

    def count(original):
        def decode(buffer, lengths, num_spaces, dims):
            batches.append(len(lengths))
            return original(buffer, lengths, num_spaces, dims)
        return decode
    monkeypatch.setattr(protocol, "decode_frames", count(protocol.decode_frames))
    cut = _small_audited_run()
    assert batches == [1, 2, 1, 2] * 5
    assert cut.meta["audit_mismatches"] == []
    for panel in ("lead_indices", "predictions", "losses", "uplink_bits", "downlink_bits"):
        assert getattr(cut, panel).tobytes() == getattr(whole, panel).tobytes()
    # client 1's uplink is frame 4 of 6, in the epoch's last batch
    mismatches = _audited_run(monkeypatch, "decode_frames", _flip_in_client_1_frame(
        KIND_UPLINK, lambda frame: 16))
    assert mismatches == ["epoch 2 client 1: uplink float round-trip failed"]


def _decode_batch_sizes(monkeypatch):
    """Count the frames of every ``decode_frames`` call from now on."""
    batches = []

    def count(original):
        def decode(buffer, lengths, num_spaces, dims):
            batches.append(len(lengths))
            return original(buffer, lengths, num_spaces, dims)
        return decode
    monkeypatch.setattr(protocol, "decode_frames", count(protocol.decode_frames))
    return batches


def test_an_audit_batch_of_several_epochs_stays_clean_and_notes_epoch_by_epoch(monkeypatch):
    whole = _small_audited_run()
    # 120 floats hold 12 frames of J * (d_max + 1) = 10 floats: epochs 1 and
    # 2 are replayed together, their 6 downlinks in one batch and their 6
    # uplinks in another, then epochs 3 and 4, and the last epoch goes alone
    monkeypatch.setattr(protocol, "_BLOCK_FLOATS", 120)
    batches = _decode_batch_sizes(monkeypatch)
    joined = _small_audited_run()
    assert batches == [6, 6, 6, 6, 3, 3]
    assert joined.meta["audit_mismatches"] == []
    for panel in ("lead_indices", "predictions", "losses", "uplink_bits", "downlink_bits"):
        assert getattr(joined, panel).tobytes() == getattr(whole, panel).tobytes()

    # a fault in each epoch of the first batch: epoch 1's merge note still
    # comes before epoch 2's frame note
    def change(loss_est, _):
        loss_est[0] += 1e-6
    monkeypatch.setattr(protocol, "_audit_epoch", _perturb_audit_input(
        "loss_est", change, epoch=1)(protocol._audit_epoch))
    mismatches = _audited_run(monkeypatch, "decode_frames", _flip_in_client_1_frame(
        KIND_UPLINK, lambda frame: 16, epoch=2))
    assert mismatches == ["epoch 1: aggregated losses disagree with engine",
                          "epoch 2 client 1: uplink float round-trip failed"]


def test_a_hidden_arm_sized_audit_decodes_its_whole_run_in_one_batch(monkeypatch):
    # K=16 one-wide spaces, J=2: 4 floats a frame, so the run's 2 * 10 * 400
    # frames fit the default budget's 8,192 and are replayed after its last
    # epoch, one batch per direction
    spec = AdversarialSpec(kind="biased_arm", num_spaces=16, input_dim=16, horizon=400,
                           clients=10, seed=3, subset_size=2)
    spaces = tuple(make_space(CoordinateMap(16, i), radius=1.0, loss_kind=Loss.LINEAR)
                   for i in range(16))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.LINEAR, clients=10, subset_size=2,
                        horizon=400, epochs=400, master_seed=3, audit=True)
    batches = _decode_batch_sizes(monkeypatch)
    art = run_fomd_oms(cfg, generate_adversarial(spec))
    assert batches == [4000, 4000]
    assert art.meta["audit_frames_checked"] == 8000 and art.meta["audit_mismatches"] == []
