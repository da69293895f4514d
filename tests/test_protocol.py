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
from fedoms.data import Streams, synthetic_linear
from fedoms.protocol import (
    AuditLog,
    DownlinkMessage,
    Frame,
    KIND_DOWNLINK,
    KIND_UPLINK,
    ProtocolError,
    RunInvariantError,
    UplinkMessage,
    account_bits,
    aggregate_reports,
    bits_per_index,
    decode_frame,
    decode_frames,
    encode_downlink,
    encode_frames,
    encode_uplink,
)
from fedoms.spaces import CoordinateMap, IdentityMap, Loss, make_space

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


def test_account_bits_matches_closed_forms():
    # J=2 sampled spaces of dimension 100 each, K=8 spaces total:
    # uplink = 32*(200 + 2) + 2*3 = 6470, downlink = 32*200 + 2*3 = 6406
    idx = (3, 5)
    weights = tuple(np.zeros(100) for _ in idx)
    down = DownlinkMessage(epoch=1, client_id=0, indices=idx, weights=weights)
    assert account_bits(down, num_spaces=8) == 6406
    up = UplinkMessage(
        epoch=1, client_id=0, indices=idx,
        mean_losses=np.zeros(2), mean_gradients=weights,
    )
    assert account_bits(up, num_spaces=8) == 6470


def test_account_bits_counts_per_space_dimensions():
    down = DownlinkMessage(1, 0, (0, 2), (np.zeros(3), np.zeros(7)))
    assert account_bits(down, num_spaces=4) == 32 * 10 + 2 * 2


# ---------------------------------------------------------------------------
# Frames


def _random_messages(rng, num_spaces, dims, subset_size, kind):
    idx = tuple(int(i) for i in rng.choice(num_spaces, size=subset_size, replace=False))
    if kind == KIND_DOWNLINK:
        return DownlinkMessage(
            epoch=int(rng.integers(1, 50)),
            client_id=int(rng.integers(10)),
            indices=idx,
            weights=tuple(rng.standard_normal(dims[i]) for i in idx),
        )
    return UplinkMessage(
        epoch=int(rng.integers(1, 50)),
        client_id=int(rng.integers(10)),
        indices=idx,
        mean_losses=rng.random(subset_size),
        mean_gradients=tuple(rng.standard_normal(dims[i]) for i in idx),
    )


@st.composite
def _messages(draw):
    """A message of either kind, its space count K and the per-space dims.

    K=1 makes the index field 0 bits wide; J stays within the header's
    one-byte index count, and epoch and client id span their 32-bit fields.
    """
    num_spaces = draw(st.one_of(st.just(1), st.integers(1, 300)), label="K")
    subset_size = draw(st.integers(1, min(num_spaces, 255)), label="J")
    indices = tuple(draw(st.permutations(range(num_spaces)))[:subset_size])
    dims = draw(st.lists(st.integers(1, 100), min_size=num_spaces,
                         max_size=num_spaces), label="dims")
    epoch = draw(st.integers(0, 2**32 - 1), label="epoch")
    client_id = draw(st.integers(0, 2**32 - 1), label="client id")
    # float values need no shrinking: draw a seed, not 25,000 floats
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors = tuple(rng.standard_normal(dims[i]) * 10.0 ** rng.integers(-3, 4)
                    for i in indices)
    if draw(st.sampled_from((KIND_DOWNLINK, KIND_UPLINK)), label="kind") == KIND_DOWNLINK:
        message = DownlinkMessage(epoch, client_id, indices, vectors)
    else:
        message = UplinkMessage(epoch, client_id, indices,
                                rng.random(subset_size), vectors)
    return message, num_spaces, dims


def _single(values):
    return np.asarray(values, dtype="<f4").astype(float)


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_frame_round_trip_preserves_messages_to_single_precision(case):
    msg, num_spaces, dims = case
    downlink = isinstance(msg, DownlinkMessage)
    frame = (encode_downlink if downlink else encode_uplink)(msg, num_spaces)
    assert frame.payload_bits == account_bits(msg, num_spaces)
    # padding never exceeds the byte that closes the index block
    assert 0 <= 8 * len(frame.payload) - frame.payload_bits < 8
    back = decode_frame(Frame.from_bytes(frame.to_bytes()), num_spaces, dims)
    assert type(back) is type(msg)
    assert (back.epoch, back.client_id) == (msg.epoch, msg.client_id)
    assert back.indices == msg.indices
    if downlink:
        pairs = zip(back.weights, msg.weights)
    else:
        assert np.array_equal(back.mean_losses, _single(msg.mean_losses))
        pairs = zip(back.mean_gradients, msg.mean_gradients)
    for got, want in pairs:
        assert np.array_equal(got, _single(want))


def test_frame_payload_is_byte_aligned_exactly_when_index_bits_are():
    # K=16 -> 4 bits per index, J=2 -> 8 index bits: byte-aligned payload
    msg = DownlinkMessage(1, 0, (0, 9), (np.zeros(5), np.zeros(5)))
    frame = encode_downlink(msg, num_spaces=16)
    assert frame.payload_bits == 8 * len(frame.payload) == 32 * 10 + 8
    # K=8 -> 3 bits per index, J=2 -> 6 index bits: two zero padding bits
    msg8 = DownlinkMessage(1, 0, (0, 5), (np.zeros(5), np.zeros(5)))
    frame8 = encode_downlink(msg8, num_spaces=8)
    assert 8 * len(frame8.payload) - frame8.payload_bits == 2


def test_frame_header_layout_is_sixteen_bytes_little_endian():
    msg = UplinkMessage(7, 3, (1, 0), np.array([0.5, 0.25]), (np.ones(2), np.ones(2)))
    blob = encode_uplink(msg, num_spaces=4).to_bytes()
    epoch, client, bits, kind, count, pad = struct.unpack_from("<IIIBBH", blob)
    assert (epoch, client, kind, count, pad) == (7, 3, KIND_UPLINK, 2, 0)
    assert bits == account_bits(msg, 4)
    assert len(blob) == 16 + (bits + 7) // 8
    # payload floats are little-endian IEEE-754 singles in message order
    first = struct.unpack_from("<f", blob, 16)[0]
    assert first == 0.5


def test_frame_rejects_malformed_blobs():
    with pytest.raises(ProtocolError, match="shorter"):
        Frame.from_bytes(b"\x00" * 10)
    msg = DownlinkMessage(1, 0, (0, 1), (np.zeros(2), np.zeros(2)))
    frame = encode_downlink(msg, num_spaces=4)
    # header claiming more bits than the payload carries
    tampered = struct.pack("<IIIBBH", 1, 0, 10_000, KIND_DOWNLINK, 2, 0) + frame.payload
    with pytest.raises(ProtocolError, match="payload bits"):
        Frame.from_bytes(tampered)
    # non-zero padding bits in the index block
    bad_payload = frame.payload[:-1] + bytes([frame.payload[-1] | 0x01])
    bad = Frame(1, 0, frame.payload_bits, KIND_DOWNLINK, 2, bad_payload)
    with pytest.raises(ProtocolError, match="padding"):
        decode_frame(bad, 4, [2, 2, 2, 2])
    # float block the wrong length for the decoded indices
    short = Frame(1, 0, frame.payload_bits - 32, KIND_DOWNLINK, 2, frame.payload[4:])
    with pytest.raises(ProtocolError, match="float block"):
        decode_frame(short, 4, [2, 2, 2, 2])


def test_encoders_reject_header_fields_that_do_not_fit():
    too_many = tuple(range(256))  # the index count is a one-byte field
    down = DownlinkMessage(1, 0, too_many, tuple(np.zeros(1) for _ in too_many))
    with pytest.raises(ProtocolError, match="index count .* 256 .* 8-bit"):
        encode_downlink(down, num_spaces=256)
    up = UplinkMessage(1, 0, too_many, np.zeros(256), tuple(np.zeros(1) for _ in too_many))
    with pytest.raises(ProtocolError, match="index count"):
        encode_uplink(up, num_spaces=256)
    for epoch, client in ((2**32, 0), (1, 2**32), (-1, 0)):
        msg = DownlinkMessage(epoch, client, (0, 1), (np.zeros(1), np.zeros(1)))
        with pytest.raises(ProtocolError, match="32-bit"):
            encode_downlink(msg, num_spaces=4)
    # the largest values that fit still round-trip
    edge = DownlinkMessage(2**32 - 1, 2**32 - 1, tuple(range(255)),
                           tuple(np.zeros(1) for _ in range(255)))
    back = decode_frame(Frame.from_bytes(encode_downlink(edge, 256).to_bytes()), 256, [1] * 256)
    assert (back.epoch, back.client_id, back.indices) == (edge.epoch, edge.client_id, edge.indices)


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
    dims = [3] * 8
    msg = _random_messages(rng, 8, dims, 2, kind)
    frame = encode_downlink(msg, 8) if kind == KIND_DOWNLINK else encode_uplink(msg, 8)
    blob = bytearray(frame.to_bytes())
    struct.pack_into("<I", blob, 8, frame.payload_bits + offset)
    tampered = Frame.from_bytes(bytes(blob))
    with pytest.raises(ProtocolError, match="payload bits"):
        decode_frame(tampered, 8, dims)


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
    msg = DownlinkMessage(1, 0, tuple(indices), tuple(np.zeros(1) for _ in indices))
    back = decode_frame(
        Frame.from_bytes(encode_downlink(msg, num_spaces).to_bytes()),
        num_spaces,
        [1] * num_spaces,
    )
    assert back.indices == tuple(indices)


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
    counts = np.array([row.size for row in rows])
    floats = np.zeros((len(rows), counts.max()))
    for r, row in enumerate(rows):
        floats[r, :row.size] = row
    buffer, lengths = encode_frames(kind, epoch, client_ids, indices, floats, counts,
                                    num_spaces)
    frames = [oracles.reference_frame_bytes(k, epoch, int(c), idx.tolist(), row,
                                            num_spaces)
              for k, c, idx, row in zip(frame_kinds, client_ids, indices, rows)]
    assert buffer.tobytes() == b"".join(frames)
    assert lengths.tolist() == [len(f) for f in frames]
    header, got_indices, losses, vectors = decode_frames(buffer, lengths, num_spaces, dims)
    assert header["epoch"].tolist() == [epoch] * len(rows)
    assert header["client_id"].tolist() == client_ids.tolist()
    assert header["kind"].tolist() == frame_kinds
    assert np.array_equal(got_indices, indices)
    J = indices.shape[1]
    for r, row in enumerate(rows):
        lead = J if frame_kinds[r] == KIND_UPLINK else 0
        assert np.array_equal(losses[r], _single(row[:J]) if lead else np.zeros(J))
        sent = np.concatenate([vectors[r, a, :dims[i]] for a, i in enumerate(indices[r])])
        assert np.array_equal(sent, _single(row[lead:]))


def test_a_report_or_broadcast_naming_a_space_twice_is_rejected():
    # without the check this report decodes and aggregates at double weight
    up = UplinkMessage(1, 0, (1, 1), np.array([0.5, 0.5]), (np.ones(1), np.ones(1)))
    with pytest.raises(ProtocolError, match="client 0 names space 1 twice"):
        decode_frame(Frame.from_bytes(encode_uplink(up, 4).to_bytes()), 4, [1] * 4)
    with pytest.raises(ProtocolError, match="client 0 names space 1 twice"):
        aggregate_reports([up], np.full(4, 0.5), 4, [1] * 4)
    down = DownlinkMessage(1, 7, (2, 0, 2), (np.ones(1), np.ones(1), np.ones(1)))
    with pytest.raises(ProtocolError, match="client 7 names space 2 twice"):
        decode_frame(Frame.from_bytes(encode_downlink(down, 4).to_bytes()), 4, [1] * 4)


# ---------------------------------------------------------------------------
# Aggregation


def test_aggregate_reports_hand_example():
    # two clients, three spaces, inclusion probs (0.5, 0.25, 1.0)
    incl = np.array([0.5, 0.25, 1.0])
    r0 = UplinkMessage(1, 0, (0, 1), np.array([0.2, 0.3]), (np.array([1.0]), np.array([2.0, 2.0])))
    r1 = UplinkMessage(1, 1, (1, 2), np.array([0.1, 0.4]), (np.array([3.0, 1.0]), np.array([0.5])))
    loss_est, grad_est = aggregate_reports([r0, r1], incl, 3, dims=[1, 2, 1])
    # space 0: (0.2/0.5)/2 ; space 1: (0.3/0.25 + 0.1/0.25)/2 ; space 2: (0.4/1)/2
    assert np.allclose(loss_est, [0.2, 0.8, 0.2])
    assert np.allclose(grad_est[0], [1.0])
    assert np.allclose(grad_est[1], [(2.0 / 0.25 + 3.0 / 0.25) / 2, (2.0 / 0.25 + 1.0 / 0.25) / 2])
    assert np.allclose(grad_est[2], [0.25])


def test_aggregate_reports_unsampled_spaces_estimate_zero():
    incl = np.array([0.6, 0.6, 0.6, 0.6])
    r = UplinkMessage(2, 0, (1, 3), np.array([1.0, 1.0]), (np.ones(2), np.ones(2)))
    loss_est, grad_est = aggregate_reports([r], incl, 4, dims=[2, 2, 2, 2])
    assert loss_est[0] == 0.0 and loss_est[2] == 0.0
    assert set(grad_est) == {1, 3}


def test_aggregate_reports_validation():
    incl = np.full(3, 0.5)
    good = UplinkMessage(1, 0, (0, 1), np.zeros(2), (np.zeros(1), np.zeros(1)))
    with pytest.raises(ProtocolError, match="no reports"):
        aggregate_reports([], incl, 3, [1, 1, 1])
    other_epoch = UplinkMessage(2, 1, (0, 1), np.zeros(2), (np.zeros(1), np.zeros(1)))
    with pytest.raises(ProtocolError, match="mixed epochs"):
        aggregate_reports([good, other_epoch], incl, 3, [1, 1, 1])
    dup = UplinkMessage(1, 0, (1, 2), np.zeros(2), (np.zeros(1), np.zeros(1)))
    with pytest.raises(ProtocolError, match="duplicate"):
        aggregate_reports([good, dup], incl, 3, [1, 1, 1])
    bad_dim = UplinkMessage(1, 1, (0, 1), np.zeros(2), (np.zeros(4), np.zeros(1)))
    with pytest.raises(ProtocolError, match="shape"):
        aggregate_reports([good, bad_dim], incl, 3, [1, 1, 1])
    with pytest.raises(ProtocolError, match="inclusion_probs"):
        aggregate_reports([good], np.full(2, 0.5), 3, [1, 1, 1])


def test_message_shape_validation():
    with pytest.raises(ProtocolError):
        DownlinkMessage(1, 0, (0, 1), (np.zeros(2),))
    with pytest.raises(ProtocolError):
        UplinkMessage(1, 0, (0, 1), np.zeros(3), (np.zeros(1), np.zeros(1)))


# ---------------------------------------------------------------------------
# Engine behavior through the public driver


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


def test_numpy_keeps_the_summation_orders_the_kernel_relies_on():
    # the kernel's trace bytes rest on these orders (run_epoch, _add_rounds,
    # _sum_by_space); a numpy release that changes one must fail here
    rng = np.random.default_rng(11)
    parted = 0
    for n in [*range(1, 40), 127, 128, 129, 200, 257]:
        x = rng.normal(size=(n, 3))
        # a table more than one column wide is summed down its rows, one at a time
        assert x.sum(axis=0).tolist() == [oracles.running_sum(col) for col in x.T]
        # a single column is summed pairwise: the running sum below 8 terms
        column = x[:, :1].sum(axis=0)[0]
        assert column == 0.0 + oracles.pairwise_sum(x[:, 0])
        if n < 8:
            assert column == oracles.running_sum(x[:, 0])
        parted += column != oracles.running_sum(x[:, 0])
        # bincount adds each cell's weights in input order
        cells = rng.integers(0, 4, n)
        assert np.bincount(cells, x[:, 0], minlength=4).tolist() == [
            oracles.running_sum(x[cells == c, 0]) for c in range(4)]
        # reduceat adds a segment's first term to the pairwise sum of the
        # rest, which from 3 terms on is neither order above
        if n > 1:
            cut = int(rng.integers(0, n - 1))
            assert np.add.reduceat(x[:, 0], [0, cut])[-1] == (
                x[cut, 0] + oracles.pairwise_sum(x[cut + 1:, 0]))
        # so a segment led by a +0.0 gets the one-column sum
        assert np.add.reduceat(np.concatenate(([0.0], x[:, 0])), [0])[0] == column
    assert parted  # the pairwise and the running sums do differ from 8 terms on
    # each order starts from +0.0, not from the first term
    minus = np.full((3, 2), -0.0)
    for total in (minus.sum(axis=0), minus[:, :1].sum(axis=0),
                  np.bincount([0, 0, 0], minus[:, 0])):
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
    monkeypatch.setattr(protocol, "_BLOCK_FLOATS", 1)  # one round per block
    with pytest.raises(RunInvariantError) as one_round:
        run_fomd_oms(cfg, streams)
    assert str(blocked.value) == str(one_round.value)
    assert re.match(r"round 16: space 0 produced " + message, str(blocked.value))


def _kernel_calls_per_epoch(monkeypatch, spaces, input_dim, cooperative, epochs, clients):
    """The calls each epoch's run_epoch makes from protocol.py's own frames
    (numpy functions, methods, builtins and the module's helpers, each
    counted once however much it does inside), after the first epoch, which
    also fills the set-up's cached properties."""
    counts = []

    def counted(state, setup, epoch):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            caller = frame if event == "c_call" else frame.f_back if event == "call" else None
            if caller is not None and caller.f_code.co_filename == protocol.__file__:
                calls += 1

        sys.setprofile(profile)
        try:
            protocol.run_epoch(state, setup, epoch)
        finally:
            sys.setprofile(None)
        counts.append(calls)

    monkeypatch.setattr(learners, "run_epoch", counted)
    streams = synthetic_linear(input_dim=input_dim, clients=clients, horizon=12, seed=1)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=clients, subset_size=2,
                        horizon=12, epochs=epochs, master_seed=2)
    learners._run_servers(cfg, streams, epochs or 12, cooperative=cooperative)
    return counts[1:]


def _every_client_samples(monkeypatch, forced):
    """Make every subset lead with the spaces ``forced``, then the others drawn."""

    def with_forced(probs, J, uniforms):
        drawn = sampling.subsets_from_uniforms(probs, J, uniforms).tolist()
        return np.array([([*forced] + [k for k in row if k not in forced])[:J] for row in drawn])

    monkeypatch.setattr(protocol, "subsets_from_uniforms", with_forced)


@pytest.mark.parametrize("clients", [3, 10], ids=["under-8-per-space", "10-on-forced-spaces"])
@pytest.mark.parametrize("cooperative, epochs", [(True, None), (True, 2), (False, None)],
                         ids=["fomd", "fomd-6-round-epochs", "nco"])
def test_a_coordinate_epoch_makes_the_same_calls_whatever_spaces_it_touches(
        monkeypatch, clients, cooperative, epochs):
    # clients sample 2 of K spaces each.  3 clients touch 2 to 4 spaces at
    # K = 4 and 2 to 6 at K = 32, none of them 8 times, so one bincount sums
    # the gradients.  10 clients all sample spaces 0 and 1 at K = 4, and
    # space 0 and 1 to 10 others at K = 32: two spaces of 10 terms against
    # one, which numpy sums pairwise, so one reduceat sums them
    per_k = {}
    for K in (4, 32):
        if clients == 10:
            _every_client_samples(monkeypatch, (0, 1) if K == 4 else (0,))
        spaces = tuple(make_space(CoordinateMap(K, i), 1.0, Loss.SQUARE) for i in range(K))
        per_k[K] = _kernel_calls_per_epoch(monkeypatch, spaces, K, cooperative, epochs, clients)
    assert len(set(per_k[4] + per_k[32])) == 1, per_k


def _linear_run_error(xs, ys, path, epochs=None, loss_bounds=(None,) * 3, seed=5):
    """The RunInvariantError text of a cooperative run of three 1-wide identity
    spaces (linear loss, J = K = 3) over ``xs``/``ys``, with the features
    gathered by the kernel (``path`` "fused") or by each space's map ("map")."""
    spaces = []
    for radius, bound in zip((0.5, 0.75, 1.0), loss_bounds):
        space = make_space(IdentityMap(1), radius, Loss.LINEAR)
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


def _perturb_audit_input(name, change):
    """Wrap ``_audit_epoch`` so that epoch 2 sees ``change(copy of input name)``."""
    def wrapper(original):
        def audit_epoch(*args):
            bound = inspect.signature(original).bind(*args)
            if bound.arguments["epoch"] == 2:
                value = np.array(bound.arguments[name], copy=True)
                change(value, bound.arguments)
                bound.arguments[name] = value
            return original(*bound.args)
        return audit_epoch
    return wrapper


def _add_one_to_client_1(value, _):
    value[1] += 1


@pytest.mark.parametrize("name, text", [
    ("down_bits", "engine downlink bits mismatch"),
    ("up_bits", "engine uplink bits mismatch"),
])
def test_audit_names_a_bit_account_the_frame_does_not_carry(monkeypatch, name, text):
    mismatches = _audited_run(monkeypatch, "_audit_epoch",
                              _perturb_audit_input(name, _add_one_to_client_1))
    assert mismatches == [f"epoch 2 client 1: {text}"]


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


def _flip_in_client_1_frame(kind, offset_of, change=lambda byte: byte ^ 0x01):
    """Wrap ``decode_frames`` so that one byte of client 1's epoch-2 frame changes.

    The frame is the one whose header names epoch 2, client 1 and ``kind``,
    wherever it sits in whichever batch carries it.  ``offset_of(frame)``
    picks the byte's offset within the frame's bytes.
    """
    def wrapper(original):
        def decode(buffer, lengths, num_spaces, dims):
            starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).tolist()
            for start, length in zip(starts, np.asarray(lengths).tolist()):
                frame = buffer[start:start + length]
                epoch, client, _, frame_kind = struct.unpack_from("<IIIB", frame.tobytes())
                if (epoch, client, frame_kind) == (2, 1, kind):
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
    monkeypatch.setattr(protocol, "_audit_epoch", _perturb_audit_input(
        "up_bits", _add_one_to_client_1)(protocol._audit_epoch))
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
