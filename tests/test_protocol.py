"""Tests for the communication layer: epochs, frames, bit accounting,
aggregation, and the epoch engine."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    encode_downlink,
    encode_uplink,
)
from fedoms.spaces import IdentityMap, Loss, make_space


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


@pytest.mark.parametrize("run_learner", [run_fomd_oms, run_nco_oms])
def test_nan_target_aborts_naming_the_round_and_space(run_learner):
    # NaN fails every ordered comparison, so the bound check must not pass it
    # on to the mirror step, which cannot say where it came from.  Streams
    # refuses non-finite values when it is built, so the NaN is written into
    # a built one: the kernel's own check is what must fire
    streams = synthetic_linear(input_dim=3, clients=2, horizon=10, seed=4)
    streams.ys[1, 6] = np.nan
    spaces = tuple(make_space(IdentityMap(3), radius=r, loss_kind=Loss.SQUARE)
                   for r in (0.5, 1.0))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                        horizon=10, master_seed=4)
    # J=K: client 1 samples both spaces, and space 0 is checked first
    with pytest.raises(RunInvariantError, match="round 7: space 0 produced loss nan"):
        run_learner(cfg, streams)


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
