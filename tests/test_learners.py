"""Tests for schedules, the two drivers, and regret accounting."""

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fedoms.protocol as protocol
import oracles
from fedoms import learners
from fedoms.data import AdversarialSpec, Streams, generate_adversarial, synthetic_linear
from fedoms.learners import (
    LearnerConfig,
    best_fixed_hypothesis,
    eta_schedule,
    initial_distribution,
    lambda_schedule,
    regret_accounting,
    run_fomd_oms,
    run_nco_oms,
)
from fedoms.protocol import RunInvariantError
from fedoms.rng import ROLE_SAMPLING, sampling_uniforms, stream
from fedoms.spaces import (
    CoordinateMap,
    IdentityMap,
    Loss,
    feature_norm_bound,
    gaussian_rff,
    make_space,
)


def _stack(*runs):
    """Run ``runs`` as one kernel stack, each laid out by ``learners._layout``."""
    return learners._run_stack(list(runs), [learners._layout(*run) for run in runs])


def _lambda(K, J, M, T, rounds, U=1.0, G=1.0):
    return lambda_schedule((U,) * K, (G,) * K, J, M, T, rounds)


# ---------------------------------------------------------------------------
# Schedules


def test_eta_matches_hand_value():
    # K=10, J=2, M=10, T=10000: sqrt(ln 1e5) / (2 sqrt(1.8e4)), cap 1/16
    expected = np.sqrt(np.log(1e5)) / (2.0 * np.sqrt(1.8e4))
    assert expected < 1.0 / 16.0
    assert eta_schedule(10, 2, 10, 10_000) == pytest.approx(expected, abs=1e-15)


def test_eta_cap_engages_for_small_subsets():
    # short horizon makes the first term large; the cap (J-1)/(2(K-J)) wins
    assert eta_schedule(10, 2, 1, 4) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_eta_has_no_cap_at_full_subsets():
    expected = np.sqrt(np.log(150)) / (2.0 * np.sqrt(50.0))
    assert eta_schedule(3, 3, 1, 50) == pytest.approx(expected, abs=1e-15)


def test_lambda_matches_hand_value_and_is_flat_early():
    # K=10, J=2, M=10, U=1, G=4: flat at 1/(8 sqrt(1.8*64)) until t > 64
    expected = 1.0 / (8.0 * np.sqrt(1.8 * 64.0))
    at_1, at_64, at_65 = _lambda(10, 2, 10, 10_000, [1, 64, 65], G=4.0)[:, 0]
    assert at_1 == pytest.approx(expected, rel=1e-12)
    assert at_64 == at_1
    assert at_65 < at_64


def test_lambda_reduces_to_inverse_sqrt_t_at_full_subsets():
    rates = _lambda(4, 4, 1, 100, [1, 10, 99], U=0.5, G=2.0)[:, 2]
    for t, rate in zip((1, 10, 99), rates):
        assert rate == pytest.approx(0.5 / (2.0 * 2.0 * np.sqrt(t)), rel=1e-12)


def test_lambda_is_non_increasing():
    values = _lambda(12, 3, 4, 500, np.arange(1, 501), U=2.0, G=3.0)[:, 5].tolist()
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedules_match_independent_evaluator_on_a_grid():
    rng = np.random.default_rng(77)
    for _ in range(60):
        K = int(rng.integers(2, 40))
        J = int(rng.integers(2, K + 1))
        M = int(rng.integers(1, 30))
        T = int(rng.integers(2, 100_000))
        U, G = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
        t = int(rng.integers(1, T + 1))
        assert eta_schedule(K, J, M, T) == pytest.approx(
            oracles.schedule_eta(K, J, M, T), abs=1e-12, rel=1e-12
        )
        assert _lambda(K, J, M, T, [t], U=U, G=G)[0, 0] == pytest.approx(
            oracles.schedule_lambda(U, G, K, J, M, t), abs=1e-12, rel=1e-12
        )


def test_initial_distribution_frozen_example():
    # K=10, T=1000, unique cheapest space: 0.91 for it, 0.01 for the rest
    p = initial_distribution((1.0,) + (2.0,) * 9, 1000)
    assert p[0] == pytest.approx(0.91, abs=1e-12)
    assert np.allclose(p[1:], 0.01, atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_initial_distribution_splits_ties_and_has_uniform_presets(caplog):
    bounds = (1.0,) * 4  # all loss bounds equal
    assert np.allclose(initial_distribution(bounds, 100), 0.25, atol=1e-15)
    assert np.allclose(initial_distribution(bounds, 100, uniform=True), 0.25, atol=1e-15)
    with caplog.at_level("WARNING", logger="fedoms.learners"):
        p = initial_distribution((1.0,) * 8, 5)  # K >= horizon: uniform fallback
    assert np.allclose(p, 1.0 / 8.0, atol=1e-15)
    assert any("falling back to uniform" in r.message for r in caplog.records)


def test_initial_distribution_is_a_simplex_point_for_many_sizes():
    rng = np.random.default_rng(3)
    for _ in range(40):
        K = int(rng.integers(2, 50))
        T = int(rng.integers(K + 1, 10_000))
        bounds = tuple(float(b) for b in rng.uniform(0.5, 3.0, size=K))
        p = initial_distribution(bounds, T)
        assert (p > 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(p, oracles.schedule_initial(bounds, K, T), atol=1e-12)


def test_lambda_schedule_rejects_rounds_outside_the_horizon():
    for outside in ([101], [0], [1, 101], [np.nan]):
        with pytest.raises(ValueError, match=r"rounds must lie in \[1, 100\]"):
            _lambda(5, 2, 1, 100, outside)


# ---------------------------------------------------------------------------
# Cooperative driver vs the loop-based reference implementation


def _nested_spaces(input_dim, radii, loss_kind=Loss.SQUARE):
    return tuple(
        make_space(IdentityMap(input_dim), radius=r, loss_kind=loss_kind) for r in radii
    )


@pytest.mark.parametrize("epochs", [200, 50, 10])
def test_engine_matches_reference_implementation(epochs):
    spaces = _nested_spaces(4, (0.25, 0.5, 0.75, 1.0))
    streams = synthetic_linear(input_dim=4, clients=3, horizon=200, seed=42)
    cfg = LearnerConfig(
        spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
        horizon=200, epochs=epochs, master_seed=12345,
    )
    art = run_fomd_oms(cfg, streams)
    ref = oracles.reference_fomd(
        spaces, Loss.SQUARE, streams.xs, streams.ys, subset_size=2,
        epochs=epochs, uniforms=sampling_uniforms(12345, 3, 200, 2),
    )
    assert np.array_equal(art.lead_indices.reshape(200, 3), ref["leads"])
    np.testing.assert_allclose(
        art.predictions.reshape(200, 3), ref["predictions"], atol=1e-9, rtol=0
    )
    np.testing.assert_allclose(
        art.losses.reshape(200, 3), ref["losses"], atol=1e-9, rtol=0
    )
    np.testing.assert_allclose(art.final_probs, ref["final_probs"], atol=1e-9, rtol=0)


def test_sampling_uniforms_are_kept_and_read_only():
    first = sampling_uniforms(7, 3, 20, 2)
    for j in range(3):
        assert np.array_equal(first[j], stream(7, ROLE_SAMPLING, j).random((20, 2)))
    again = sampling_uniforms(7, 3, 20, 2)
    assert again.tobytes() == first.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        again[0, 0, 0] = 0.5
    other = sampling_uniforms(8, 3, 20, 2)
    assert other.tobytes() != first.tobytes()
    assert sampling_uniforms(7, 3, 20, 2).tobytes() == first.tobytes()


def test_engine_matches_reference_at_full_subsets():
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    streams = synthetic_linear(input_dim=3, clients=2, horizon=60, seed=8)
    cfg = LearnerConfig(
        spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=3,
        horizon=60, master_seed=9,
    )
    art = run_fomd_oms(cfg, streams)
    ref = oracles.reference_fomd(
        spaces, Loss.SQUARE, streams.xs, streams.ys, subset_size=3,
        epochs=60, uniforms=sampling_uniforms(9, 2, 60, 3),
    )
    assert np.array_equal(art.lead_indices.reshape(60, 2), ref["leads"])
    np.testing.assert_allclose(art.final_probs, ref["final_probs"], atol=1e-9, rtol=0)


@st.composite
def _reference_runs(draw):
    """2 <= K <= 5 spaces, all coordinate, all identity, all RFF or of mixed
    kinds and widths, over one input width; 2 <= J <= K, M <= 10 clients (so
    a coordinate space can collect 8 or more reports in an epoch), T <= 24
    rounds in R epochs, any loss and either initial distribution.  The maps,
    radii and streams come from a drawn seed, which keeps a failure quick to
    shrink; radii are capped for the linear loss at radius * feature_bound <= 1."""
    K = draw(st.integers(2, 5), label="K")
    J = draw(st.integers(2, K), label="J")
    M = draw(st.integers(1, 10), label="M")
    T = draw(st.integers(1, 24), label="T")
    R = draw(st.sampled_from([r for r in range(1, T + 1) if T % r == 0]), label="epochs")
    d = draw(st.integers(2, 4), label="input width")
    loss = draw(st.sampled_from(list(Loss)), label="loss")
    family = draw(st.sampled_from(["coordinate", "identity", "rff", "mixed"]), label="kinds")
    uniform_init = draw(st.booleans(), label="uniform_init")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(K):
        kind = family if family != "mixed" else ("coordinate", "identity", "rff")[rng.integers(3)]
        if kind == "identity":
            fm = IdentityMap(d)
        elif kind == "coordinate":
            fm = CoordinateMap(d, int(rng.integers(d)))
        else:
            fm = gaussian_rff(d, int(rng.integers(1, 7)), float(rng.uniform(0.5, 3.0)), rng)
        top = min(2.0, 1.0 / feature_norm_bound(fm)) if loss is Loss.LINEAR else 2.0
        spaces.append(make_space(fm, float(rng.uniform(0.1, top)), loss))
    return tuple(spaces), loss, J, M, T, R, d, uniform_init, seed


@settings(deadline=None, max_examples=100)
@given(_reference_runs())
def test_both_learners_match_the_plain_loop_reference_on_random_configs(run):
    # the cooperative learner is the reference over all clients; each
    # noncooperative client is the reference run alone on its own stream,
    # with its own slice of the uniform table.  The cooperative run is
    # audited: its wire replay must find its merge equal bit for bit
    spaces, loss, J, M, T, R, d, uniform_init, seed = run
    streams = synthetic_linear(input_dim=d, clients=M, horizon=T, seed=seed)
    uniforms = sampling_uniforms(seed, M, T, J)
    for learner, epochs, groups in ((run_fomd_oms, R, [slice(None)]),
                                    (run_nco_oms, T, [slice(j, j + 1) for j in range(M)])):
        cooperative = learner is run_fomd_oms
        cfg = LearnerConfig(spaces=spaces, loss=loss, clients=M, subset_size=J, horizon=T,
                            epochs=epochs if cooperative else None,
                            master_seed=seed, uniform_init=uniform_init, audit=cooperative)
        art = learner(cfg, streams)
        if cooperative:
            assert art.meta["audit_mismatches"] == []
            assert art.meta["audit_frames_checked"] == 2 * M * R
        # the artifact carries no models: the final weights come from the state
        state, _, _, _ = _stack(("fomd" if cooperative else "nco", cfg, streams))
        for s, group in enumerate(groups):
            ref = oracles.reference_fomd(spaces, loss, streams.xs[group], streams.ys[group],
                                         subset_size=J, epochs=epochs,
                                         uniforms=uniforms[group], uniform_init=uniform_init)
            assert np.array_equal(art.lead_indices.reshape(T, M)[:, group], ref["leads"])
            for panel in ("predictions", "losses"):
                np.testing.assert_allclose(getattr(art, panel).reshape(T, M)[:, group],
                                           ref[panel], atol=1e-9, rtol=0)
            np.testing.assert_allclose(np.atleast_2d(art.final_probs)[s], ref["final_probs"],
                                       atol=1e-9, rtol=0)
            for i, weights in enumerate(ref["weights"]):
                np.testing.assert_allclose(state.weights[s, i, :weights.size], weights,
                                           atol=1e-9, rtol=0)


# ---------------------------------------------------------------------------
# Batching equivalence and parity between the two drivers


def _trace_tuple(artifact):
    return (
        artifact.lead_indices.tobytes(),
        artifact.predictions.tobytes(),
        artifact.losses.tobytes(),
        artifact.targets.tobytes(),
    )


def test_explicit_full_epoch_count_is_byte_identical_to_default():
    spaces = _nested_spaces(4, (0.25, 0.5, 0.75, 1.0))
    streams = synthetic_linear(input_dim=4, clients=3, horizon=200, seed=1)
    base = dict(spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
                horizon=200, master_seed=99)
    default = run_fomd_oms(LearnerConfig(**base), streams)
    explicit = run_fomd_oms(LearnerConfig(epochs=200, **base), streams)
    assert _trace_tuple(default) == _trace_tuple(explicit)
    assert np.array_equal(default.final_probs, explicit.final_probs)
    assert default.total_uplink_bits == explicit.total_uplink_bits


def test_single_client_cooperative_equals_noncooperative_bitwise():
    spaces = _nested_spaces(5, (0.2, 0.4, 0.6, 0.8, 1.0))
    streams = synthetic_linear(input_dim=5, clients=1, horizon=150, seed=6)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=1, subset_size=2,
                        horizon=150, master_seed=31)
    coop = run_fomd_oms(cfg, streams)
    solo = run_nco_oms(cfg, streams)
    assert _trace_tuple(coop) == _trace_tuple(solo)
    assert np.array_equal(coop.final_probs, solo.final_probs.ravel())


def _mixed_dimension_spaces(input_dim):
    # identity and single-coordinate maps together mix feature widths, so
    # the engine pads the narrower spaces' weight and feature rows with zeros
    return (
        make_space(IdentityMap(input_dim), radius=0.5, loss_kind=Loss.SQUARE),
        make_space(CoordinateMap(input_dim, 1), radius=1.0, loss_kind=Loss.SQUARE),
        make_space(IdentityMap(input_dim), radius=1.5, loss_kind=Loss.SQUARE),
    )


def _absolute_spaces(input_dim):
    return tuple(
        make_space(IdentityMap(input_dim), radius=r, loss_kind=Loss.ABSOLUTE)
        for r in (0.3, 0.6, 0.9)
    )


@pytest.mark.parametrize("spaces, loss", [
    (_mixed_dimension_spaces(4), Loss.SQUARE),
    (_absolute_spaces(4), Loss.ABSOLUTE),
])
def test_noncooperative_clients_each_match_the_solo_reference(spaces, loss):
    # every noncooperative client is the cooperative learner run alone on
    # its own stream, with its own slice of the uniform table
    M, T, J, seed = 3, 60, 2, 41
    streams = synthetic_linear(input_dim=4, clients=M, horizon=T, seed=seed)
    cfg = LearnerConfig(spaces=spaces, loss=loss, clients=M, subset_size=J,
                        horizon=T, master_seed=seed)
    art = run_nco_oms(cfg, streams)
    uniforms = sampling_uniforms(seed, M, T, J)
    for j in range(M):
        ref = oracles.reference_fomd(
            spaces, loss, streams.xs[j:j + 1], streams.ys[j:j + 1],
            subset_size=J, epochs=T, uniforms=uniforms[j:j + 1],
        )
        assert np.array_equal(art.lead_indices.reshape(T, M)[:, j], ref["leads"][:, 0])
        np.testing.assert_allclose(
            art.predictions.reshape(T, M)[:, j], ref["predictions"][:, 0],
            atol=1e-9, rtol=0,
        )
        np.testing.assert_allclose(
            art.losses.reshape(T, M)[:, j], ref["losses"][:, 0], atol=1e-9, rtol=0
        )
        np.testing.assert_allclose(art.final_probs[j], ref["final_probs"],
                                   atol=1e-9, rtol=0)


@pytest.mark.parametrize("epochs", [60, 15])
def test_mixed_dimension_spaces_match_reference(epochs):
    spaces = _mixed_dimension_spaces(4)
    streams = synthetic_linear(input_dim=4, clients=3, horizon=60, seed=23)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3,
                        subset_size=2, horizon=60, epochs=epochs, master_seed=23)
    art = run_fomd_oms(cfg, streams)
    ref = oracles.reference_fomd(
        spaces, Loss.SQUARE, streams.xs, streams.ys, subset_size=2,
        epochs=epochs, uniforms=sampling_uniforms(23, 3, 60, 2),
    )
    assert np.array_equal(art.lead_indices.reshape(60, 3), ref["leads"])
    np.testing.assert_allclose(
        art.predictions.reshape(60, 3), ref["predictions"], atol=1e-9, rtol=0
    )
    np.testing.assert_allclose(art.final_probs, ref["final_probs"], atol=1e-9, rtol=0)


def test_mixed_dimension_single_client_parity():
    spaces = _mixed_dimension_spaces(4)
    streams = synthetic_linear(input_dim=4, clients=1, horizon=80, seed=29)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=1,
                        subset_size=2, horizon=80, master_seed=29)
    coop = run_fomd_oms(cfg, streams)
    solo = run_nco_oms(cfg, streams)
    assert _trace_tuple(coop) == _trace_tuple(solo)
    assert np.array_equal(coop.final_probs, solo.final_probs.ravel())


def test_mixed_dimension_noncooperative_run_is_deterministic():
    spaces = _mixed_dimension_spaces(4)
    streams = synthetic_linear(input_dim=4, clients=3, horizon=40, seed=37)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3,
                        subset_size=2, horizon=40, master_seed=37)
    first = run_nco_oms(cfg, streams)
    second = run_nco_oms(cfg, streams)
    assert _trace_tuple(first) == _trace_tuple(second)
    assert np.array_equal(first.final_probs, second.final_probs)
    assert first.total_uplink_bits == 0 and first.total_downlink_bits == 0


def test_noncooperative_runs_send_nothing():
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    streams = synthetic_linear(input_dim=3, clients=4, horizon=30, seed=2)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=4, subset_size=2,
                        horizon=30, master_seed=2)
    art = run_nco_oms(cfg, streams)
    assert art.total_uplink_bits == 0
    assert art.total_downlink_bits == 0
    assert art.uplink_bits.sum() == 0 and art.downlink_bits.sum() == 0


@pytest.mark.parametrize("with_identity", [False, True])
def test_shared_adversarial_stream_runs_like_a_contiguous_copy(tmp_path, with_identity):
    # generate_adversarial hands every client one read-only broadcast view;
    # the kernel must read it exactly as it reads per-client copies
    spec = AdversarialSpec(kind="biased_arm", num_spaces=4, input_dim=4,
                           horizon=60, clients=3, seed=5, bias=0.2)
    shared = generate_adversarial(spec)
    assert shared.xs.strides[0] == 0 and not shared.xs.flags.writeable
    copied = Streams(xs=shared.xs.copy(), ys=shared.ys.copy(), meta=shared.meta)
    spaces = tuple(make_space(CoordinateMap(4, i), radius=1.0, loss_kind=Loss.LINEAR)
                   for i in range(4))
    if with_identity:  # mixed widths take the per-space gather
        spaces += (make_space(IdentityMap(4), radius=0.25, loss_kind=Loss.LINEAR),)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.LINEAR, clients=3, subset_size=2,
                        horizon=60, master_seed=5)
    for run in (run_fomd_oms, run_nco_oms):
        a = run(cfg, shared).to_csv(tmp_path / "shared.csv")
        b = run(cfg, copied).to_csv(tmp_path / "copied.csv")
        assert a.read_bytes() == b.read_bytes()


def test_noncooperative_clients_with_identical_streams_reach_identical_states():
    # same data for every client and J=K: inclusion is 1, so every client
    # performs the same update regardless of its private sampling order
    spec = AdversarialSpec(kind="biased_arm", num_spaces=4, input_dim=4,
                           horizon=120, clients=5, seed=3, subset_size=4, bias=0.2)
    streams = generate_adversarial(spec)
    spaces = tuple(
        make_space(CoordinateMap(4, i), radius=1.0, loss_kind=Loss.LINEAR)
        for i in range(4)
    )
    cfg = LearnerConfig(spaces=spaces, loss=Loss.LINEAR, clients=5, subset_size=4,
                        horizon=120, master_seed=13)
    art = run_nco_oms(cfg, streams)
    probs = art.final_probs
    for j in range(1, 5):
        assert np.array_equal(probs[0], probs[j])


def test_noncooperative_rejects_epoch_batching():
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    streams = synthetic_linear(input_dim=3, clients=2, horizon=30, seed=2)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                        horizon=30, epochs=10)
    with pytest.raises(ValueError, match="no communication epochs"):
        run_nco_oms(cfg, streams)


# ---------------------------------------------------------------------------
# Configuration and stream validation


def test_learner_config_validation():
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    with pytest.raises(ValueError, match="2 <= J <= K"):
        LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=1, subset_size=1, horizon=10)
    with pytest.raises(ValueError, match="2 <= J <= K"):
        LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=1, subset_size=4, horizon=10)
    with pytest.raises(ValueError, match="at least one"):
        LearnerConfig(spaces=(), loss=Loss.SQUARE, clients=1, subset_size=1, horizon=10)
    with pytest.raises(Exception, match="divide"):
        LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=1, subset_size=2,
                      horizon=10, epochs=3)
    with pytest.raises(ValueError, match="clients must be >= 1"):
        LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=0, subset_size=2, horizon=10)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=1, subset_size=2, horizon=0)
    # K * update steps = 1: the mirror rate would be 0, so construction fails
    # and not the first run
    one = spaces[:1]
    with pytest.raises(ValueError, match="update steps must be >= 2"):
        LearnerConfig(spaces=one, loss=Loss.SQUARE, clients=1, subset_size=1, horizon=1)
    with pytest.raises(ValueError, match="update steps must be >= 2"):
        LearnerConfig(spaces=one, loss=Loss.SQUARE, clients=1, subset_size=1,
                      horizon=10, epochs=1)
    LearnerConfig(spaces=one, loss=Loss.SQUARE, clients=1, subset_size=1, horizon=2)
    # a loss given by its value is stored as the enum the kernel compares
    cfg = LearnerConfig(spaces=spaces, loss="square", clients=1, subset_size=2, horizon=10)
    assert cfg.loss is Loss.SQUARE
    with pytest.raises(ValueError, match="bogus"):
        LearnerConfig(spaces=spaces, loss="bogus", clients=1, subset_size=2, horizon=10)


def test_streams_must_match_config():
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    streams = synthetic_linear(input_dim=3, clients=2, horizon=30, seed=2)
    wrong_clients = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3,
                                  subset_size=2, horizon=30)
    with pytest.raises(ValueError, match="clients"):
        run_fomd_oms(wrong_clients, streams)
    wrong_horizon = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2,
                                  subset_size=2, horizon=40)
    with pytest.raises(ValueError, match="horizon"):
        run_fomd_oms(wrong_horizon, streams)
    wrong_dim = LearnerConfig(spaces=_nested_spaces(7, (0.5, 1.0)), loss=Loss.SQUARE,
                              clients=2, subset_size=2, horizon=30)
    with pytest.raises(ValueError, match="input dimension"):
        run_fomd_oms(wrong_dim, streams)


# ---------------------------------------------------------------------------
# Trace bookkeeping


def test_trace_row_order_and_totals():
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    streams = synthetic_linear(input_dim=3, clients=3, horizon=20, seed=5)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
                        horizon=20, epochs=4, master_seed=5)
    art = run_fomd_oms(cfg, streams)
    assert art.rows == 60
    assert art.round_ids[:6].tolist() == [1, 1, 1, 2, 2, 2]
    assert art.client_ids[:6].tolist() == [0, 1, 2, 0, 1, 2]
    assert art.epoch_ids[:6].tolist() == [1, 1, 1, 1, 1, 1]
    assert art.epoch_ids[-1] == 4
    assert art.total_uplink_bits == art.uplink_bits.sum()
    assert art.total_downlink_bits == art.downlink_bits.sum()
    assert art.wall_seconds > 0.0
    # targets column is the stream targets in (round, client) order
    assert np.array_equal(art.targets.reshape(20, 3), streams.ys.T)


def test_trace_csv_is_deterministic(tmp_path):
    spaces = _nested_spaces(3, (0.5, 1.0, 1.5))
    streams = synthetic_linear(input_dim=3, clients=2, horizon=15, seed=4)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                        horizon=15, master_seed=44)
    a = run_fomd_oms(cfg, streams)
    b = run_fomd_oms(cfg, streams)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    lines = pa.read_text().splitlines()
    assert lines[0] == "round,client,epoch,lead_index,prediction,loss,uplink_bits,downlink_bits"
    assert len(lines) == 1 + 30


# ---------------------------------------------------------------------------
# Regret accounting


def test_regret_is_zero_on_a_zero_loss_stream():
    space = make_space(IdentityMap(2), radius=1.0, loss_kind=Loss.SQUARE)
    xs = np.ones((2, 25, 2))
    ys = np.zeros((2, 25))
    streams = Streams(xs=xs, ys=ys, meta={})
    cfg = LearnerConfig(spaces=(space,), loss=Loss.SQUARE, clients=2, subset_size=1,
                        horizon=25)
    art = run_fomd_oms(cfg, streams)
    assert art.cumulative_loss() == 0.0
    assert regret_accounting(art, streams, space, Loss.SQUARE, np.zeros(2)) == 0.0


def test_regret_against_own_final_model_is_nonnegative_on_stationary_data():
    streams = synthetic_linear(input_dim=4, clients=2, horizon=400, seed=17)
    space = make_space(IdentityMap(4), radius=1.0, loss_kind=Loss.SQUARE)
    cfg = LearnerConfig(spaces=(space,), loss=Loss.SQUARE, clients=2, subset_size=1,
                        horizon=400, master_seed=17)
    art = run_fomd_oms(cfg, streams)
    comparator = best_fixed_hypothesis(streams, space, Loss.SQUARE, steps=3000)
    regret = regret_accounting(art, streams, space, Loss.SQUARE, comparator)
    assert regret >= -1e-6


def test_regret_rejects_infeasible_comparators():
    streams = synthetic_linear(input_dim=3, clients=1, horizon=10, seed=1)
    space = make_space(IdentityMap(3), radius=0.5, loss_kind=Loss.SQUARE)
    cfg = LearnerConfig(spaces=(space,), loss=Loss.SQUARE, clients=1, subset_size=1,
                        horizon=10)
    art = run_fomd_oms(cfg, streams)
    with pytest.raises(ValueError, match="infeasible"):
        regret_accounting(art, streams, space, Loss.SQUARE, np.full(3, 1.0))


def test_regret_per_round_shrinks_over_doubling_horizons():
    # single space, linear loss, symmetric +-1 coordinates and labels:
    # regret against the offline best should grow slower than the horizon
    seeds = range(5)
    averages = []
    for horizon in (250, 1000):
        total = 0.0
        for seed in seeds:
            spec = AdversarialSpec(kind="bernoulli_symmetric", num_spaces=1,
                                   input_dim=1, horizon=horizon, clients=1,
                                   seed=seed, subset_size=1)
            streams = generate_adversarial(spec)
            space = make_space(CoordinateMap(1, 0), radius=1.0, loss_kind=Loss.LINEAR)
            cfg = LearnerConfig(spaces=(space,), loss=Loss.LINEAR, clients=1,
                                subset_size=1, horizon=horizon, master_seed=seed)
            art = run_fomd_oms(cfg, streams)
            comparator = best_fixed_hypothesis(streams, space, Loss.LINEAR, steps=2000)
            total += regret_accounting(art, streams, space, Loss.LINEAR, comparator)
        averages.append(total / len(list(seeds)) / horizon)
    assert averages[1] < averages[0]


def test_best_fixed_hypothesis_beats_the_planted_vector():
    streams = synthetic_linear(input_dim=4, clients=2, horizon=300, seed=23)
    space = make_space(IdentityMap(4), radius=1.0, loss_kind=Loss.SQUARE)
    w = best_fixed_hypothesis(streams, space, Loss.SQUARE, steps=4000)
    phi = streams.xs.reshape(-1, 4)
    y = streams.ys.reshape(-1)

    def mean_loss(v):
        return float(np.mean((phi @ v - y) ** 2))

    planted = np.zeros(4)
    planted[0] = 0.5  # generator intercept; slopes unknown here, so compare
    assert mean_loss(w) <= mean_loss(planted) + 1e-9
    assert np.linalg.norm(w) <= 1.0 + 1e-9


def test_selection_concentrates_on_spaces_that_can_express_the_signal():
    # nested radii straddle the planted norm (~0.58): tiny-radius spaces
    # underfit, so starting from a flat distribution the selection should
    # shift mass away from them and toward the expressive half of the grid
    streams = synthetic_linear(input_dim=10, clients=3, horizon=1500, seed=29)
    spaces = _nested_spaces(10, tuple((i + 1) / 10 for i in range(10)))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=3, subset_size=2,
                        horizon=1500, master_seed=29, uniform_init=True)
    art = run_fomd_oms(cfg, streams)
    assert art.final_probs[5:].max() > art.final_probs[:3].max()


# ---------------------------------------------------------------------------
# Engine invariants on random small configs


@st.composite
def _small_runs(draw):
    """K <= 5 spaces of mixed maps over one input width, a valid J, M <= 4,
    T <= 30 and an epoch count R dividing T with K * R >= 2; radii in
    (0.1, 2], capped for the linear loss at radius * feature_bound <= 1."""
    K = draw(st.integers(1, 5))
    J = 1 if K == 1 else draw(st.integers(2, K))
    T = draw(st.integers(2 if K == 1 else 1, 30))
    R = draw(st.sampled_from([r for r in range(1, T + 1) if T % r == 0 and K * r >= 2]))
    d = draw(st.integers(2, 4))
    loss = draw(st.sampled_from(list(Loss)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(K):
        kind = draw(st.sampled_from(["identity", "coordinate", "rff"]))
        if kind == "identity":
            fm = IdentityMap(d)
        elif kind == "coordinate":
            fm = CoordinateMap(d, draw(st.integers(0, d - 1)))
        else:
            fm = gaussian_rff(d, draw(st.integers(1, 6)), draw(st.floats(0.5, 3.0)), rng)
        # the linear loss 1 - v*y is negative once |v| can pass 1, and such
        # runs fail (test_linear_loss_past_unit_reach_fails_as_a_named_invariant)
        top = min(2.0, 1.0 / feature_norm_bound(fm)) if loss is Loss.LINEAR else 2.0
        radius = draw(st.floats(0.1, top, exclude_min=True))
        spaces.append(make_space(fm, radius, loss))
    return tuple(spaces), loss, J, draw(st.integers(1, 4)), T, R, d, seed


@settings(deadline=None, max_examples=100)
@given(_small_runs())
def test_engine_invariants_hold_on_random_small_configs(run):
    spaces, loss, J, M, T, R, d, seed = run
    K = len(spaces)
    streams = synthetic_linear(input_dim=d, clients=M, horizon=T, seed=seed)
    reach = np.array([s.radius * s.feature_bound for s in spaces])
    dims = [s.dim for s in spaces]
    index_bits = J * (K - 1).bit_length()  # J * ceil(log2 K)
    for learner, epochs in ((run_fomd_oms, R), (run_nco_oms, None)):
        art = learner(LearnerConfig(spaces=spaces, loss=loss, clients=M, subset_size=J,
                                    horizon=T, epochs=epochs, master_seed=seed), streams)
        probs = np.atleast_2d(art.final_probs)
        assert probs.min() >= 0.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
        # feasible weights bound every prediction by radius * feature bound
        lead = art.lead_indices
        assert np.all(np.abs(art.predictions) <= reach[lead] * (1.0 + 1e-9))
        down = art.downlink_bits.reshape(T, M)
        up = art.uplink_bits.reshape(T, M)
        if learner is run_nco_oms:
            assert not down.any() and not up.any()
            continue
        N = T // R
        first, last = down[::N], up[N - 1::N]
        assert not np.delete(down, np.s_[::N], axis=0).any()
        assert not np.delete(up, np.s_[N - 1::N], axis=0).any()
        np.testing.assert_array_equal(last, first + 32 * J)
        # each downlink carries the weights of a J-subset holding the lead
        for bits, i in zip(first.ravel().tolist(), lead.reshape(T, M)[::N].ravel().tolist()):
            others = dims[:i] + dims[i + 1:]
            sums = {dims[i] + sum(c) for c in itertools.combinations(others, J - 1)}
            assert bits - index_bits in {32 * s for s in sums}


def _state_bytes(cfg, streams, cooperative):
    """A run's distributions, weights, trace panels and subsets as bytes, and its audit record."""
    state, _, _, audit = _stack(("fomd" if cooperative else "nco", cfg, streams))
    panels = (state.log_p, state.weights, state.predictions, state.losses, state.subsets)
    record = None if audit is None else (audit.frames_checked, audit.mismatches)
    return [panel.tobytes() for panel in panels], record


def _run_bytes(cfg, streams, budget):
    """:func:`_state_bytes` of the cooperative run of ``cfg`` with the kernel's
    block budget set to ``budget`` floats."""
    with mock.patch.object(protocol, "_BLOCK_FLOATS", budget):
        return _state_bytes(cfg, streams, cooperative=True)


@settings(deadline=None, max_examples=60)
@given(_small_runs(), st.booleans(), st.integers(1, 400))
# one client and one one-wide space: each round is a single entry, and a
# block's rounds form a single column, which numpy's sum adds pairwise
@example(((make_space(CoordinateMap(2, 0), 1.0, Loss.SQUARE),), Loss.SQUARE,
          1, 1, 24, 2, 2, 0), True, 22)
def test_round_blocks_and_audit_batches_leave_every_byte_of_a_run(run, audit, budget):
    # budget 1 runs one round per block and codes one frame per batch; a
    # drawn budget cuts epochs into blocks (the last one may be shorter) and
    # codes the frames in batches of other sizes, of part of an epoch or of
    # several epochs; the default runs the small epochs here as one block
    # each and codes a run's frames in one batch
    spaces, loss, J, M, T, R, d, seed = run
    streams = synthetic_linear(input_dim=d, clients=M, horizon=T, seed=seed)
    cfg = LearnerConfig(spaces=spaces, loss=loss, clients=M, subset_size=J, horizon=T,
                        epochs=R, master_seed=seed, audit=audit)
    one_round = _run_bytes(cfg, streams, 1)
    assert one_round[1] == ((2 * M * R, []) if audit else None)
    assert _run_bytes(cfg, streams, budget) == one_round
    assert _run_bytes(cfg, streams, protocol._BLOCK_FLOATS) == one_round


@st.composite
def _fusable_runs(draw):
    """K <= 5 coordinate spaces over a width of 2 or 3, M <= 12 clients,
    T <= 24 and an epoch count R dividing T."""
    K = draw(st.integers(1, 5))
    J = 1 if K == 1 else draw(st.integers(2, K))
    T = draw(st.integers(2 if K == 1 else 1, 24))
    R = draw(st.sampled_from([r for r in range(1, T + 1) if T % r == 0 and K * r >= 2]))
    d = draw(st.integers(2, 3))
    loss = draw(st.sampled_from(list(Loss)))
    spaces = []
    for _ in range(K):
        fm = CoordinateMap(d, draw(st.integers(0, d - 1)))
        top = min(2.0, 1.0 / feature_norm_bound(fm)) if loss is Loss.LINEAR else 2.0
        spaces.append(make_space(fm, draw(st.floats(0.1, top, exclude_min=True)), loss))
    return tuple(spaces), loss, J, draw(st.integers(1, 12)), T, R, d, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=60)
@given(_fusable_runs(), st.booleans())
# one client, one 8-round block: gathered (rounds, n) blocks laid out entry
# first would be summed over their rounds pairwise
@example(((make_space(CoordinateMap(2, 0), 1.0, Loss.SQUARE),) * 2, Loss.SQUARE,
          2, 1, 8, 1, 2, 0), False)
def test_fused_features_and_per_space_maps_give_the_same_bytes(run, audit):
    # one gather per block, against one feature-map call per touched space
    # and block on that space's entries (both on client-major entries); up
    # to 12 clients over a few 1-wide spaces gives sums of 8 or more terms,
    # where a pairwise sum would part from the running sum
    spaces, loss, J, M, T, R, d, seed = run
    streams = synthetic_linear(input_dim=d, clients=M, horizon=T, seed=seed)
    mapped = tuple(oracles.through_map_path(s) for s in spaces)
    for cooperative in (True, False):
        fused, per_space = (
            _state_bytes(LearnerConfig(spaces=group, loss=loss, clients=M, subset_size=J,
                                       horizon=T, epochs=R if cooperative else None,
                                       master_seed=seed, audit=audit and cooperative),
                         streams, cooperative)
            for group in (spaces, mapped))
        assert fused == per_space


@pytest.mark.parametrize("learner", [run_fomd_oms, run_nco_oms])
def test_linear_loss_past_unit_reach_fails_as_a_named_invariant(learner):
    space = make_space(IdentityMap(2), 2.0, Loss.LINEAR)
    streams = synthetic_linear(input_dim=2, clients=2, horizon=11, seed=0)
    cfg = LearnerConfig(spaces=(space,), loss=Loss.LINEAR, clients=2, subset_size=1,
                        horizon=11, master_seed=0)
    with pytest.raises(RunInvariantError, match="loss"):
        learner(cfg, streams)


# ---------------------------------------------------------------------------
# Stacked runs


def _family_spaces(family, K, d, loss, rng):
    """K spaces of one family over input width d, radii drawn from ``rng``;
    capped for the linear loss at radius * feature_bound <= 1."""
    spaces = []
    for _ in range(K):
        if family == "identity":
            fm = IdentityMap(d)
        elif family == "coordinate":
            fm = CoordinateMap(d, int(rng.integers(d)))
        else:
            fm = gaussian_rff(d, int(rng.integers(1, 6)), float(rng.uniform(0.5, 3.0)), rng)
        top = min(2.0, 1.0 / feature_norm_bound(fm)) if loss is Loss.LINEAR else 2.0
        spaces.append(make_space(fm, float(rng.uniform(0.1, top)), loss))
    return tuple(spaces)


@st.composite
def _stacks(draw):
    """1-4 runs of fomd or nco (nco only with one-round epochs), 1 <= M <= 5
    clients each, over K <= 5 spaces of one family (coordinate, identity or
    RFF) and any loss, with their own seeds, initial distributions and
    streams: fresh, shared with an earlier run, or one broadcast row.  A run
    may rebuild its spaces from the same seed: coordinate and identity spaces
    then compare equal and stack, a new RFF draw does not."""
    K = draw(st.integers(1, 5), label="K")
    J = 1 if K == 1 else draw(st.integers(2, K), label="J")
    T = draw(st.integers(2 if K == 1 else 1, 12), label="T")
    N = draw(st.sampled_from([n for n in range(1, T + 1)
                              if T % n == 0 and K * (T // n) >= 2]), label="epoch length")
    d = draw(st.integers(2, 3), label="input width")
    loss = draw(st.sampled_from(list(Loss)), label="loss")
    family = draw(st.sampled_from(["coordinate", "identity", "rff"]), label="family")
    space_seed = draw(st.integers(0, 2**16), label="space seed")
    spaces = _family_spaces(family, K, d, loss, np.random.default_rng(space_seed))
    runs = []
    for r in range(draw(st.integers(1, 4), label="runs")):
        algorithm = draw(st.sampled_from(["fomd", "nco"] if N == 1 else ["fomd"]))
        seed = draw(st.integers(0, 2**16))
        M = draw(st.integers(1, 5))
        source = draw(st.sampled_from(["fresh", "broadcast"]
                                      + ["shared"] * any(c.clients == M for _, c, _ in runs)))
        if source == "shared":
            streams = next(s for _, c, s in runs if c.clients == M)
        elif source == "broadcast":
            one = synthetic_linear(input_dim=d, clients=1, horizon=T, seed=seed)
            streams = Streams(xs=np.broadcast_to(one.xs, (M, T, d)),
                              ys=np.broadcast_to(one.ys, (M, T)), meta=one.meta)
        else:
            streams = synthetic_linear(input_dim=d, clients=M, horizon=T, seed=seed)
        rebuilt = draw(st.booleans())
        run_spaces = (_family_spaces(family, K, d, loss, np.random.default_rng(space_seed))
                      if rebuilt else spaces)
        cfg = LearnerConfig(spaces=run_spaces, loss=loss, clients=M, subset_size=J, horizon=T,
                            epochs=T // N if algorithm == "fomd" else None, master_seed=seed,
                            uniform_init=draw(st.booleans()),
                            audit=algorithm == "fomd" and draw(st.booleans()))
        runs.append((algorithm, cfg, streams))
    return runs


def _artifact_bytes(artifact, directory, name):
    """A run's trace.csv bytes, final distribution bytes and summary (wall time left out)."""
    summary = artifact.summary_dict()
    del summary["wall_seconds"]
    trace = artifact.to_csv(Path(directory) / f"{name}.csv").read_bytes()
    return trace, np.asarray(artifact.final_probs).tobytes(), summary


@settings(deadline=None, max_examples=200)
@given(_stacks())
def test_a_stacked_run_keeps_the_bytes_of_its_solo_run(runs):
    stack_sizes = []
    run_stack = learners._run_stack

    def recorded(stack, layouts):
        stack_sizes.append(len(stack))
        return run_stack(stack, layouts)

    with mock.patch.object(learners, "_run_stack", recorded):
        stacked = learners.run_many(runs)
    # runs whose spaces compare equal share a stack; an audited run is alone
    groups = []  # [spaces, or None for an audited run; runs]
    for algorithm, cfg, _ in runs:
        alone = algorithm == "fomd" and cfg.audit
        group = next((g for g in groups if not alone and g[0] == cfg.spaces), None)
        if group is None:
            groups.append([None if alone else cfg.spaces, 1])
        else:
            group[1] += 1
    assert sorted(stack_sizes) == sorted(size for _, size in groups)
    with tempfile.TemporaryDirectory() as directory:
        for r, ((algorithm, cfg, streams), artifact) in enumerate(zip(runs, stacked)):
            solo = (run_fomd_oms if algorithm == "fomd" else run_nco_oms)(cfg, streams)
            assert (_artifact_bytes(artifact, directory, f"stacked{r}")
                    == _artifact_bytes(solo, directory, f"solo{r}"))


def test_a_stack_holds_each_distinct_stream_once():
    # a pair's two runs read one copy of their streams, a broadcast stream
    # is one data row, and a third run's own stream adds its clients' rows
    spec = AdversarialSpec(kind="biased_arm", num_spaces=4, input_dim=4, horizon=20,
                           clients=6, seed=1)
    shared = generate_adversarial(spec)
    spaces = tuple(make_space(CoordinateMap(4, i), 1.0, Loss.LINEAR) for i in range(4))
    cfg = LearnerConfig(spaces=spaces, loss=Loss.LINEAR, clients=6, subset_size=2,
                        horizon=20, master_seed=1)
    own = synthetic_linear(input_dim=4, clients=6, horizon=20, seed=2)
    runs = [("fomd", cfg, shared), ("nco", cfg, shared), ("fomd", cfg, own)]
    state, setup, wall, _ = _stack(*runs)
    assert setup.xs.shape == (1 + 6, 20, 4) and setup.ys.shape == (7, 20)
    # run_many lays one-client servers out last; laid out between others,
    # their cells are summed like any cell, to the same bits
    assert setup.lone_start == 2 * 18
    for run, (algorithm, cfg_, streams) in enumerate(runs):
        art = learners._assemble(algorithm, cfg_, streams, state, setup, wall, None, run)
        solo = (run_fomd_oms if algorithm == "fomd" else run_nco_oms)(cfg_, streams)
        assert _trace_tuple(art) == _trace_tuple(solo)
        assert art.final_probs.tobytes() == solo.final_probs.tobytes()
    np.testing.assert_array_equal(setup.slot_rows, [0] * 12 + list(range(1, 7)))
    # servers: the first fomd run's one, the baseline's six, the last run's one
    np.testing.assert_array_equal(setup.slot_servers, [0] * 6 + list(range(1, 7)) + [7] * 6)
    np.testing.assert_array_equal(setup.server_runs, [0] + [1] * 6 + [2])
    # a lone broadcast stream is read where it is, not copied
    _, solo, _, _ = _stack(("nco", cfg, shared))
    assert np.shares_memory(solo.xs, shared.xs) and solo.xs.shape[0] == 1


def test_run_many_refuses_an_unknown_algorithm_before_any_run():
    spaces = _nested_spaces(3, (0.5, 1.0))
    streams = synthetic_linear(input_dim=3, clients=2, horizon=10, seed=1)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=2, subset_size=2,
                        horizon=10)
    with mock.patch.object(learners, "_run_stack") as run_stack:
        with pytest.raises(ValueError, match="algorithm must be 'fomd' or 'nco'"):
            learners.run_many([("fomd", cfg, streams), ("oms", cfg, streams)])
    run_stack.assert_not_called()


def test_a_stacked_run_of_one_client_keeps_the_bits_its_lone_rows_get(tmp_path):
    # BLAS computes a one-row x @ W.T on another path, with other bits, than
    # the same row among several (43 of 100 outputs differ at d=18, D=100
    # here); so the map runs once per run and space, and a one-client run's
    # rows stay lone rows when it shares the kernel with other runs
    rng = np.random.default_rng(5)
    spaces = tuple(make_space(gaussian_rff(18, 100, w, rng), 1.0, Loss.SQUARE)
                   for w in (0.5, 2.0))
    runs = []
    for clients, seed in ((1, 3), (4, 4), (1, 5)):
        streams = synthetic_linear(input_dim=18, clients=clients, horizon=6, seed=seed)
        cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=clients, subset_size=2,
                            horizon=6, master_seed=seed)
        runs += [("fomd", cfg, streams), ("nco", cfg, streams)]
    for r, ((algorithm, cfg, streams), artifact) in enumerate(zip(runs, learners.run_many(runs))):
        solo = (run_fomd_oms if algorithm == "fomd" else run_nco_oms)(cfg, streams)
        assert (_artifact_bytes(artifact, tmp_path, f"stacked{r}")
                == _artifact_bytes(solo, tmp_path, f"solo{r}"))
