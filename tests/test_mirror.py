import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fedoms import mirror

from oracles import entropy_step_grid, exponentiated_gradient, reference_project

RNG = np.random.default_rng(20240817)


def random_simplex(rng, k):
    p = rng.random(k) + 1e-3
    return p / p.sum()


def _step(geom, p, losses):
    """One kernel entropy step of a linear probability vector, read back linear."""
    log_p = np.log(np.asarray(p, dtype=float))[None, :]
    return mirror.materialize(
        mirror.entropy_step_log_batch(log_p, np.asarray(losses, dtype=float)[None, :], geom))[0]


def _multiplier(geom, p, losses):
    """The kernel's normalizing multiplier for the same step."""
    log_p = np.log(np.asarray(p, dtype=float))[None, :]
    return float(mirror.solve_entropy_multiplier(
        log_p, np.asarray(losses, dtype=float)[None, :], geom)[0])


# --------------------------------------------------------------------------
# weighted-entropy step
# --------------------------------------------------------------------------

def test_two_point_step_matches_hand_value():
    # eta = ln 2, equal scales, losses (1, 0): weights (0.25, 0.5) -> (1/3, 2/3)
    geom = mirror.WeightedEntropyGeometry(np.ones(2), np.log(2.0))
    out = _step(geom, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_multiplier_matches_hand_value():
    # closed form for the same instance: lam = -log2(4/3)
    geom = mirror.WeightedEntropyGeometry(np.ones(2), np.log(2.0))
    lam = _multiplier(geom, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert lam == pytest.approx(-np.log2(4.0 / 3.0), abs=1e-10)


def test_step_agrees_with_grid_oracle_on_random_instances():
    for trial in range(300):
        k = int(RNG.integers(2, 9))
        p = random_simplex(RNG, k)
        scales = RNG.uniform(0.5, 8.0, size=k)
        eta = float(RNG.uniform(0.01, 2.0))
        losses = RNG.uniform(0.0, 5.0, size=k)
        geom = mirror.WeightedEntropyGeometry(scales, eta)
        got = _step(geom, p, losses)
        want, lam = entropy_step_grid(scales, eta, p, losses)
        np.testing.assert_allclose(got, want, atol=1e-6)
        assert abs(got.sum() - 1.0) <= 1e-9
        got_lam = _multiplier(geom, p, losses)
        assert -losses.max() - 1e-12 <= got_lam <= 0.0
        assert got_lam == pytest.approx(lam, abs=1e-6)


def test_equal_scales_reduce_to_exponentiated_gradient():
    for trial in range(100):
        k = int(RNG.integers(2, 10))
        p = random_simplex(RNG, k)
        scale = float(RNG.uniform(0.5, 4.0))
        eta = float(RNG.uniform(0.05, 1.5))
        losses = RNG.uniform(0.0, 3.0, size=k)
        geom = mirror.WeightedEntropyGeometry(np.full(k, scale), eta)
        got = _step(geom, p, losses)
        want = exponentiated_gradient(p, losses, eta / scale)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_zero_losses_are_identity():
    geom = mirror.WeightedEntropyGeometry(np.array([2.0, 1.0, 3.0]), 0.7)
    p = np.array([0.2, 0.5, 0.3])
    out = _step(geom, p, np.zeros(3))
    np.testing.assert_allclose(out, p, atol=1e-15)


def test_step_rejects_bad_losses():
    geom = mirror.WeightedEntropyGeometry(np.ones(2), 0.5)
    p = np.array([0.4, 0.6])
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            _step(geom, p, np.array([bad, 0.0]))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_step_lands_on_simplex(data):
    k = data.draw(st.integers(2, 8))
    raw = data.draw(st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k))
    losses = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k)))
    scales = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k)))
    eta = data.draw(st.floats(1e-3, 5.0))
    p = np.array(raw) / np.sum(raw)
    out = _step(mirror.WeightedEntropyGeometry(scales, eta), p, losses)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) <= 1e-9


@st.composite
def _log_simplex_batch(draw, k):
    """(B, K) log-probabilities whose rows sum to 1 in linear space."""
    b = draw(st.integers(1, 6))
    raw = np.array(draw(st.lists(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k),
                                 min_size=b, max_size=b)))
    return np.log(raw / raw.sum(axis=1, keepdims=True))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_equal_rate_multiplier_is_the_closed_form_bracket_end(data):
    # with one shared rate r, S(lam) = S(0) exp(-r lam), so the solver returns
    # the bracket end min(max(-max loss, log S(0)/r), min(0, log S(0)/r))
    # without iterating; all-zero loss rows keep lam = 0
    k = data.draw(st.integers(1, 8), label="K")
    log_p = data.draw(_log_simplex_batch(k), label="log_p")
    b = log_p.shape[0]
    losses = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k),
                                         min_size=b, max_size=b)), dtype=float).reshape(b, k)
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=b, max_size=b)))
    losses[zero] = 0.0
    geom = mirror.WeightedEntropyGeometry(np.full(k, data.draw(st.floats(0.1, 10.0))),
                                          data.draw(st.floats(1e-3, 5.0)))
    r = geom.rates[0]

    shifted = log_p - r * losses
    m = shifted.max(axis=1)
    log_s0 = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))
    max_c = losses.max(axis=1)
    bracket_end = np.minimum(np.maximum(-max_c, log_s0 / r), np.minimum(0.0, log_s0 / r))
    want = np.where(max_c == 0.0, 0.0, bracket_end)

    lam = mirror.solve_entropy_multiplier(log_p, losses, geom)
    assert lam.tobytes() == want.tobytes()
    assert np.all(lam[max_c == 0.0] == 0.0)
    stepped = np.exp(mirror.entropy_step_log_batch(log_p, losses, geom))
    assert np.all(stepped >= 0.0)
    np.testing.assert_allclose(stepped.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_unequal_rate_step_matches_grid_oracle(data):
    k = data.draw(st.integers(2, 8), label="K")
    p = np.exp(data.draw(_log_simplex_batch(k), label="log_p")[0])
    scales = np.array(data.draw(st.lists(st.floats(0.5, 8.0), min_size=k, max_size=k)))
    assume(np.ptp(scales) > 0.0)
    eta = data.draw(st.floats(0.01, 2.0))
    losses = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k)))
    geom = mirror.WeightedEntropyGeometry(scales, eta)
    want, want_lam = entropy_step_grid(scales, eta, p, losses)
    np.testing.assert_allclose(_step(geom, p, losses), want, atol=1e-6)
    assert _multiplier(geom, p, losses) == pytest.approx(want_lam, abs=1e-6)


def test_batch_step_matches_single_rows():
    # rows in a batch share only the exit iteration, so results can differ
    # from a lone-row call by the bisection tolerance but no more
    k = 6
    scales = RNG.uniform(0.5, 3.0, size=k)
    eta = 0.3
    logs = []
    losses = []
    for _ in range(11):
        logs.append(np.log(random_simplex(RNG, k)))
        losses.append(RNG.uniform(0.0, 4.0, size=k))
    logs = np.array(logs)
    logs -= np.log(np.exp(logs).sum(axis=1, keepdims=True))
    losses = np.array(losses)
    geom = mirror.WeightedEntropyGeometry(scales, eta)
    batch = mirror.entropy_step_log_batch(logs, losses, geom)
    assert np.allclose(np.exp(batch).sum(axis=1), 1.0, atol=1e-12)
    for b in range(11):
        row = mirror.entropy_step_log_batch(logs[b : b + 1], losses[b : b + 1], geom)
        np.testing.assert_allclose(np.exp(batch[b]), np.exp(row[0]), atol=1e-9)


def test_long_horizon_log_state_stays_normalized():
    k = 5
    geom = mirror.WeightedEntropyGeometry(np.array([1.0, 2.0, 4.0, 1.5, 3.0]), 0.2)
    log_p = np.log(np.full((1, k), 1.0 / k))
    rng = np.random.default_rng(7)
    for _ in range(20000):
        losses = rng.uniform(0.0, 2.0, size=(1, k))
        log_p = mirror.entropy_step_log_batch(log_p, losses, geom)
    p = mirror.materialize(log_p[0])
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.all(p >= mirror.PROB_FLOOR)
    assert np.all(np.isfinite(log_p))


def test_sum_is_monotone_in_multiplier():
    # the bracket logic relies on sum(lam) being non-increasing
    k = 7
    p = random_simplex(RNG, k)
    scales = RNG.uniform(0.2, 5.0, size=k)
    losses = RNG.uniform(0.0, 4.0, size=k)
    eta = 0.9

    def total(lam):
        return np.sum(p * np.exp(-eta * (lam + losses) / scales))

    grid = np.linspace(-losses.max(), 0.0, 500)
    vals = np.array([total(g) for g in grid])
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[0] >= 1.0 - 1e-12
    assert vals[-1] <= 1.0 + 1e-12


# --------------------------------------------------------------------------
# Euclidean projection
# --------------------------------------------------------------------------

def _project_one(radius, w):
    # the kernel's projection, one row onto one ball
    return mirror.project_rows_per_row(np.asarray(w, dtype=float)[None, :], radius)[0]


def test_euclidean_step_is_projected_gradient():
    w = np.array([0.3, -0.4])
    g = np.array([-4.0, 2.0])
    # unprojected point (1.3, -0.9) has norm > 1 -> scaled back to the sphere
    bar = w - 0.25 * g
    want = bar / np.linalg.norm(bar)
    np.testing.assert_allclose(_project_one(1.0, bar), want, atol=1e-14)


def test_interior_point_is_untouched():
    bar = np.array([1.0, 1.0]) - 0.1 * np.array([0.5, -0.5])
    np.testing.assert_array_equal(_project_one(5.0, bar), bar)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    st.floats(0.05, 20.0),
)
def test_projection_is_idempotent_and_feasible(vals, radius):
    pw = _project_one(radius, vals)
    np.testing.assert_allclose(_project_one(radius, pw), pw, atol=1e-12)
    assert np.linalg.norm(pw) <= radius * (1 + 1e-12)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=4),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=4),
    st.floats(0.1, 5.0),
)
def test_projection_is_nonexpansive(a, b, radius):
    n = min(len(a), len(b))
    u, v = np.array(a[:n]), np.array(b[:n])
    pu, pv = _project_one(radius, u), _project_one(radius, v)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


def test_geometry_validation():
    with pytest.raises(ValueError):
        mirror.WeightedEntropyGeometry(np.array([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        mirror.WeightedEntropyGeometry(np.array([1.0, 1.0]), 0.0)


def test_per_row_projection_equals_stacked_projection_exactly():
    # one radius per row: each row equals its one-row projection bit for bit,
    # and the reference projection exactly on interior rows; scaled rows
    # round in a different order from the reference, so within a few ulps
    rng = np.random.default_rng(91)
    for _ in range(50):
        b = int(rng.integers(1, 8))
        d = int(rng.integers(1, 6))
        # mix interior points with far-exterior ones
        w = rng.normal(scale=rng.choice([0.1, 5.0]), size=(b, d))
        radius = rng.uniform(0.2, 2.0, size=b)
        got = mirror.project_rows_per_row(w, radius)
        for i in range(b):
            want = reference_project(w[i], radius[i])
            if np.linalg.norm(w[i]) <= radius[i]:
                np.testing.assert_array_equal(got[i], want)
            else:
                np.testing.assert_allclose(got[i], want, rtol=1e-15, atol=0.0)
            np.testing.assert_array_equal(_project_one(radius[i], w[i]), got[i])
