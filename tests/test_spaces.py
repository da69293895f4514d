import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedoms import rng as rngmod
from fedoms import spaces

from oracles import ROLE_TEST, finite_difference_gradient, gaussian_kernel

RNG = np.random.default_rng(511)


# --------------------------------------------------------------------------
# feature maps
# --------------------------------------------------------------------------

def test_identity_map_passthrough():
    fm = spaces.IdentityMap(3)
    x = np.array([0.1, -0.2, 0.7])
    np.testing.assert_array_equal(fm(x), x)
    assert fm.output_dim == 3
    with pytest.raises(ValueError):
        fm(np.zeros(4))


def test_coordinate_map_selects_one_feature():
    fm = spaces.CoordinateMap(4, 2)
    np.testing.assert_array_equal(fm(np.array([1.0, 2.0, 3.0, 4.0])), [3.0])
    batch = RNG.uniform(-1, 1, size=(7, 4))
    np.testing.assert_array_equal(fm(batch), batch[:, 2:3])
    with pytest.raises(ValueError):
        spaces.CoordinateMap(4, 4)


def test_rff_is_deterministic_given_seed():
    a = spaces.gaussian_rff(3, 50, 1.5, rngmod.stream(42, rngmod.ROLE_FEATURES, 0))
    b = spaces.gaussian_rff(3, 50, 1.5, rngmod.stream(42, rngmod.ROLE_FEATURES, 0))
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.phases, b.phases)
    x = RNG.uniform(-1, 1, 3)
    np.testing.assert_array_equal(a(x), b(x))


def test_rff_feature_norm_never_exceeds_sqrt2():
    fm = spaces.gaussian_rff(5, 64, 0.7, rngmod.stream(7, rngmod.ROLE_FEATURES, 0))
    X = RNG.uniform(-3, 3, size=(200, 5))
    norms = np.linalg.norm(fm(X), axis=1)
    assert np.all(norms <= math.sqrt(2.0) + 1e-12)


def test_rff_monte_carlo_estimates_gaussian_kernel():
    # fresh spectral draws; the average inner product approaches the kernel
    x = np.array([0.3, -0.5, 0.2])
    v = np.array([-0.1, 0.4, 0.0])
    width = 1.0
    vals = [
        float(m(x) @ m(v))
        for m in (
            spaces.gaussian_rff(3, 200, width, rngmod.stream(s, ROLE_TEST))
            for s in range(200)
        )
    ]
    want = gaussian_kernel(x, v, width)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - want) <= 3.5 * se


def test_rff_input_validation():
    with pytest.raises(ValueError):
        spaces.gaussian_rff(3, 0, 1.0, RNG)
    with pytest.raises(ValueError):
        spaces.gaussian_rff(3, 10, -1.0, RNG)


def test_feature_norm_bound_defaults():
    assert spaces.feature_norm_bound(spaces.IdentityMap(9)) == pytest.approx(3.0)
    assert spaces.feature_norm_bound(spaces.CoordinateMap(5, 1)) == 1.0
    fm = spaces.gaussian_rff(2, 8, 1.0, RNG)
    assert spaces.feature_norm_bound(fm) == pytest.approx(math.sqrt(2.0))


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def test_loss_values():
    assert spaces.loss_value(spaces.Loss.SQUARE, 0.3, 0.5) == pytest.approx(0.04)
    assert spaces.loss_value(spaces.Loss.ABSOLUTE, 0.3, 0.5) == pytest.approx(0.2)
    assert spaces.loss_value(spaces.Loss.LINEAR, 0.3, 1.0) == pytest.approx(0.7)


def test_absolute_loss_sign_convention_at_tie():
    assert spaces.loss_derivative(spaces.Loss.ABSOLUTE, 0.5, 0.5) == 0.0


def test_gradients_match_finite_differences():
    for kind in spaces.Loss:
        for fm in (spaces.IdentityMap(4),
                   spaces.CoordinateMap(4, 1),
                   spaces.gaussian_rff(4, 12, 1.3, rngmod.stream(3, ROLE_TEST, 1))):
            space = spaces.make_space(fm, 1.0, kind)
            w = RNG.uniform(-0.3, 0.3, size=space.dim)
            x = RNG.uniform(-1, 1, size=4)
            y = float(RNG.uniform(0.1, 0.9))
            phi = fm(x)
            # the round kernel's gradient: loss derivative times the features
            g = spaces.loss_derivative(kind, phi @ w, y) * phi
            if kind is spaces.Loss.ABSOLUTE and abs(phi @ w - y) < 1e-4:
                continue  # kink: finite differences are meaningless there
            num = finite_difference_gradient(
                lambda ww: float(spaces.loss_value(kind, phi @ ww, y)), w)
            np.testing.assert_allclose(g, num, atol=1e-5)


def test_prediction_bounded_by_radius_times_feature_bound():
    for _ in range(50):
        fm = spaces.gaussian_rff(3, 30, 1.0, rngmod.stream(int(RNG.integers(1e6)), ROLE_TEST))
        space = spaces.make_space(fm, 0.8, spaces.Loss.SQUARE)
        w = RNG.normal(size=space.dim)
        w = 0.8 * w / np.linalg.norm(w)
        x = RNG.uniform(-2, 2, size=3)
        assert abs(fm(x) @ w) <= space.radius * space.feature_bound + 1e-9


# --------------------------------------------------------------------------
# default constants
# --------------------------------------------------------------------------

def test_default_constants_square():
    c, g = spaces.default_constants(spaces.Loss.SQUARE, 1.0, math.sqrt(2.0))
    assert c == pytest.approx((math.sqrt(2.0) + 1.0) ** 2)
    assert g == pytest.approx(2.0 * (math.sqrt(2.0) + 1.0) * math.sqrt(2.0))


def test_default_constants_absolute_and_linear():
    c, g = spaces.default_constants(spaces.Loss.ABSOLUTE, 0.5, 2.0)
    assert (c, g) == (2.0, 2.0)
    c, g = spaces.default_constants(spaces.Loss.LINEAR, 1.0, 1.0)
    assert (c, g) == (2.0, 1.0)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(list(spaces.Loss)),
    st.floats(0.05, 2.0),
    st.floats(-1.0, 1.0),
)
def test_realized_values_never_exceed_default_bounds(kind, radius, scale):
    # targets in [0, 1], |w| <= radius, 1-d feature in [-1, 1]
    space = spaces.make_space(spaces.CoordinateMap(1, 0), radius, kind)
    w = np.array([radius * scale])
    x = np.array([scale])
    y = 0.5 * (scale + 1.0)
    phi = space.feature_map(x)
    c = spaces.loss_value(kind, phi @ w, y)
    g = spaces.loss_derivative(kind, phi @ w, y) * phi
    assert c <= space.loss_bound + 1e-9
    assert np.linalg.norm(g) <= space.lipschitz_bound + 1e-9


def test_make_space_derives_every_bound_from_the_radius():
    space = spaces.make_space(spaces.IdentityMap(4), 0.5, spaces.Loss.SQUARE)
    assert space.feature_bound == 2.0
    assert (space.loss_bound, space.lipschitz_bound) == spaces.default_constants(
        spaces.Loss.SQUARE, 0.5, 2.0)
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            spaces.make_space(spaces.IdentityMap(4), radius, spaces.Loss.SQUARE)


def test_space_bounds_must_be_positive_and_finite():
    space = spaces.make_space(spaces.IdentityMap(4), 0.5, spaces.Loss.SQUARE)
    for name in ("radius", "feature_bound", "loss_bound", "lipschitz_bound"):
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                dataclasses.replace(space, **{name: value})
    with pytest.raises(TypeError):
        spaces.HypothesisSpace(spaces.IdentityMap(4), 0.5)  # the bounds are required
    # a finite radius whose bounds leave the float range: the square loss
    # bound (a + 1) ** 2 overflows, the absolute one comes out inf
    with pytest.raises(ValueError, match="past the float range"):
        spaces.make_space(spaces.IdentityMap(3), 1e200, spaces.Loss.SQUARE)
    with pytest.raises(ValueError, match="loss_bound must be positive and finite"):
        spaces.make_space(spaces.IdentityMap(4), 1e308, spaces.Loss.ABSOLUTE)
