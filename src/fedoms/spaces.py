"""Hypothesis spaces: feature maps, losses and their constants.

A hypothesis space is a set of linear predictors ``x -> <w, phi(x)>`` with w
ranging over the L2 ball of radius ``radius`` and ``phi`` one of three
feature maps:

* ``IdentityMap`` — raw features;
* ``CoordinateMap`` — a single input coordinate (used by the adversarial
  bandit-style instances, where space i contains predictors of x_i alone);
* ``GaussianRFFMap`` — random cosine features whose inner product is an
  unbiased estimate of the Gaussian kernel ``exp(-||x - v||^2 / (2 width^2))``.

Each space also carries a bound ``loss_bound`` on its per-round losses and a
bound ``lipschitz_bound`` on its per-round gradient norms, both derived from
the radius; these scale the entropy geometry and the step sizes of the
learners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


# --------------------------------------------------------------------------
# feature maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityMap:
    input_dim: int

    @property
    def output_dim(self) -> int:
        return self.input_dim

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {x.shape[-1]}")
        return x


@dataclass(frozen=True)
class CoordinateMap:
    """Projection onto one input coordinate (a 1-d feature)."""
    input_dim: int
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.input_dim:
            raise ValueError(f"coordinate index {self.index} out of range for dim {self.input_dim}")

    @property
    def output_dim(self) -> int:
        return 1

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {x.shape[-1]}")
        return x[..., self.index : self.index + 1]


@dataclass(frozen=True, eq=False)
class GaussianRFFMap:
    """Random Fourier features for the Gaussian kernel.

    phi_j(x) = sqrt(2/D) * cos(<omega_j, x> + b_j) with omega_j drawn from
    N(0, width^-2 I) and b_j uniform on [0, 2*pi).  The spectral sample is
    frozen at construction; evaluation is deterministic.  A draw equals only
    itself, so spaces holding it compare (and hash) by the draw's identity.
    """
    width: float
    weights: np.ndarray  # (D, input_dim)
    phases: np.ndarray   # (D,)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {x.shape[-1]}")
        proj = x @ self.weights.T + self.phases
        return math.sqrt(2.0 / self.output_dim) * np.cos(proj)


FeatureMap = IdentityMap | CoordinateMap | GaussianRFFMap


def gaussian_rff(input_dim: int, feature_count: int, width: float,
                 rng: np.random.Generator) -> GaussianRFFMap:
    """Draw a frozen random-feature map for the Gaussian kernel of a given width."""
    if feature_count < 1:
        raise ValueError(f"feature_count must be >= 1, got {feature_count}")
    if not (np.isfinite(width) and width > 0):
        raise ValueError(f"width must be positive, got {width}")
    weights = rng.normal(0.0, 1.0 / width, size=(feature_count, input_dim))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=feature_count)
    return GaussianRFFMap(width=width, weights=weights, phases=phases)


def feature_norm_bound(feature_map: FeatureMap) -> float:
    """Upper bound on ||phi(x)||_2 over the data domain [-1, 1]^d.

    Random cosine features are bounded by sqrt(2) regardless of the input;
    harness preprocessing scales raw features into [-1, 1], which bounds an
    identity map by sqrt(d) and a coordinate map by 1.
    """
    if isinstance(feature_map, GaussianRFFMap):
        return math.sqrt(2.0)
    if isinstance(feature_map, CoordinateMap):
        return 1.0
    return math.sqrt(feature_map.input_dim)


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

class Loss(str, Enum):
    SQUARE = "square"
    ABSOLUTE = "absolute"
    LINEAR = "linear"


def loss_value(kind: Loss, prediction, target):
    """Pointwise loss; broadcasts over float64 arrays or floats."""
    if kind is Loss.SQUARE:
        return (prediction - target) ** 2
    if kind is Loss.ABSOLUTE:
        return np.abs(prediction - target)
    if kind is Loss.LINEAR:
        return 1.0 - prediction * target
    raise ValueError(f"unknown loss {kind!r}")


def loss_derivative(kind: Loss, prediction, target):
    """Derivative of the loss in its prediction argument; broadcasts over
    float64 arrays or floats.

    The linear loss's derivative is constant in the prediction: it is
    ``-target``, shaped like the target.
    """
    if kind is Loss.SQUARE:
        return 2.0 * (prediction - target)
    if kind is Loss.ABSOLUTE:
        return np.sign(prediction - target)  # subgradient 0 at ties
    if kind is Loss.LINEAR:
        return -target
    raise ValueError(f"unknown loss {kind!r}")


def default_constants(kind: Loss, radius: float, feature_bound: float) -> tuple[float, float]:
    """Worst-case (loss_bound, lipschitz_bound) for targets in [0, 1].

    With |<w, phi(x)>| <= radius * feature_bound =: a, the loss and gradient
    norms are bounded by (a+1)^2 and 2(a+1)*feature_bound for the square loss,
    a+1 and feature_bound for the absolute loss, and 1+a and feature_bound for
    the linear loss.
    """
    a = radius * feature_bound
    if kind is Loss.SQUARE:
        return (a + 1.0) ** 2, 2.0 * (a + 1.0) * feature_bound
    if kind is Loss.ABSOLUTE:
        return a + 1.0, feature_bound
    if kind is Loss.LINEAR:
        return 1.0 + a, feature_bound
    raise ValueError(f"unknown loss {kind!r}")


# --------------------------------------------------------------------------
# hypothesis spaces
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisSpace:
    """One candidate model class: a feature map and the L2 ball of ``radius``.

    The radius and the three bounds must all be positive and finite: the
    step sizes divide by the Lipschitz bound and scale with the radius, and
    the entropy geometry divides by the loss bound.
    """
    feature_map: FeatureMap
    radius: float           # U_i: the weights' L2 ball
    feature_bound: float    # upper bound on ||phi(x)||_2
    loss_bound: float       # C_i: upper bound on per-round losses
    lipschitz_bound: float  # G_i: upper bound on per-round gradient norms

    def __post_init__(self):
        for name in ("radius", "feature_bound", "loss_bound", "lipschitz_bound"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def dim(self) -> int:
        return self.feature_map.output_dim


def make_space(feature_map: FeatureMap, radius: float, loss_kind: Loss) -> HypothesisSpace:
    """Assemble a space with the bounds its radius and feature map imply.

    Raises ``ValueError`` when a bound is not a positive finite float, which
    includes a radius so large that a bound leaves the float range.
    """
    b = feature_norm_bound(feature_map)
    try:
        loss_bound, lipschitz_bound = default_constants(loss_kind, radius, b)
    except OverflowError as exc:  # the square loss's (a + 1) ** 2
        raise ValueError(
            f"radius {radius:g} puts the loss bound past the float range") from exc
    return HypothesisSpace(feature_map=feature_map, radius=radius, feature_bound=b,
                           loss_bound=loss_bound, lipschitz_bound=lipschitz_bound)
