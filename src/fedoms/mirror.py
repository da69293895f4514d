"""Online mirror descent primitives.

* The weighted negative-entropy regularizer over the probability simplex,
  ``psi(p) = sum_i (scale_i / eta) * p_i * log(p_i)``: its mirror step is a
  per-coordinate exponential reweighting followed by an exact
  renormalization.  With one shared rate the step is the exponential-weights
  update, taken as one log-softmax of ``log p - r * loss``; only unequal
  rates need the scalar multiplier found by a monotone Newton solve
  (:func:`solve_entropy_multiplier`), the one part that iterates or can
  raise :class:`MirrorError`.  The round kernel steps a batch of log-space
  states at once (:func:`entropy_step_log_batch`) and reads linear
  probabilities back with :func:`materialize`.
* Euclidean projection onto a ball of given radius
  (:func:`project_rows_per_row`): the projection half of the projected
  gradient step the round kernel takes on every sampled space's model.

All functions are pure: they never mutate their array arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# converge on |log S| instead of |S - 1|; |log S| <= 5e-13 forces
# |S - 1| <= exp(5e-13) - 1 < 1e-12
LOG_SUM_TOL = 5e-13
BISECT_MAX_ITER = 200
PROB_FLOOR = 1e-300


class MirrorError(RuntimeError):
    """Raised when a mirror step cannot be completed (pathological inputs)."""


# --------------------------------------------------------------------------
# entropy geometry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedEntropyGeometry:
    """Simplex geometry with per-coordinate positive scales and a step size."""
    scales: np.ndarray
    learning_rate: float

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        object.__setattr__(self, "scales", scales)
        if scales.ndim != 1 or scales.size == 0:
            raise ValueError("scales must be a non-empty 1-d array")
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise ValueError("scales must be finite and strictly positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    @cached_property
    def rates(self) -> np.ndarray:
        """(K,) per-coordinate ratios learning_rate / scale_i."""
        return self.learning_rate / self.scales

    @cached_property
    def rate_range(self) -> tuple[float, float]:
        """Smallest and largest entry of :attr:`rates`."""
        return float(self.rates.min()), float(self.rates.max())


# --------------------------------------------------------------------------
# simplex helpers
# --------------------------------------------------------------------------

def materialize(log_p: np.ndarray) -> np.ndarray:
    """Linear-space probabilities from log-space state (floored + renormalized)."""
    p = np.exp(log_p)
    np.maximum(p, PROB_FLOOR, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


# --------------------------------------------------------------------------
# weighted-entropy mirror step
# --------------------------------------------------------------------------

def solve_entropy_multiplier(
    log_p: np.ndarray,
    losses: np.ndarray,
    geometry: WeightedEntropyGeometry,
) -> np.ndarray:
    """Newton solve for the normalizing multipliers of a batch of entropy steps.

    Parameters
    ----------
    log_p : (B, K) log-probabilities; every row sums to 1 in linear space.
    losses : (B, K) non-negative loss vectors.
    geometry : the step's scales and learning rate; its ``rates`` are the
        per-coordinate ratios learning_rate / scale_i.

    Returns
    -------
    (B,) multipliers lam with lam in [-max_i loss_i, 0] such that
    S(lam) = sum_i p_i * exp(-rates_i * (lam + loss_i)) = 1 within 1e-12.

    Notes
    -----
    S is convex and decreasing in lam, >= 1 at lam = -max_i loss_i and <= 1
    at lam = 0, so that bracket always contains the root.  Writing
    A = S(0) <= 1, the root also satisfies log(A)/r_min <= lam <= log(A)/r_max
    (bound each factor exp(-r_i lam) by the extreme rates).  With equal rates
    r the two bounds coincide: S(lam) = A exp(-r lam), so the intersected
    bracket closes on lam = log(A)/r, its lower end, where the first
    evaluation finds log S within tolerance (0 on all-zero loss rows).  The
    root solve runs Newton on log S rather than S: log S is a log-sum-exp
    of affine functions of lam, hence also convex and decreasing, so
    iterates started from the left end of the intersected bracket (where
    log S >= 0) increase monotonically to the root without overshooting;
    unlike Newton on S itself, the step log S / (-(log S)') crosses regions
    dominated by a single stiff exponential in one move instead of creeping
    by 1/r_max per iteration.  The bracket is kept as a safeguard:
    candidates are clamped into it, and a stagnating step falls back to the
    midpoint, so worst-case behaviour is that of plain bisection.
    """
    rates = geometry.rates
    r_min, r_max = geometry.rate_range
    shifted = log_p - rates * losses  # log(p_i) - r_i c_i
    max_c = losses.max(axis=1)
    m = shifted.max(axis=1)
    log_a = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))  # log S(0) <= ~0
    # all-zero loss rows have lam = 0; rounding can also invert the bracket
    # by ~1 ulp, which taking its smaller end repairs
    zero_rows = max_c <= 0.0
    lo = np.maximum(-max_c, log_a / r_min)
    hi = np.minimum(0.0, log_a / r_max)
    lo = np.where(zero_rows, 0.0, np.minimum(lo, hi))
    hi = np.where(zero_rows, 0.0, hi)
    lam = lo.copy()
    rates_row = rates[None, :]
    work = np.empty_like(shifted)
    log_s = np.zeros_like(lam)
    for _ in range(BISECT_MAX_ITER):
        np.multiply(lam[:, None], rates_row, out=work)
        np.subtract(shifted, work, out=work)
        peak = work.max(axis=1)
        np.subtract(work, peak[:, None], out=work)
        np.exp(work, out=work)  # max-shifted, cannot overflow
        total = work.sum(axis=1)
        log_s = peak + np.log(total)
        done = np.abs(log_s) <= LOG_SUM_TOL
        if done.all():
            return lam
        above = log_s > 0.0
        lo = np.where(above, lam, lo)
        hi = np.where(above, hi, lam)
        mean_rate = (work * rates_row).sum(axis=1) / total  # -(log S)' > 0
        candidate = np.clip(lam + log_s / mean_rate, lo, hi)
        stalled = candidate == lam
        lam = np.where(done, lam,
                       np.where(stalled, 0.5 * (lo + hi), candidate))
    raise MirrorError(
        "entropy step normalizer did not converge within "
        f"{BISECT_MAX_ITER} Newton iterations (|log sum| still "
        f"{float(np.abs(log_s).max()):.3e}); inputs are likely pathological"
    )


def entropy_step_log_batch(
    log_p: np.ndarray,
    losses: np.ndarray,
    geometry: WeightedEntropyGeometry,
) -> np.ndarray:
    """Weighted-entropy mirror step on a batch of log-space simplex states.

    ``geometry`` supplies the scales and the learning rate; a caller that
    steps many times reuses one geometry, so its rates are derived once.
    When every rate is the same r, the step is one log-softmax of
    ``log_p - r * losses``: a multiplier shifts each row by a constant, which
    the renormalization removes, so no solve is needed.  Otherwise the
    multiplier comes from :func:`solve_entropy_multiplier`, which iterates
    and can raise :class:`MirrorError`.  The losses must be finite and
    non-negative, which is not checked here: the round kernel has already
    bounded every loss behind them.  Returns new log-probabilities; each
    output row is renormalized in log space so that its linear-space sum is 1
    to machine precision, which keeps the solver's starting bracket valid
    over arbitrarily long update sequences.
    """
    losses = np.asarray(losses, dtype=float)
    r_min, r_max = geometry.rate_range
    if r_min == r_max:
        out = log_p - r_min * losses
    else:
        lam = solve_entropy_multiplier(log_p, losses, geometry)
        out = log_p - geometry.rates * (lam[:, None] + losses)
    # exact renormalization (cheap logsumexp; keeps sum(exp(out)) == 1)
    m = np.maximum.reduce(out, axis=1, keepdims=True)
    out -= m + np.log(np.add.reduce(np.exp(out - m), axis=1, keepdims=True))
    return out


# --------------------------------------------------------------------------
# Euclidean projection
# --------------------------------------------------------------------------

def project_rows_per_row(w: np.ndarray, radius: np.ndarray | float) -> np.ndarray:
    """Euclidean projection of a (B, d) stack of rows onto L2 balls.

    Row ``k`` projects onto the ball of radius ``radius[k]`` (a scalar
    radius serves every row); a row already inside its ball is returned
    unchanged.
    """
    norms = np.sqrt(np.add.reduce(w * w, axis=1))
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return w * scale[:, None]
