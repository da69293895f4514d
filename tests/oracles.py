"""Independent oracle implementations used by the test suite.

Everything here is written from the defining formulas with plain loops and
library root-finders, deliberately avoiding the code paths under test.
"""
from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

# the spawn-key role of the tests' scratch streams; fedoms.rng reserves it
ROLE_TEST = 9


def entropy_step_grid(scales, eta, p, losses, stages=5, points=100):
    """Entropy mirror step solved by iterated grid refinement over the multiplier.

    Returns (p_new, lam).  The multiplier is located by scanning a grid on
    [-max(losses), 0] for the sign change of sum(p') - 1 and refining around
    it; no bisection code from the library is involved.
    """
    p = np.asarray(p, dtype=float)
    losses = np.asarray(losses, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def total(lam):
        return float(np.sum(p * np.exp(-eta * (lam + losses) / scales)))

    lo, hi = -float(losses.max()), 0.0
    if lo == 0.0:
        return p / p.sum(), 0.0
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        vals = np.array([total(g) for g in grid])
        k = int(np.argmin(np.abs(vals - 1.0)))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, points - 1)]
    lam = 0.5 * (lo + hi)
    out = p * np.exp(-eta * (lam + losses) / scales)
    return out / out.sum(), lam


def exponentiated_gradient(p, losses, eta):
    """Plain exponentiated-gradient update with normalization (equal scales, scale 1)."""
    w = [pi * math.exp(-eta * ci) for pi, ci in zip(p, losses)]
    s = sum(w)
    return np.array([wi / s for wi in w])


def gaussian_kernel(x, v, width):
    """Exact Gaussian kernel exp(-||x - v||^2 / (2 width^2))."""
    d = np.asarray(x, dtype=float) - np.asarray(v, dtype=float)
    return float(np.exp(-float(d @ d) / (2.0 * width * width)))


def finite_difference_gradient(f, w, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for k in range(w.size):
        e = np.zeros_like(w)
        e[k] = h
        g[k] = (f(w + e) - f(w - e)) / (2 * h)
    return g


def schedule_eta(num_spaces, subset_size, clients, horizon):
    """Model-selection step size, written from the closed formula with math ops."""
    k, j, m, t = num_spaces, subset_size, clients, horizon
    first = math.sqrt(math.log(k * t)) / (2.0 * math.sqrt((1.0 + (k - j) / ((j - 1) * m)) * t))
    if j == k:
        return first
    return min(first, (j - 1) / (2.0 * (k - j)))


def schedule_lambda(radius, lipschitz, num_spaces, subset_size, clients, round_index):
    """Per-space step size at a given 1-based round index."""
    k, j, m = num_spaces, subset_size, clients
    ratio = (k - j) / (j - 1)
    floor_t = ratio * ratio
    inner = (1.0 + ratio / m) * max(floor_t, float(round_index))
    return radius / (2.0 * lipschitz * math.sqrt(inner))


def schedule_initial(loss_bounds, num_spaces, horizon):
    """Initial distribution from the closed formula; uniform fallback when K >= T."""
    k, t = num_spaces, horizon
    if k >= t:
        return np.full(k, 1.0 / k)
    c = list(loss_bounds)
    cmin = min(c)
    argmin = [i for i, ci in enumerate(c) if ci == cmin]
    base = 1.0 / math.sqrt(k * t)
    p = [base] * k
    bonus = (1.0 - math.sqrt(k / t)) / len(argmin)
    for i in argmin:
        p[i] += bonus
    return np.array(p)


# ---------------------------------------------------------------------------
# Reference learner: a plain-loop implementation of the full cooperative
# protocol.  Dict/list state, per-client Python loops, probabilities kept
# directly (not in log space), and the mirror multiplier found by Brent's
# method.  Shares nothing with the engine except the pre-laid uniform tables
# (replaying the same randomness is part of the contract under test).


def _reference_subset(p, subset_size, uniforms):
    """One ordered subset from J uniforms: inverse CDF lead, partial shuffle."""
    k = len(p)
    total = sum(p)
    target = uniforms[0] * total
    acc = 0.0
    lead = k - 1
    for i in range(k):
        acc += p[i]
        if acc > target:
            lead = i
            break
    chosen = [lead]
    rest = [i for i in range(k) if i != lead]
    for a in range(1, subset_size):
        pos = min(int(uniforms[a] * len(rest)), len(rest) - 1)
        chosen.append(rest[pos])
        rest[pos] = rest[-1]
        rest.pop()
    return chosen


def fisher_yates_subsets(probs, uniforms):
    """(n, J) ordered subsets, one row at a time by :func:`_reference_subset`.

    ``probs`` is (n, K), or (1, K) shared by every row; row r of the (n, J)
    ``uniforms`` draws subset r.  This is the sampling law the engine
    replays, written without its split into per-run positions and per-epoch
    leads: the lead by running sums of the masses, then each other slot by
    a clamped position in the shrinking complement.
    """
    probs = np.broadcast_to(probs, (len(uniforms), probs.shape[-1]))
    return np.array([_reference_subset(p.tolist(), len(u), u.tolist())
                     for p, u in zip(probs, uniforms)], dtype=np.int64)


def reference_project(w, radius):
    """Euclidean projection onto the L2 ball of ``radius``, one coordinate at a time."""
    n = math.sqrt(sum(float(x) * float(x) for x in w))
    if n <= radius:
        return np.asarray(w, dtype=float)
    return np.asarray([float(x) * radius / n for x in w])


def _reference_mirror(p, estimates, scales, eta):
    """Simplex step solved with Brent's method on the normalization equation."""
    from scipy.optimize import brentq

    worst = max(estimates)

    def total(lam):
        return sum(
            pi * math.exp(-eta * (lam + ci) / si)
            for pi, ci, si in zip(p, estimates, scales)
        ) - 1.0

    if worst <= 0.0:
        lam = 0.0
    elif abs(total(0.0)) <= 1e-15:
        lam = 0.0
    elif total(-worst) <= 0.0:
        # the sum is at least sum(p) - 1 there, which rounding can leave just
        # below zero when every estimate is the worst: the root is -worst
        lam = -worst
    else:
        lam = brentq(total, -worst, 0.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    out = [
        pi * math.exp(-eta * (lam + ci) / si)
        for pi, ci, si in zip(p, estimates, scales)
    ]
    s = sum(out)
    return [v / s for v in out]


def reference_fomd(spaces, loss_kind, xs, ys, subset_size, epochs,
                   uniforms, uniform_init=False):
    """Loop-based cooperative learner; returns per-round trace and final state.

    ``xs`` is (clients, horizon, input_dim), ``ys`` (clients, horizon), and
    ``uniforms`` the (clients, horizon, subset_size) table the engine would
    consume.  Output: dict with predictions/losses/leads panels of shape
    (horizon, clients), final probabilities, and final weights.
    """
    from fedoms.spaces import loss_derivative, loss_value

    clients, horizon = ys.shape
    k = len(spaces)
    n_per = horizon // epochs
    radii = [s.radius for s in spaces]
    lips = [s.lipschitz_bound for s in spaces]
    bounds = [s.loss_bound for s in spaces]
    eta = schedule_eta(k, subset_size, clients, epochs)
    if uniform_init or k >= epochs:
        p = [1.0 / k] * k
    else:
        p = [float(v) for v in schedule_initial(bounds, k, epochs)]
    s0 = sum(p)
    p = [v / s0 for v in p]
    weights = [np.zeros(s.dim) for s in spaces]

    preds = np.zeros((horizon, clients))
    losses = np.zeros((horizon, clients))
    leads = np.zeros((horizon, clients), dtype=np.int64)

    def incl(i):
        if k == 1:
            return 1.0
        return ((k - subset_size) / (k - 1.0)) * p[i] + (subset_size - 1.0) / (k - 1.0)

    for r in range(1, epochs + 1):
        t0 = (r - 1) * n_per
        subsets = [
            _reference_subset(p, subset_size, uniforms[j, t0]) for j in range(clients)
        ]
        inclusion = [incl(i) for i in range(k)]
        loss_sums = {}
        grad_sums = {}
        for t in range(t0, t0 + n_per):
            for j in range(clients):
                for slot, i in enumerate(subsets[j]):
                    space = spaces[i]
                    phi = space.feature_map(xs[j, t])
                    v = float(phi @ weights[i])
                    c = float(loss_value(loss_kind, v, ys[j, t]))
                    d = float(loss_derivative(loss_kind, v, ys[j, t]))
                    loss_sums[(j, i)] = loss_sums.get((j, i), 0.0) + c
                    key = (j, i)
                    if key not in grad_sums:
                        grad_sums[key] = np.zeros(space.dim)
                    grad_sums[key] = grad_sums[key] + d * phi
                    if slot == 0:
                        preds[t, j] = v
                        losses[t, j] = c
                        leads[t, j] = i
        touched = sorted({i for sub in subsets for i in sub})
        estimates = [0.0] * k
        for i in touched:
            acc = 0.0
            for j in range(clients):
                if (j, i) in loss_sums:
                    acc += (loss_sums[(j, i)] / n_per) / inclusion[i]
            estimates[i] = acc / clients
        for i in touched:
            g = np.zeros(spaces[i].dim)
            for j in range(clients):
                if (j, i) in grad_sums:
                    g = g + (grad_sums[(j, i)] / n_per) / inclusion[i]
            g = g / clients
            lam = schedule_lambda(radii[i], lips[i], k, subset_size, clients, r)
            weights[i] = reference_project(weights[i] - lam * g, radii[i])
        p = _reference_mirror(p, estimates, bounds, eta)
    return {
        "predictions": preds,
        "losses": losses,
        "leads": leads,
        "final_probs": np.array(p),
        "weights": weights,
    }


# ---------------------------------------------------------------------------
# Trace CSV writer: one row at a time, each cell read as a numpy scalar and
# converted on its own.  This is the writer ``RunArtifact.to_csv`` replaced.


def reference_trace_csv(artifact) -> str:
    """The trace CSV text of ``artifact``, formatted row by row."""
    from fedoms.results import TRACE_COLUMNS

    lines = [",".join(TRACE_COLUMNS) + "\n"]
    for k in range(artifact.rows):
        lines.append(
            f"{int(artifact.round_ids[k])},{int(artifact.client_ids[k])},"
            f"{int(artifact.epoch_ids[k])},{int(artifact.lead_indices[k])},"
            f"{float(artifact.predictions[k])!r},{float(artifact.losses[k])!r},"
            f"{int(artifact.uplink_bits[k])},{int(artifact.downlink_bits[k])}\n"
        )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Wire frame encoder: one frame at a time, the header packed with ``struct``
# and the indices shifted into a Python integer bit by bit.  This is the
# per-frame encoder that ``fedoms.protocol.encode_frames`` replaced.


def reference_frame_bytes(kind, epoch, client_id, indices, floats, num_spaces) -> bytes:
    """One frame: the 16-byte header, ``floats`` as f32, then the packed indices."""
    q = (num_spaces - 1).bit_length()  # ceil(log2 K) bits per index
    acc = 0
    for i in indices:
        acc = (acc << q) | int(i)
    nbits = q * len(indices)
    pad = (-nbits) % 8
    packed = (acc << pad).to_bytes((nbits + pad) // 8, "big")
    body = np.asarray(floats, dtype="<f4").tobytes()
    header = struct.pack("<IIIBBH", epoch, client_id, 8 * len(body) + nbits, kind,
                         len(indices), 0)
    return header + body + packed


# ---------------------------------------------------------------------------
# The running sum that ``bincount``, a wide ``sum(axis=0)`` and
# ``accumulate`` make, written out term by term: every sum over clients or
# rounds in the kernel adds in this order.


def running_sum(terms, start=0.0):
    """``((start + t0) + t1) + ...``, one term at a time."""
    total = start
    for t in terms:
        total += float(t)
    return total


# ---------------------------------------------------------------------------
# A feature map the round kernel cannot fuse.  The kernel gathers the
# features of coordinate and identity spaces itself, and runs any other map
# once per space and block; wrapping a coordinate or identity map sends the
# same floats down that per-space path.


@dataclasses.dataclass(frozen=True)
class OpaqueMap:
    """Calls ``inner``; the kernel does not see a coordinate map, so it calls the map."""

    inner: object

    @property
    def input_dim(self) -> int:
        return self.inner.input_dim

    @property
    def output_dim(self) -> int:
        return self.inner.output_dim

    def __call__(self, x):
        return self.inner(x)


def through_map_path(space):
    """``space`` with its feature map hidden behind :class:`OpaqueMap`."""
    return dataclasses.replace(space, feature_map=OpaqueMap(space.feature_map))
