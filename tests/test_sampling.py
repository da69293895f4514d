import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fedoms import rng as rngmod
from fedoms import sampling
from fedoms.protocol import _scatter_reports

import oracles
from oracles import ROLE_TEST

RNG = np.random.default_rng(33)


def _subsets(probs, uniforms):
    """Sample with the (n, J) draws ``uniforms``: lead column, then positions."""
    positions = sampling.complement_positions(uniforms, probs.shape[-1])
    return sampling.subsets_from_uniforms(probs, uniforms[:, 0], positions)


def random_simplex(rng, k):
    p = rng.random(k) + 0.05
    return p / p.sum()


def empirical_inclusion(p, j, n, seed=0):
    rng = rngmod.stream(seed, ROLE_TEST)
    counts = np.zeros(p.size)
    done = 0
    while done < n:
        chunk = min(200_000, n - done)
        idx = _subsets(p[None, :], rng.random((chunk, j)))
        np.add.at(counts, idx.ravel(), 1.0)
        done += chunk
    return counts / n


# --------------------------------------------------------------------------
# validation and basic structure
# --------------------------------------------------------------------------

def _uniforms(seed, n, j):
    return rngmod.stream(seed, ROLE_TEST).random((n, j))


def test_subset_size_validation():
    p = random_simplex(RNG, 5)
    for j in (1, 6, 0):
        with pytest.raises(ValueError):
            _subsets(p[None, :], _uniforms(1, 3, j))
    out = _subsets(p[None, :], _uniforms(1, 3, 5))  # J = K allowed
    assert all(sorted(row) == [0, 1, 2, 3, 4] for row in out.tolist())
    with pytest.raises(ValueError, match=r"probs must be \(n, K\) or \(1, K\)"):
        _subsets(p, _uniforms(1, 3, 2))  # 1-d is refused


def test_degenerate_single_space():
    out = _subsets(np.array([[1.0]]), _uniforms(0, 4, 1))
    np.testing.assert_array_equal(out, np.zeros((4, 1)))
    np.testing.assert_array_equal(sampling.inclusion_probabilities(np.array([1.0]), 1), [1.0])
    with pytest.raises(ValueError):
        _subsets(np.array([[1.0]]), _uniforms(0, 4, 2))


def test_outcome_indices_distinct_lead_first():
    for _ in range(200):
        k = int(RNG.integers(2, 12))
        j = int(RNG.integers(2, k + 1))
        p = random_simplex(RNG, k)
        idx = _subsets(p[None, :], _uniforms(int(RNG.integers(1e9)), 5, j))
        assert idx.shape == (5, j)
        assert all(len(set(row)) == j for row in idx.tolist())
        assert np.all((0 <= idx) & (idx < k))


def test_sampling_consumes_exactly_j_uniforms():
    # one row of J draws per decision: column 0 picks the lead and the other
    # J - 1 become positions; a lead column of another length is refused, as
    # are positions for more spaces than the distribution has
    p = random_simplex(RNG, 6)
    u = _uniforms(77, 4, 3)
    positions = sampling.complement_positions(u, 6)
    assert positions.shape == (4, 2)
    assert _subsets(p[None, :], u).shape == (4, 3)
    with pytest.raises(ValueError, match=r"\(3,\) lead draws for 4 rows of positions"):
        sampling.subsets_from_uniforms(p[None, :], u[:3, 0], positions)
    with pytest.raises(ValueError, match="2 <= J <= K"):
        sampling.subsets_from_uniforms(p[None, :2], u[:, 0], positions)


def test_sampling_is_deterministic_given_stream():
    p = random_simplex(RNG, 8)
    a = _subsets(p[None, :], rngmod.stream(5, rngmod.ROLE_SAMPLING, 2).random((6, 4)))
    b = _subsets(p[None, :], rngmod.stream(5, rngmod.ROLE_SAMPLING, 2).random((6, 4)))
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# the sampling law
# --------------------------------------------------------------------------

def test_inclusion_probability_closed_form_values():
    p = np.full(10, 0.1)
    p[0] = 0.5
    p[1:] = 0.5 / 9
    got = sampling.inclusion_probabilities(p, 2)
    assert got[0] == pytest.approx((8.0 / 9.0) * 0.5 + 1.0 / 9.0)
    got_uniform = sampling.inclusion_probabilities(np.full(5, 0.2), 2)
    np.testing.assert_allclose(got_uniform, 0.4)
    np.testing.assert_allclose(sampling.inclusion_probabilities(random_simplex(RNG, 7), 7), 1.0)


def test_inclusion_matches_two_stage_law():
    # P[i in O] = p_i + (1 - p_i) (J-1)/(K-1), algebraically the closed form
    for _ in range(20):
        k = int(RNG.integers(2, 10))
        j = int(RNG.integers(2, k + 1))
        p = random_simplex(RNG, k)
        lhs = sampling.inclusion_probabilities(p, j)
        rhs = p + (1.0 - p) * (j - 1.0) / (k - 1.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_empirical_inclusion_matches_formula():
    p = np.array([0.45, 0.3, 0.15, 0.06, 0.04])
    j = 2
    n = 200_000
    freq = empirical_inclusion(p, j, n, seed=4)
    want = sampling.inclusion_probabilities(p, j)
    se = np.sqrt(want * (1 - want) / n)
    assert np.all(np.abs(freq - want) <= 3.5 * se)


def test_lead_index_follows_p_chi_squared():
    p = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
    n = 100_000
    u = rngmod.stream(9, ROLE_TEST).random((n, 2))
    idx = _subsets(p[None, :], u)
    counts = np.bincount(idx[:, 0], minlength=5)
    _, pval = stats.chisquare(counts, f_exp=p * n)
    assert pval > 0.001


def test_non_lead_uniform_over_complement():
    # condition on the lead: remaining slots hit the complement uniformly
    p = np.array([0.5, 0.3, 0.1, 0.1])
    n = 120_000
    u = rngmod.stream(11, ROLE_TEST).random((n, 2))
    idx = _subsets(p[None, :], u)
    mask = idx[:, 0] == 0
    counts = np.bincount(idx[mask, 1], minlength=4)[1:]
    _, pval = stats.chisquare(counts)
    assert pval > 0.001


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_sampler_equals_the_plain_fisher_yates_oracle_bit_for_bit(data):
    # the lead by a binary search of one shared CDF, or a count per row, and
    # the rest placed by per-run positions: the same subsets as the one-row-
    # at-a-time law, including zero masses and draws at the ends of [0, 1)
    k = data.draw(st.integers(1, 40), label="K")
    j = 1 if k == 1 else data.draw(st.integers(2, k), label="J")
    n = data.draw(st.integers(1, 12), label="n")
    rows = data.draw(st.sampled_from([1, n]), label="probs rows")
    mass = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    probs = np.array(data.draw(st.lists(st.lists(mass, min_size=k, max_size=k),
                                        min_size=rows, max_size=rows)))
    draw = st.one_of(st.sampled_from([0.0, 1.0 - 2.0 ** -53]),
                     st.floats(0.0, 1.0, exclude_max=True))
    u = np.array(data.draw(st.lists(st.lists(draw, min_size=j, max_size=j),
                                    min_size=n, max_size=n)))
    got = sampling.subsets_from_uniforms(probs, u[:, 0], sampling.complement_positions(u, k))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, oracles.fisher_yates_subsets(probs, u))


def test_per_row_and_shared_probs_agree():
    k = 6
    p = random_simplex(RNG, k)
    u = rngmod.stream(21, ROLE_TEST).random((500, 3))
    shared = _subsets(p[None, :], u)
    tiled = _subsets(np.tile(p, (500, 1)), u)
    np.testing.assert_array_equal(shared, tiled)


# --------------------------------------------------------------------------
# importance-weighted estimators
# --------------------------------------------------------------------------

def _estimate(raw_losses, indices, incl):
    """The server's loss estimate from one client's report on ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    loss_est, _ = _scatter_reports(indices, np.asarray(raw_losses, dtype=float),
                                   np.zeros((indices.size, 1)), incl, 1)
    return loss_est


def test_estimates_zero_off_subset_and_weighted_on_subset():
    p = np.array([0.5, 0.25, 0.25])
    incl = sampling.inclusion_probabilities(p, 2)
    est = _estimate(np.array([1.0, 3.0]), [2, 0], incl)
    assert est[1] == 0.0
    assert est[2] == pytest.approx(1.0 / incl[2])
    assert est[0] == pytest.approx(3.0 / incl[0])


def test_loss_estimator_is_unbiased_monte_carlo():
    k, j = 5, 2
    p = np.array([0.35, 0.3, 0.2, 0.1, 0.05])
    true = np.array([1.0, 0.5, 2.0, 0.0, 3.0])
    n = 200_000
    u = rngmod.stream(13, ROLE_TEST).random((n, j))
    idx = _subsets(p[None, :], u)
    incl = sampling.inclusion_probabilities(p, j)
    member = np.zeros((n, k))
    member[np.arange(n)[:, None], idx] = 1.0
    est = member * (true / incl)[None, :]
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - true) <= 3.5 * np.maximum(se, 1e-12))


def test_estimator_range_bound():
    # importance weights never exceed (K-1)/(J-1), so the estimate of a loss
    # bounded by C stays within C (K-1)/(J-1)
    for _ in range(100):
        k = int(RNG.integers(2, 10))
        j = int(RNG.integers(2, k + 1))
        p = random_simplex(RNG, k)
        subset = _subsets(
            p[None, :], _uniforms(int(RNG.integers(1e9)), 1, j))[0]
        c = RNG.uniform(0, 1, size=j)  # losses bounded by 1
        est = _estimate(c, subset, sampling.inclusion_probabilities(p, j))
        assert np.all(est <= (k - 1.0) / (j - 1.0) + 1e-9)


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 9), st.data())
def test_subset_size_matches_request(k, data):
    j = data.draw(st.integers(2, k))
    seed = data.draw(st.integers(0, 2**31 - 1))
    p = np.full(k, 1.0 / k)
    idx = _subsets(p[None, :], _uniforms(seed, 3, j))
    assert idx.shape == (3, j)
    incl = sampling.inclusion_probabilities(p, j)
    assert incl.shape == (k,)
    assert np.all(incl > 0) and np.all(incl <= 1.0 + 1e-12)


# --------------------------------------------------------------------------
# grouping subset tables by space
# --------------------------------------------------------------------------

def test_group_subsets_hand_example():
    idx = np.array([[3, 1], [0, 3], [3, 2], [1, 0]])
    groups = sampling.group_subsets(idx)
    np.testing.assert_array_equal(groups.touched, [0, 1, 2, 3])
    np.testing.assert_array_equal(groups.bounds, [0, 2, 4, 5, 8])
    np.testing.assert_array_equal(groups.rows, [1, 3, 0, 3, 2, 0, 1, 2])
    np.testing.assert_array_equal(groups.slots, [0, 1, 1, 0, 1, 0, 1, 0])
    assert groups.touched.size == 4
    assert groups.rows.size == groups.slots.size == idx.size


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_group_subsets_matches_membership_scan(data):
    # J=2, the subset size of every benchmark workload, is drawn half the time
    k = data.draw(st.integers(2, 12), label="K")
    j = data.draw(st.one_of(st.just(2), st.integers(2, k)), label="J")
    m = data.draw(st.integers(1, 40), label="M")
    perms = data.draw(st.lists(st.permutations(range(k)), min_size=m, max_size=m))
    idx = np.array([perm[:j] for perm in perms], dtype=np.int64)
    groups = sampling.group_subsets(idx)

    present = np.unique(idx)
    np.testing.assert_array_equal(groups.touched, present)
    assert groups.bounds[0] == 0 and groups.bounds[-1] == idx.size
    assert np.all(np.diff(groups.bounds) >= 1)
    # every flat entry names the (row, slot) cell whose space it carries
    np.testing.assert_array_equal(idx[groups.rows, groups.slots], groups.spaces)
    for seg, space in enumerate(groups.touched):
        lo, hi = groups.bounds[seg], groups.bounds[seg + 1]
        np.testing.assert_array_equal(groups.spaces[lo:hi], space)
        # the segment covers exactly the rows whose subset holds the space,
        # in ascending order, which keeps downstream reductions byte-for-byte
        # reproducible
        want_rows = np.nonzero((idx == space).any(axis=1))[0]
        np.testing.assert_array_equal(groups.rows[lo:hi], want_rows)


@pytest.mark.parametrize("num_spaces", [255, 256, 257, 1000])
def test_group_subsets_orders_entries_as_a_stable_sort_of_the_flat_table(num_spaces):
    # up to 256 spaces the keys are sorted as uint8 (a radix sort), past
    # that as int64; either way the permutation is the stable one
    rng = np.random.default_rng(num_spaces)
    idx = np.stack([rng.choice(num_spaces, 3, replace=False) for _ in range(300)])
    idx[0] = [num_spaces - 1, 1, 0]  # the highest id is sampled
    groups = sampling.group_subsets(idx)
    np.testing.assert_array_equal(groups.rows * 3 + groups.slots,
                                  idx.ravel().argsort(kind="stable"))
    np.testing.assert_array_equal(groups.spaces, np.sort(idx.ravel()))


def test_group_subsets_rejects_flat_input():
    with pytest.raises(ValueError):
        sampling.group_subsets(np.array([0, 1, 2]))
