"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line directly to the
terminal (bypassing pytest capture) so a full run yields an 11-line report.
Tolerances, grids, and runtime budgets are stated inline; every derived
expectation is computed by an independent oracle from ``tests/oracles.py``
or by closed-form hand arithmetic, never by the code under test.
"""

import struct
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from fedoms import rng as frng
from fedoms.data import (
    AdversarialSpec,
    generate_adversarial,
    ingest_csv,
    preprocess_and_partition,
    synthetic_linear,
    write_regression_csv,
)
from fedoms.learners import (
    LearnerConfig,
    best_fixed_hypothesis,
    regret_accounting,
    run_fomd_oms,
    run_many,
)
from fedoms.mirror import (
    entropy_rates,
    entropy_step_log_batch,
    materialize,
    solve_entropy_multiplier,
)
from fedoms.protocol import KIND_DOWNLINK, _scatter_reports, bits_per_index, encode_frames
from fedoms.sampling import complement_positions, inclusion_probabilities, subsets_from_uniforms
from fedoms.spaces import CoordinateMap, IdentityMap, Loss, gaussian_rff, make_space

MC_GRID = ((5, 2), (10, 2), (10, 5))
MC_DRAWS = 1_000_000
MC_CHUNK = 250_000
MC_VECTORS = 20


def _report(capfd, number, ok, description, detail):
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {description} ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Criteria 1 and 2 share one Monte Carlo pass: the same sampled subsets give
# both the importance-weighted estimator means and the inclusion frequencies.


@pytest.fixture(scope="module")
def subset_monte_carlo():
    worst_z_estimator = 0.0
    worst_z_inclusion = 0.0
    start = time.perf_counter()
    for num_spaces, subset_size in MC_GRID:
        gen = frng.stream(0, oracles.ROLE_TEST, num_spaces, subset_size)
        p_vectors = gen.dirichlet(np.ones(num_spaces), size=MC_VECTORS)
        c_vectors = gen.random((MC_VECTORS, num_spaces))
        uniforms = gen.random((MC_DRAWS, subset_size))
        positions = complement_positions(uniforms, num_spaces)  # the same for every p
        for p, c in zip(p_vectors, c_vectors):
            incl = inclusion_probabilities(p, subset_size)
            weights = c / incl  # the value the estimator assigns when sampled
            counts = np.zeros(num_spaces)
            value_sums = np.zeros(num_spaces)
            for lo in range(0, MC_DRAWS, MC_CHUNK):
                subsets = subsets_from_uniforms(p[None, :], uniforms[lo:lo + MC_CHUNK, 0],
                                                positions[lo:lo + MC_CHUNK])
                flat = subsets.ravel()  # indices are distinct within a row
                counts += np.bincount(flat, minlength=num_spaces)
                value_sums += np.bincount(flat, weights=weights[flat],
                                          minlength=num_spaces)
            freq = counts / MC_DRAWS
            mean_estimate = value_sums / MC_DRAWS
            sd_inclusion = np.sqrt(incl * (1.0 - incl) / MC_DRAWS)
            sd_estimator = c * np.sqrt((1.0 - incl) / incl) / np.sqrt(MC_DRAWS)
            worst_z_inclusion = max(worst_z_inclusion,
                                    (np.abs(freq - incl) / sd_inclusion).max())
            worst_z_estimator = max(worst_z_estimator,
                                    (np.abs(mean_estimate - c) / sd_estimator).max())
    elapsed = time.perf_counter() - start

    # tie the counting shortcut to the server's aggregation on a sub-batch:
    # one report per sampled row, merged by _scatter_reports (the merge the
    # audit ties to the engine), sums to the bincount sums; the merge
    # returns the mean over reports, so the sum is the mean times the count
    num_spaces, subset_size = MC_GRID[0]
    gen = frng.stream(0, oracles.ROLE_TEST, num_spaces, subset_size)
    p = gen.dirichlet(np.ones(num_spaces))
    c = gen.random(num_spaces)
    uniforms = gen.random((1000, subset_size))
    incl = inclusion_probabilities(p, subset_size)
    subsets = subsets_from_uniforms(p[None, :], uniforms[:, 0],
                                    complement_positions(uniforms, num_spaces))
    flat = subsets.ravel()  # the reports in client order
    mean_estimate, _ = _scatter_reports(flat, c[flat], np.zeros((flat.size, 1)), incl,
                                        len(subsets))
    direct = mean_estimate * len(subsets)
    shortcut = np.bincount(flat, weights=(c / incl)[flat], minlength=num_spaces)
    assert np.allclose(direct, shortcut, rtol=1e-12, atol=1e-12)

    return {"z_estimator": float(worst_z_estimator),
            "z_inclusion": float(worst_z_inclusion),
            "elapsed": elapsed}


def test_criterion_01_estimator_unbiasedness(subset_monte_carlo, capfd):
    z = subset_monte_carlo["z_estimator"]
    elapsed = subset_monte_carlo["elapsed"]
    ok = z <= 3.0 and elapsed < 30.0
    _report(capfd, 1, ok,
            "importance-weighted loss estimates are unbiased "
            "(3 sigma over 1e6 resamples, 3 grids x 20 vectors)",
            f"max |z| = {z:.3f}, sampling took {elapsed:.1f}s")


def test_criterion_02_inclusion_probability_closed_form(subset_monte_carlo, capfd):
    z = subset_monte_carlo["z_inclusion"]
    ok = z <= 3.0
    _report(capfd, 2, ok,
            "empirical inclusion frequencies match the closed form "
            "((K-J)p + J-1)/(K-1) within 3 sigma over 1e6 draws",
            f"max |z| = {z:.3f}")


def test_criterion_03_simplex_projection_against_grid_oracle(capfd):
    gen = frng.stream(1, oracles.ROLE_TEST, 3)
    worst_sum = worst_gap = worst_lam_gap = 0.0
    lam_in_range = True
    for trial in range(1000):
        num_spaces = int(gen.integers(2, 17))
        p = gen.dirichlet(np.ones(num_spaces))
        losses = gen.random(num_spaces) * 5.0
        if trial % 10 == 0:
            losses[:] = 0.0  # all-zero rows exercise the lam = 0 corner
        if trial % 7 == 0:
            scales = np.full(num_spaces, float(gen.uniform(0.5, 4.0)))
        else:
            scales = gen.uniform(0.5, 4.0, size=num_spaces)
        eta = float(gen.uniform(0.01, 2.0))
        rates = entropy_rates(np.array([eta]), scales)
        # the kernel's step: log-space state in, linear probabilities out
        log_p = np.log(p / p.sum())[None, :]
        stepped = materialize(entropy_step_log_batch(log_p, losses[None, :], rates))[0]
        lam = float(solve_entropy_multiplier(log_p, losses[None, :], rates)[0])
        oracle_p, oracle_lam = oracles.entropy_step_grid(scales, eta, p, losses)
        worst_sum = max(worst_sum, abs(float(stepped.sum()) - 1.0))
        lam_in_range = lam_in_range and -float(losses.max()) <= lam <= 0.0
        worst_gap = max(worst_gap, float(np.abs(stepped - oracle_p).max()))
        worst_lam_gap = max(worst_lam_gap, abs(lam - oracle_lam))
    ok = worst_sum <= 1e-9 and lam_in_range and worst_gap <= 1e-6 \
        and worst_lam_gap <= 1e-6
    _report(capfd, 3, ok,
            "entropy mirror step: simplex sum 1e-9, multiplier in "
            "[-max loss, 0], grid-oracle agreement 1e-6 on 1000 instances",
            f"|sum-1| <= {worst_sum:.2e}, |dp| <= {worst_gap:.2e}, "
            f"|dlam| <= {worst_lam_gap:.2e}")


def test_criterion_04_batching_equivalence(capfd, tmp_path):
    num_spaces, clients, horizon = 4, 3, 200
    spaces = tuple(
        make_space(IdentityMap(5), (i + 1) / num_spaces, Loss.SQUARE)
        for i in range(num_spaces)
    )
    streams = synthetic_linear(input_dim=5, clients=clients, horizon=horizon,
                               seed=4242)

    def run(epochs):
        cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=clients,
                            subset_size=2, horizon=horizon, epochs=epochs,
                            master_seed=4242)
        return run_fomd_oms(cfg, streams)

    default = run(None)
    explicit = run(horizon)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    default.to_csv(path_a)
    explicit.to_csv(path_b)
    byte_identical = path_a.read_bytes() == path_b.read_bytes() \
        and np.array_equal(default.final_probs, explicit.final_probs)

    # independent plain-loop reference, unbatched and batched
    worst = 0.0
    leads_match = True
    uniforms = frng.sampling_uniforms(4242, clients, horizon, 2)
    for epochs in (horizon, 50):
        art = run(epochs)
        ref = oracles.reference_fomd(spaces, Loss.SQUARE, streams.xs, streams.ys,
                                     2, epochs, uniforms)
        panel = art.predictions.reshape(horizon, clients)
        worst = max(worst, float(np.abs(panel - ref["predictions"]).max()))
        worst = max(worst, float(np.abs(art.final_probs - ref["final_probs"]).max()))
        leads_match = leads_match and np.array_equal(
            art.lead_indices.reshape(horizon, clients), ref["leads"])
    ok = byte_identical and leads_match and worst <= 1e-9
    _report(capfd, 4, ok,
            "single-round epochs reproduce the unbatched trace byte for "
            "byte, and both match a plain-loop reference (K=4, M=3, T=200)",
            f"bytes equal: {byte_identical}, reference L_inf = {worst:.2e}")


def test_criterion_05_collaboration_unnecessary_at_full_subsets(capfd):
    input_dim, num_spaces, clients, horizon = 10, 10, 10, 2000
    spaces = tuple(
        make_space(IdentityMap(input_dim), (i + 1) / 10, Loss.SQUARE)
        for i in range(num_spaces)
    )
    start = time.perf_counter()
    streams = [synthetic_linear(input_dim=input_dim, clients=clients,
                                horizon=horizon, seed=seed) for seed in range(10)]
    # (J, seed) pairs of (federated, noncooperative) runs: run_many stacks
    # consecutive runs, so each J's runs come together
    runs = []
    for subset_size in (num_spaces, 2):
        for seed in range(10):
            cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE,
                                clients=clients, subset_size=subset_size,
                                horizon=horizon, master_seed=seed)
            runs += [("fomd", cfg, streams[seed]), ("nco", cfg, streams[seed])]
    mse = np.array([art.mse() for art in run_many(runs)]).reshape(2, 10, 2)
    elapsed = time.perf_counter() - start
    deltas = mse[:, :, 1] - mse[:, :, 0]  # (J = K or 2, seed)
    gap_full = abs(float(np.mean(deltas[0])))
    gap_pair = float(np.mean(deltas[1]))
    ok = gap_pair > 0 and gap_full <= 5.0 * gap_pair and elapsed < 120.0
    _report(capfd, 5, ok,
            "with full subsets the federated/noncooperative MSE gap "
            "collapses to <= 5x the J=2 gap (10 nested spaces, 10 seeds)",
            f"|delta @ J=K| = {gap_full:.6f}, delta @ J=2 = {gap_pair:.6f}, "
            f"{elapsed:.0f}s")


def _paired_hidden_arm_deltas(num_spaces, clients, horizon, seeds):
    spaces = tuple(
        make_space(CoordinateMap(num_spaces, i), 1.0, Loss.LINEAR)
        for i in range(num_spaces)
    )
    runs = []
    for seed in range(seeds):
        spec = AdversarialSpec(kind="biased_arm", num_spaces=num_spaces,
                               input_dim=num_spaces, horizon=horizon,
                               clients=clients, seed=seed, subset_size=2)
        streams = generate_adversarial(spec)
        cfg = LearnerConfig(spaces=spaces, loss=Loss.LINEAR, clients=clients,
                            subset_size=2, horizon=horizon, master_seed=seed)
        runs += [("fomd", cfg, streams), ("nco", cfg, streams)]
    losses = np.array([art.cumulative_loss() for art in run_many(runs)]).reshape(seeds, 2)
    return (losses[:, 1] - losses[:, 0]) / clients


def test_criterion_06_collaboration_necessary_with_small_subsets(capfd):
    start = time.perf_counter()
    deltas16 = _paired_hidden_arm_deltas(16, 10, 4000, seeds=20)
    wins = int((deltas16 > 0).sum())
    p_value = stats.binomtest(wins, 20, 0.5, alternative="greater").pvalue
    deltas32 = _paired_hidden_arm_deltas(32, 10, 4000, seeds=5)
    elapsed = time.perf_counter() - start
    ok = (float(deltas16.mean()) > 0 and p_value < 0.05
          and float(deltas32.mean()) > 0 and elapsed < 180.0)
    _report(capfd, 6, ok,
            "hidden-arm stream: federated cumulative loss beats the "
            "noncooperative baseline (20-seed one-sided sign test, and "
            "directionally at K=32)",
            f"wins {wins}/20, sign-test p = {p_value:.1e}, mean delta K=16 "
            f"{deltas16.mean():+.1f}, K=32 {deltas32.mean():+.1f}, {elapsed:.0f}s")


def test_criterion_07_regret_grows_sublinearly(capfd):
    start = time.perf_counter()
    input_dim, clients = 4, 10
    radii = (0.25, 0.5, 0.75, 1.0)
    spaces = tuple(make_space(IdentityMap(input_dim), r, Loss.SQUARE)
                   for r in radii)
    runs = []
    for horizon in (1000, 4000):
        for seed in range(10):
            streams = synthetic_linear(input_dim=input_dim, clients=clients,
                                       horizon=horizon, seed=seed)
            cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE,
                                clients=clients, subset_size=2,
                                horizon=horizon, master_seed=seed,
                                uniform_init=True)
            runs.append(("fomd", cfg, streams))
    per_seed = {1000: [], 4000: []}
    for (_, cfg, streams), art in zip(runs, run_many(runs)):
        # regret against the best fixed hypothesis of the best space
        per_seed[cfg.horizon].append(max(
            regret_accounting(art, streams, s, Loss.SQUARE,
                              best_fixed_hypothesis(streams, s, Loss.SQUARE))
            for s in spaces))
    mean_regret = {horizon: float(np.mean(values)) for horizon, values in per_seed.items()}
    ratio = mean_regret[4000] / mean_regret[1000]
    elapsed = time.perf_counter() - start
    ok = mean_regret[1000] > 0 and mean_regret[4000] > 0 and ratio <= 2.6
    _report(capfd, 7, ok,
            "quadrupling the horizon grows regret by <= 2.6x "
            "(square-root shape, 10-seed averages)",
            f"Reg(1000) = {mean_regret[1000]:.1f}, Reg(4000) = "
            f"{mean_regret[4000]:.1f}, ratio = {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_08_random_feature_kernel_fidelity(capfd):
    input_dim = 8
    budgets = {100: 0.08, 2000: 0.02}
    detail = []
    ok = True
    for features, budget in budgets.items():
        worst = 0.0
        for width in (0.5, 1.0, 2.0, 4.0):
            gen = frng.stream(0, oracles.ROLE_TEST, 8, features, int(width * 4))
            errors = np.empty(1000)
            for pair in range(1000):
                fmap = gaussian_rff(input_dim, features, width, gen)
                # mixed separations: from well inside one bandwidth to far out
                scale = 10.0 ** gen.uniform(-1.0, 0.7)
                x = gen.normal(size=input_dim) * scale
                v = gen.normal(size=input_dim) * scale
                approx = float(fmap(x) @ fmap(v))
                errors[pair] = abs(approx - oracles.gaussian_kernel(x, v, width))
            worst = max(worst, float(errors.mean()))
        ok = ok and worst <= budget
        detail.append(f"D={features}: {worst:.4f} <= {budget}")
    _report(capfd, 8, ok,
            "random-feature inner products track the Gaussian kernel "
            "(mean error over 1000 fresh-map pairs, widths 0.5-4)",
            "; ".join(detail))


def test_criterion_09_communication_bit_accounting(capfd):
    num_spaces, clients, horizon, feat = 8, 10, 100, 100
    spaces = tuple(
        make_space(gaussian_rff(feat, feat, 2.0 ** (i - 2),
                                frng.stream(9, frng.ROLE_FEATURES, i)),
                   1.0, Loss.SQUARE)
        for i in range(num_spaces)
    )
    streams = synthetic_linear(input_dim=feat, clients=clients,
                               horizon=horizon, seed=9)
    cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=clients,
                        subset_size=2, horizon=horizon, master_seed=9,
                        audit=True)
    art = run_fomd_oms(cfg, streams)
    frames_checked = art.meta["audit_frames_checked"]
    mismatches = art.meta["audit_mismatches"]
    expected_downlink = 10 * 100 * (32 * 200 + 2 * 3)
    expected_uplink = 10 * 100 * (32 * (200 + 2) + 2 * 3)

    # one downlink encoded by hand: its header states the exact bit account,
    # and the byte blob pads the trailing index block by < 8 bits
    buffer, lengths = encode_frames(KIND_DOWNLINK, 1, np.array([0]), np.array([[0, 5]]),
                                    np.zeros((1, 2 * feat)), np.array([2 * feat]),
                                    num_spaces)
    bits = struct.unpack_from("<I", buffer, 8)[0]  # the header's payload bits
    pad = 8 * (int(lengths[0]) - 16) - bits
    ok = (not mismatches and frames_checked == 2 * clients * horizon
          and bits == 32 * 200 + 2 * bits_per_index(num_spaces)
          and 0 <= pad < 8
          and art.total_downlink_bits == expected_downlink
          and art.total_uplink_bits == expected_uplink)
    _report(capfd, 9, ok,
            "every serialized frame carries exactly its analytic bit "
            "account, and the 100-round downlink total is exact",
            f"{frames_checked} frames audited, downlink "
            f"{art.total_downlink_bits} == {expected_downlink}, trailing "
            f"pad {pad} bits")


def test_criterion_10_step_size_schedules_match_independent_evaluator(capfd):
    from fedoms.learners import eta_schedule, initial_distribution, lambda_schedule

    gen = frng.stream(2, oracles.ROLE_TEST)
    worst = 0.0
    for point in range(200):
        num_spaces = int(gen.integers(2, 41))
        subset_size = int(gen.integers(2, num_spaces + 1))
        clients = int(gen.integers(1, 51))
        horizon = int(gen.integers(2, 1_000_000))
        radii = tuple(float(r) for r in gen.uniform(0.05, 4.0, num_spaces))
        lipschitz = tuple(float(g) for g in gen.uniform(0.1, 8.0, num_spaces))
        bounds = tuple(float(c) for c in gen.uniform(0.5, 9.0, num_spaces))
        ratio = (num_spaces - subset_size) / (subset_size - 1)
        if point % 3 == 0 and ratio >= 1.0:
            # land inside the flat head of the parameter schedule
            t = min(int(gen.integers(1, max(2, int(ratio * ratio)))), horizon)
        else:
            t = int(gen.integers(1, horizon + 1))
        space = int(gen.integers(num_spaces))
        worst = max(worst, abs(
            eta_schedule(num_spaces, subset_size, clients, horizon)
            - oracles.schedule_eta(num_spaces, subset_size, clients, horizon)))
        worst = max(worst, abs(
            lambda_schedule(radii, lipschitz, subset_size, clients, horizon,
                            np.array([float(t)]))[0, space]
            - oracles.schedule_lambda(radii[space], lipschitz[space],
                                      num_spaces, subset_size, clients, t)))
        worst = max(worst, float(np.abs(
            initial_distribution(bounds, horizon)
            - oracles.schedule_initial(bounds, num_spaces, horizon)).max()))
    ok = worst <= 1e-12
    _report(capfd, 10, ok,
            "step-size and initial-distribution schedules match an "
            "independent evaluator on a 200-point grid incl. the flat region",
            f"max |difference| = {worst:.2e}")


def test_criterion_11_regression_table_smoke_comparison(capfd, tmp_path):
    clients, feat = 10, 100
    widths = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    csv = write_regression_csv(tmp_path / "table.csv", rows=16590,
                               input_dim=18, seed=0)
    dataset = ingest_csv(csv, target_column="target")
    start = time.perf_counter()
    runs = []
    for seed in range(10):
        streams = preprocess_and_partition(dataset, clients=clients, seed=seed)
        spaces = tuple(
            make_space(gaussian_rff(streams.input_dim, feat, w,
                                    frng.stream(seed, frng.ROLE_FEATURES, k)),
                       1.0, Loss.SQUARE)
            for k, w in enumerate(widths))
        cfg = LearnerConfig(spaces=spaces, loss=Loss.SQUARE, clients=clients,
                            subset_size=2, horizon=streams.horizon,
                            master_seed=seed)
        runs += [("fomd", cfg, streams), ("nco", cfg, streams)]
    mse = [art.mse() for art in run_many(runs)]  # each seed's random draws: one stack
    fed_all, solo_all = mse[::2], mse[1::2]
    elapsed = time.perf_counter() - start
    fed_mean = float(np.mean(fed_all))
    solo_mean = float(np.mean(solo_all))
    wins = sum(s > f for f, s in zip(fed_all, solo_all))
    ok = fed_mean < solo_mean
    _report(capfd, 11, ok,
            "16590x18 regression table: federated J=2 beats the "
            "noncooperative baseline on MSE over 10 seeds",
            f"{fed_mean:.4f} < {solo_mean:.4f}, wins {wins}/10, {elapsed:.0f}s")
