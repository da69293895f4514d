"""Tests for ingestion, preprocessing, generators, and summary metrics."""

import numpy as np
import pytest
from scipy import stats

from fedoms.data import (
    AdversarialSpec,
    DataError,
    RawDataset,
    Streams,
    default_bias,
    generate_adversarial,
    ingest_csv,
    preprocess_and_partition,
    synthetic_linear,
    write_regression_csv,
)
from fedoms.results import MetricsSummary, RunArtifact, compute_mse


# ---------------------------------------------------------------------------
# Ingestion


def _write(path, text):
    path.write_text(text)
    return path


def test_ingest_hand_file_exactly(tmp_path):
    f = _write(tmp_path / "t.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = ingest_csv(f, target_column="y")
    assert ds.rows == 3 and ds.input_dim == 2
    assert np.array_equal(ds.features, [[1, 2], [4, 5], [7, 8]])
    assert np.array_equal(ds.targets, [3, 6, 9])
    assert ds.feature_names == ("a", "b") and ds.target_name == "y"


def test_ingest_target_by_position(tmp_path):
    f = _write(tmp_path / "t.csv", "a,b,y\n1,2,3\n")
    assert np.array_equal(ingest_csv(f, target_column=0).targets, [1])
    assert np.array_equal(ingest_csv(f, target_column=-1).targets, [3])
    assert ingest_csv(f, target_column=0).feature_names == ("b", "y")


def test_ingest_errors_carry_row_and_column_diagnostics(tmp_path):
    missing = _write(tmp_path / "m.csv", "a,b,y\n1,2,3\n")
    with pytest.raises(DataError, match=r"no column named 'z'.*\['a', 'b', 'y'\]"):
        ingest_csv(missing, target_column="z")
    ragged = _write(tmp_path / "r.csv", "a,b,y\n1,2,3\n1,2\n")
    with pytest.raises(DataError, match="row 3 has 2 cells"):
        ingest_csv(ragged)
    alpha = _write(tmp_path / "n.csv", "a,b,y\n1,2,3\n1,oops,3\n")
    with pytest.raises(DataError, match="row 3, column 'b'.*'oops'"):
        ingest_csv(alpha)
    # float() parses these, but min-max scaling would turn the column to NaN;
    # the blank line still counts toward the reported row
    for cell, shown in (("nan", "nan"), ("-inf", "-inf"), ("Infinity", "inf")):
        bad = _write(tmp_path / "f.csv", f"a,b,y\n1,2,3\n\n4,{cell},6\n")
        with pytest.raises(DataError, match=f"row 4, column 'b': non-finite cell {shown}"):
            ingest_csv(bad)
    target = _write(tmp_path / "t.csv", "a,b,y\n1,2,nan\n")
    with pytest.raises(DataError, match="row 2, column 'y'"):
        ingest_csv(target, target_column="y")
    with pytest.raises(DataError, match="empty"):
        ingest_csv(_write(tmp_path / "e.csv", ""))
    with pytest.raises(DataError, match="no data rows"):
        ingest_csv(_write(tmp_path / "h.csv", "a,b,y\n"))
    with pytest.raises(DataError, match="out of range"):
        ingest_csv(missing, target_column=5)


def test_ingest_elevators_shaped_table(tmp_path):
    f = write_regression_csv(tmp_path / "big.csv", rows=16590, input_dim=18, seed=0)
    ds = ingest_csv(f, target_column="target")
    assert ds.rows == 16590
    assert ds.input_dim == 18


def test_regression_csv_is_deterministic(tmp_path):
    a = write_regression_csv(tmp_path / "a.csv", rows=50, input_dim=4, seed=3)
    b = write_regression_csv(tmp_path / "b.csv", rows=50, input_dim=4, seed=3)
    assert a.read_bytes() == b.read_bytes()
    c = write_regression_csv(tmp_path / "c.csv", rows=50, input_dim=4, seed=4)
    assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------------------
# Preprocessing and partitioning


def _dataset(features, targets):
    features = np.asarray(features, dtype=float)
    return RawDataset(
        features=features,
        targets=np.asarray(targets, dtype=float),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
        target_name="y",
    )


def test_preprocessing_hits_exact_extrema():
    rng = np.random.default_rng(0)
    ds = _dataset(rng.normal(size=(40, 3)) * [1.0, 10.0, 0.1], rng.normal(size=40))
    streams = preprocess_and_partition(ds, clients=4, seed=0)
    flat_x = streams.xs.reshape(-1, 3)
    assert np.allclose(flat_x.min(axis=0), -1.0)
    assert np.allclose(flat_x.max(axis=0), 1.0)
    assert streams.ys.min() == 0.0 and streams.ys.max() == 1.0
    assert streams.xs.shape == (4, 10, 3)


def test_constant_columns_map_to_zero_with_warning(caplog):
    ds = _dataset([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]], [1.0, 1.0, 1.0, 1.0])
    with caplog.at_level("WARNING", logger="fedoms.data"):
        streams = preprocess_and_partition(ds, clients=2, seed=1)
    assert np.all(streams.xs[:, :, 1] == 0.0)
    assert np.all(streams.ys == 0.0)  # constant target also maps to zero
    messages = " ".join(r.message for r in caplog.records)
    assert "constant feature columns" in messages and "constant target" in messages


def test_partition_truncates_remainder(caplog):
    rng = np.random.default_rng(1)
    ds = _dataset(rng.normal(size=(101, 2)), rng.normal(size=101))
    with caplog.at_level("WARNING", logger="fedoms.data"):
        streams = preprocess_and_partition(ds, clients=10, seed=2)
    assert streams.xs.shape == (10, 10, 2)
    assert any("dropping 1 of 101 rows" in r.message for r in caplog.records)


def test_partition_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    ds = _dataset(rng.normal(size=(60, 2)), rng.normal(size=60))
    a = preprocess_and_partition(ds, clients=3, seed=9)
    b = preprocess_and_partition(ds, clients=3, seed=9)
    c = preprocess_and_partition(ds, clients=3, seed=10)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.xs, c.xs)


def test_already_scaled_data_is_only_permuted():
    # columns exactly spanning [-1, 1], target spanning [0, 1]
    x = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0], [0.5, 0.5]])
    y = np.array([0.0, 1.0, 0.25, 0.75])
    streams = preprocess_and_partition(_dataset(x, y), clients=1, seed=4)
    got = sorted(map(tuple, streams.xs[0]))
    assert got == sorted(map(tuple, x))
    assert sorted(streams.ys[0]) == sorted(y)


def test_partition_rejects_too_few_rows():
    ds = _dataset([[1.0], [2.0]], [0.0, 1.0])
    with pytest.raises(DataError, match="cannot be split"):
        preprocess_and_partition(ds, clients=3, seed=0)


# ---------------------------------------------------------------------------
# Synthetic linear generator


def test_synthetic_linear_shape_and_ranges():
    streams = synthetic_linear(input_dim=6, clients=4, horizon=200, seed=5)
    assert streams.xs.shape == (4, 200, 6)
    assert np.all(streams.xs[:, :, 0] == 1.0)  # intercept column
    assert streams.xs[:, :, 1:].min() >= -1.0 and streams.xs[:, :, 1:].max() <= 1.0
    assert streams.ys.min() >= 0.0 and streams.ys.max() <= 1.0
    assert streams.meta["planted_norm"] == pytest.approx(np.hypot(0.5, 0.3), abs=1e-12)


def test_synthetic_linear_clients_are_independent_but_seeded():
    a = synthetic_linear(input_dim=4, clients=2, horizon=50, seed=8)
    b = synthetic_linear(input_dim=4, clients=2, horizon=50, seed=8)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.xs[0], a.xs[1])
    c = synthetic_linear(input_dim=4, clients=2, horizon=50, seed=9)
    assert not np.array_equal(a.xs, c.xs)


# ---------------------------------------------------------------------------
# Adversarial generators


def test_adversarial_spec_validation():
    with pytest.raises(DataError, match="unknown adversarial kind"):
        AdversarialSpec(kind="nope", num_spaces=2, input_dim=2, horizon=10,
                        clients=1, seed=0)
    with pytest.raises(DataError, match="exceeds input_dim"):
        AdversarialSpec(kind="biased_arm", num_spaces=5, input_dim=4, horizon=10,
                        clients=1, seed=0)
    with pytest.raises(DataError, match="exceeds horizon"):
        AdversarialSpec(kind="biased_arm", num_spaces=5, input_dim=5, horizon=4,
                        clients=1, seed=0)
    with pytest.raises(DataError, match="bias"):
        AdversarialSpec(kind="biased_arm", num_spaces=2, input_dim=2, horizon=10,
                        clients=1, seed=0, bias=1.5)


def test_default_bias_frozen_value():
    # K=16, J=2, T=4000: sqrt(16)/(3 sqrt(8000)) = 4/(3*89.4427...)
    assert default_bias(16, 2, 4000) == pytest.approx(0.0149071198, abs=1e-9)
    spec = AdversarialSpec(kind="biased_arm", num_spaces=16, input_dim=16,
                           horizon=4000, clients=1, seed=0, subset_size=2)
    assert spec.effective_bias == pytest.approx(0.0149071198, abs=1e-9)


def test_streams_identical_across_clients():
    for kind in ("bernoulli_symmetric", "biased_arm"):
        spec = AdversarialSpec(kind=kind, num_spaces=4, input_dim=6, horizon=50,
                               clients=3, seed=11)
        streams = generate_adversarial(spec)
        for j in (1, 2):
            assert np.array_equal(streams.xs[0], streams.xs[j])
            assert np.array_equal(streams.ys[0], streams.ys[j])
        assert np.all(streams.xs[:, :, 4:] == 0.0)  # unused coordinates stay zero


def test_bernoulli_symmetric_is_fair_chi_squared():
    spec = AdversarialSpec(kind="bernoulli_symmetric", num_spaces=5, input_dim=5,
                           horizon=100_000, clients=1, seed=21)
    streams = generate_adversarial(spec)
    x = streams.xs[0]
    for col in range(5):
        ones = int((x[:, col] == 1.0).sum())
        _, p = stats.chisquare([ones, 100_000 - ones])
        assert p > 0.001
    labels = int((streams.ys[0] == 1.0).sum())
    _, p = stats.chisquare([labels, 100_000 - labels])
    assert p > 0.001
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_biased_arm_distribution_chi_squared():
    spec = AdversarialSpec(kind="biased_arm", num_spaces=6, input_dim=6,
                           horizon=100_000, clients=1, seed=33, bias=0.04)
    streams = generate_adversarial(spec)
    hidden = streams.meta["hidden_arm"]
    x = streams.xs[0]
    n = 100_000
    for col in range(6):
        prob = (1.0 + 0.04) / 2.0 if col == hidden else (1.0 - 0.04) / 2.0
        ones = int((x[:, col] == 1.0).sum())
        _, p = stats.chisquare([ones, n - ones], [n * prob, n * (1 - prob)])
        assert p > 0.001
    assert np.all(streams.ys[0] == 1.0)
    assert set(np.unique(x)) <= {0.0, 1.0}


def test_biased_arm_expected_losses_bracket_the_hidden_arm():
    # with weight 1 on coordinate i the linear loss is 1 - x_i, so the mean
    # loss of the hidden arm is (1-rho)/2 and (1+rho)/2 elsewhere
    rho = 0.1
    spec = AdversarialSpec(kind="biased_arm", num_spaces=5, input_dim=5,
                           horizon=100_000, clients=1, seed=7, bias=rho)
    streams = generate_adversarial(spec)
    hidden = streams.meta["hidden_arm"]
    x = streams.xs[0]
    n = x.shape[0]
    sigma = 0.5 / np.sqrt(n)
    for col in range(5):
        mean_loss = float((1.0 - x[:, col]).mean())
        want = (1.0 - rho) / 2.0 if col == hidden else (1.0 + rho) / 2.0
        assert abs(mean_loss - want) < 3.5 * sigma


def test_zero_bias_makes_all_arms_fair():
    spec = AdversarialSpec(kind="biased_arm", num_spaces=4, input_dim=4,
                           horizon=100_000, clients=1, seed=13, bias=0.0)
    streams = generate_adversarial(spec)
    x = streams.xs[0]
    n = x.shape[0]
    for col in range(4):
        ones = int((x[:, col] == 1.0).sum())
        _, p = stats.chisquare([ones, n - ones])
        assert p > 0.001


def test_streams_shape_validation():
    with pytest.raises(DataError):
        Streams(xs=np.zeros((2, 5)), ys=np.zeros((2, 5)))
    with pytest.raises(DataError):
        Streams(xs=np.zeros((2, 5, 3)), ys=np.zeros((2, 6)))


# ---------------------------------------------------------------------------
# Metrics summaries


def _artifact(predictions, targets, clients, horizon, **overrides):
    n = clients * horizon
    fields = dict(
        algorithm="fomd_oms",
        clients=clients,
        horizon=horizon,
        epochs=horizon,
        num_spaces=2,
        round_ids=np.repeat(np.arange(1, horizon + 1, dtype=np.int64), clients),
        client_ids=np.tile(np.arange(clients, dtype=np.int64), horizon),
        epoch_ids=np.repeat(np.arange(1, horizon + 1, dtype=np.int64), clients),
        lead_indices=np.zeros(n, dtype=np.int64),
        predictions=np.asarray(predictions, dtype=float),
        losses=np.zeros(n),
        targets=np.asarray(targets, dtype=float),
        uplink_bits=np.full(n, 10, dtype=np.int64),
        downlink_bits=np.full(n, 6, dtype=np.int64),
        final_probs=np.array([0.5, 0.5]),
        total_uplink_bits=10 * n,
        total_downlink_bits=6 * n,
        wall_seconds=0.5,
    )
    fields.update(overrides)
    return RunArtifact(**fields)


def test_mse_hand_example():
    # errors (0.1, 0.2, 0, 0.3) over M=2, T=2: MSE = 0.14/4 = 0.035
    art = _artifact([0.1, 0.2, 0.0, 0.3], [0.0, 0.0, 0.0, 0.0], clients=2, horizon=2)
    assert art.mse() == pytest.approx(0.035, abs=1e-15)
    summary = compute_mse([art])
    assert summary.mse_mean == pytest.approx(0.035, abs=1e-15)
    assert summary.mse_std == 0.0
    assert summary.runs == 1
    assert summary.total_uplink_bits == 40


def test_mse_perfect_and_constant_predictors():
    perfect = _artifact([0.3, 0.4], [0.3, 0.4], clients=1, horizon=2)
    assert perfect.mse() == 0.0
    constant = _artifact([0.0, 0.0], [1.0, 1.0], clients=1, horizon=2)
    assert constant.mse() == 1.0


def test_compute_mse_aggregates_over_runs():
    a = _artifact([0.1, 0.1], [0.0, 0.0], clients=1, horizon=2)
    b = _artifact([0.3, 0.3], [0.0, 0.0], clients=1, horizon=2)
    summary = compute_mse([a, b])
    assert summary.mse_values == (pytest.approx(0.01), pytest.approx(0.09))
    assert summary.mse_mean == pytest.approx(0.05)
    assert summary.mse_std == pytest.approx(np.std([0.01, 0.09], ddof=1))
    d = summary.to_dict()
    assert d["runs"] == 2 and d["mse_values"] == list(summary.mse_values)
    with pytest.raises(ValueError, match="no artifacts"):
        compute_mse([])


def test_artifact_validates_column_lengths():
    with pytest.raises(ValueError, match="predictions"):
        _artifact([0.1, 0.2, 0.0], [0.0, 0.0, 0.0], clients=2, horizon=2)


def test_summary_dict_round_trips_to_json():
    import json

    art = _artifact([0.1, 0.2, 0.0, 0.3], [0.0] * 4, clients=2, horizon=2)
    blob = json.dumps(art.summary_dict())
    assert json.loads(blob)["mse"] == pytest.approx(0.035)
