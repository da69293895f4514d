"""Tests for ingestion, preprocessing, generators, and summary metrics."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedoms import data, results
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

from oracles import reference_trace_csv


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


def _fast_and_row_parses(path):
    with path.open(newline="") as fh:
        header = next(csv.reader(fh))
        fast = data._parse_table(fh, len(header))
    return fast, data._parse_rows(path, header)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_pad = st.text(alphabet=" \t", max_size=2)


@settings(deadline=None, max_examples=60)
@given(
    table=st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(st.tuples(_pad, _finite, _pad),
                                        min_size=width, max_size=width),
                               min_size=1, max_size=20)),
    blanks=st.lists(st.booleans(), min_size=21, max_size=21),
    endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=21, max_size=21),
)
def test_fast_parse_matches_the_row_parser_bit_for_bit(tmp_path_factory, table, blanks,
                                                        endings):
    width = len(table[0])
    lines = [",".join(f"c{i}" for i in range(width)) + endings[0]]
    for row, blank, end in zip(table, blanks, endings[1:]):
        if blank:
            lines.append(end)
        lines.append(",".join(f"{a}{v!r}{b}" for a, v, b in row) + end)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text("".join(lines), newline="")
    fast, rows = _fast_and_row_parses(path)
    assert fast is not None  # the row parser is not what ran
    assert np.array_equal(fast.view(np.int64), rows.view(np.int64))
    expected = np.array([[v for _, v, _ in row] for row in table])
    assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
    ds = ingest_csv(path)
    assert np.array_equal(ds.targets.view(np.int64), fast[:, -1].view(np.int64))
    assert np.array_equal(ds.features.view(np.int64), fast[:, :-1].view(np.int64))


def test_cells_loadtxt_refuses_are_parsed_as_before(tmp_path):
    # quoted cells, underscores and whitespace-only lines fail the one-call
    # parse; the row parser still accepts them with float()'s values
    f = _write(tmp_path / "q.csv", 'a,b,y\n"1.5",1_0,"-2e3"\n   \n4, 5 ,"6"\n')
    fast, rows = _fast_and_row_parses(f)
    assert fast is None
    assert np.array_equal(rows, [[1.5, 10.0, -2000.0], [4.0, 5.0, 6.0]])
    ds = ingest_csv(f, target_column="y")
    assert np.array_equal(ds.features, [[1.5, 10.0], [4.0, 5.0]])
    assert np.array_equal(ds.targets, [-2000.0, 6.0])


def test_header_only_file_raises_without_a_warning(tmp_path):
    for text in ("a,b,y\n", "a,b,y\n\n\r\n"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="no data rows"):
                ingest_csv(_write(tmp_path / "h.csv", text))
        assert caught == []


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_streams_reject_non_finite_values_naming_client_and_round(bad):
    xs, ys = np.zeros((3, 5, 2)), np.zeros((3, 5))
    xs[2, 4, 1] = bad
    ys[1, 3] = bad  # the first bad (client, round) in client-major order
    with pytest.raises(DataError, match="client 1, round 4"):
        Streams(xs=xs, ys=ys)
    ys[1, 3] = 0.0
    with pytest.raises(DataError, match="client 2, round 5"):
        Streams(xs=xs, ys=ys)


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


_BLOCK = results._EXPORT_BLOCK_ROWS
_SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1e-4,
                   1e16, 9999999999999998.0, 1e22, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1 / 3)


@settings(deadline=None, max_examples=25)
@given(
    shape=st.sampled_from([(1, 1), (3, 7), (1, _BLOCK - 1), (4, _BLOCK // 4), (1, _BLOCK + 1),
                           (5, (2 * _BLOCK + 3) // 5 + 1)]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.tuples(st.sampled_from(_SPECIAL_FLOATS), st.integers(0, 10**6)),
                      max_size=30),
)
def test_trace_csv_bytes_match_the_row_writer(tmp_path_factory, shape, seed, specials):
    clients, horizon = shape
    n = clients * horizon
    rng = np.random.default_rng(seed)
    predictions = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    losses = rng.random(n) ** 3
    for value, at in specials:
        predictions[at % n] = value
        losses[(at // 7) % n] = abs(value)
    art = _artifact(predictions, np.zeros(n), clients, horizon,
                    lead_indices=rng.integers(0, 16, n),
                    losses=losses,
                    uplink_bits=rng.integers(0, 2**40, n),
                    downlink_bits=rng.integers(0, 2**20, n))
    path = art.to_csv(tmp_path_factory.mktemp("trace") / "trace.csv")
    assert path.read_bytes() == reference_trace_csv(art).encode()


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
