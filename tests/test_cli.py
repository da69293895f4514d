"""End-to-end tests for the command line interface and config validation."""

import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedoms import protocol
from fedoms.cli import main
from fedoms.config import ConfigError, load_config, parse_config
from fedoms.data import DataError
from fedoms.mirror import MirrorError
from fedoms.protocol import ProtocolError, RunInvariantError


def _base_config(**overrides):
    cfg = {
        "algorithm": "fomd",
        "clients": 2,
        "subset_size": 2,
        "loss": "square",
        "seed": 3,
        "horizon": 24,
        "epochs": 6,
        "spaces": [
            {"kind": "identity", "radius": 0.5},
            {"kind": "identity", "radius": 1.0},
            {"kind": "rff", "features": 12, "width": 2.0},
        ],
        "data": {"source": "synthetic_linear", "input_dim": 3, "noise": 0.02},
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_base_config(**overrides)))
    return path


def _last_json(captured: str) -> dict:
    """Parse the captured stdout, which must be exactly one JSON object."""
    return json.loads(captured)


def _spoil_csv(csv_path, cell):
    """Put ``cell`` in the second column of the file's row 6, or with ``None``
    drop that row's last cell."""
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    lines[5] = ",".join(cells[:-1] if cell is None else [cells[0], cell, *cells[2:]])
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path


def _widen_csv(csv_path):
    """Make the file's first column alternate 1e308 and -1e308, a range
    whose width overflows the float range."""
    lines = csv_path.read_text().splitlines()
    for r in range(1, len(lines)):
        lines[r] = ",".join(["1e308" if r % 2 else "-1e308", *lines[r].split(",")[1:]])
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_good_config(tmp_path, capsys):
    code = main(["validate", str(_write_config(tmp_path))])
    assert code == 0
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "ok"
    assert blob["config"]["num_spaces"] == 3
    assert blob["config"]["subset_size"] == 2


def test_validate_prints_the_horizon_run_derives_from_a_csv(tmp_path, capsys):
    # a CSV source's horizon is its rows // clients, planned before any run
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=61, input_dim=3, seed=1)
    cfg = _base_config(horizon=None, epochs=5)
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 0
    digest = _last_json(capsys.readouterr().out)["config"]
    assert (digest["horizon"], digest["epochs"]) == (30, 5)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["horizon"], summary["epochs"]) == (30, 5)


def test_validate_rejects_subset_size_one_with_named_constraint(tmp_path, capsys):
    path = _write_config(tmp_path, subset_size=1)
    code = main(["validate", str(path)])
    assert code == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "error"
    assert blob["field"] == "subset_size"
    assert "2 <= J <= K" in blob["message"]


def test_validate_rejects_epochs_not_dividing_horizon(tmp_path, capsys):
    path = _write_config(tmp_path, horizon=25, epochs=6)
    assert main(["validate", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["field"] == "epochs"
    assert "remainder" in blob["message"]


def test_validate_rejects_epochs_for_noncooperative_mode(tmp_path, capsys):
    path = _write_config(tmp_path, algorithm="nco", epochs=6)
    assert main(["validate", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["field"] == "epochs"
    assert "no communication epochs" in blob["message"]
    # epochs == horizon is the allowed degenerate spelling
    ok = _write_config(tmp_path, name="ok.json", algorithm="nco", epochs=24)
    assert main(["validate", str(ok)]) == 0


def test_nco_epochs_may_equal_the_horizon_a_csv_sets(tmp_path, capsys):
    # 200 rows over 10 clients set a horizon of 20, which nco's epochs may
    # spell; any other epoch count is still refused on the epochs field
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=200, input_dim=3, seed=1)
    for epochs, code in ((20, 0), (21, 2)):
        cfg = _base_config(algorithm="nco", clients=10, horizon=None, epochs=epochs)
        cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
        path = tmp_path / f"nco_{epochs}.json"
        path.write_text(json.dumps(cfg))
        for command in (["validate", str(path)],
                        ["run", str(path), "--out", str(tmp_path / "out")]):
            assert main(command) == code
            blob = _last_json(capsys.readouterr().out)
            if code == 0:
                assert blob["status"] == "ok"
            else:
                assert blob["field"] == "epochs"
                assert "no communication epochs" in blob["message"]


def test_validate_rejects_unknown_keys_and_missing_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_base_config(bogus=1)))
    assert main(["validate", str(path)]) == 2
    assert "unknown config keys" in _last_json(capsys.readouterr().out)["message"]
    cfg = _base_config()
    del cfg["loss"]
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["field"] == "loss" and "missing" in blob["message"]


def test_validate_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in _last_json(capsys.readouterr().out)["message"]
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in _last_json(capsys.readouterr().out)["message"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("steps, field", [({"horizon": 1, "epochs": None}, "horizon"),
                                          ({"horizon": 10, "epochs": 1}, "epochs")])
def test_one_space_with_one_update_step_is_a_config_error(command, steps, field,
                                                          tmp_path, capsys):
    # K * update steps = 1 leaves the mirror rate sqrt(ln(K * steps)) at 0
    path = _write_config(tmp_path, subset_size=1, spaces=[{"kind": "identity"}],
                         **steps)
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(path), *out]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == field
    assert "update steps must be >= 2" in blob["message"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides, field", [
    ({"spaces": [{"kind": "identity", "radius": math.inf}, {"kind": "identity"}]},
     "spaces[0].radius"),
    ({"spaces": [{"kind": "identity"}, {"kind": "rff", "features": 4, "width": math.inf}]},
     "spaces[1].width"),
    ({"loss": "linear", "spaces": [{"kind": "coordinate", "index": i} for i in range(2)],
      "data": {"source": "biased_arm", "input_dim": 2, "bias": math.nan}},
     "data.bias"),
], ids=["radius-Infinity", "width-Infinity", "bias-NaN"])
def test_non_finite_numbers_are_config_errors(command, overrides, field, tmp_path, capsys):
    # json writes and reads these as the bare literals Infinity and NaN
    path = _write_config(tmp_path, **overrides)
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(path), *out]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == field
    assert "must be a finite number" in blob["message"]


@pytest.mark.parametrize("overrides, field, message", [
    ({"subset_size": 256, "horizon": 300, "epochs": 3, "loss": "linear",
      "spaces": [{"kind": "coordinate", "index": i} for i in range(256)],
      "data": {"source": "biased_arm", "input_dim": 256}},
     "subset_size", "index count (subset size) 256"),
    ({"clients": 2**32 + 1}, "clients", "client id 4294967296"),
    ({"horizon": 2**32, "epochs": None}, "horizon", "epoch 4294967296"),
], ids=["subset_size", "clients", "horizon"])
def test_validate_checks_the_frame_header_of_an_audited_config(overrides, field, message,
                                                               tmp_path, capsys):
    path = _write_config(tmp_path, audit=True, **overrides)
    assert main(["validate", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == field
    assert message in blob["message"]
    # without the audit no frame is sent, so the same shape is valid
    assert main(["validate", str(_write_config(tmp_path, **overrides))]) == 0


def test_parse_config_field_diagnostics():
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(loss="huber"))
    assert err.value.field == "loss"
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(spaces=[{"kind": "rff"}, {"kind": "identity"}]))
    assert err.value.field == "spaces[0].features"
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(clients=0))
    assert err.value.field == "clients"
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(horizon=None))
    assert err.value.field == "horizon"  # synthetic sources need a horizon
    cfg = _base_config()
    cfg["data"] = {"source": "csv"}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == "data.path"


# ---------------------------------------------------------------------------
# validate is the static half of run


@pytest.fixture(scope="module")
def property_files(tmp_path_factory):
    """The CSV files the property draws from, written once: a clean one,
    three that the parser refuses at row 6, one of 2 rows, fewer than most
    client counts, and one whose first column's range overflows."""
    from fedoms.data import write_regression_csv

    root = tmp_path_factory.mktemp("validate_property")
    files = {"clean": write_regression_csv(root / "clean.csv", rows=12, input_dim=3, seed=1),
             "few": write_regression_csv(root / "few.csv", rows=2, input_dim=3, seed=2)}
    for name, cell in (("nan", "nan"), ("text", "one"), ("short", None)):
        files[name] = _spoil_csv(
            write_regression_csv(root / f"{name}.csv", rows=12, input_dim=3, seed=1), cell)
    files["wide"] = _widen_csv(write_regression_csv(root / "wide.csv", rows=12, input_dim=3,
                                                    seed=1))
    return root, files


# a linear-loss space of radius 2 or 8 on wide inputs passes the reach of 1,
# and its loss goes negative within a few rounds if the plan lets it run
_RADII = st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0])
_SPACES = st.one_of(
    st.builds(dict, kind=st.just("identity"), radius=_RADII),
    st.builds(dict, kind=st.just("coordinate"), radius=_RADII, index=st.integers(0, 4)),
    st.builds(dict, kind=st.just("rff"), radius=_RADII, features=st.integers(1, 4),
              width=st.sampled_from([0.5, 2.0])),
)


@st.composite
def _configs(draw):
    """A config drawn from every key; a CSV source names one of
    ``property_files``' files, and a short horizon keeps each run small."""
    spaces = draw(st.lists(_SPACES, min_size=1, max_size=4))
    cfg = {
        "algorithm": draw(st.sampled_from(["fomd", "nco"])),
        "clients": draw(st.integers(1, 5)),
        "subset_size": draw(st.integers(1, len(spaces))),
        "loss": draw(st.sampled_from(["square", "absolute", "linear"])),
        "seed": draw(st.integers(0, 3)),
        "spaces": spaces,
        "uniform_init": draw(st.booleans()),
        "audit": draw(st.booleans()),
    }
    source = draw(st.sampled_from(["csv", "synthetic_linear", "bernoulli_symmetric",
                                   "biased_arm"]))
    if source == "csv":
        cfg["data"] = {"source": "csv", "target_column": "target",
                       "path": draw(st.sampled_from(["clean", "few", "nan", "text", "short",
                                                      "wide"]))}
        horizon = draw(st.none() | st.integers(1, 12))
    else:
        cfg["data"] = {"source": source, "input_dim": draw(st.integers(1, 4))}
        if source == "biased_arm":
            cfg["data"]["bias"] = draw(st.sampled_from([None, 0.3, 1.5]))
        horizon = draw(st.integers(1, 16))
    for key, value in (("horizon", horizon), ("epochs", draw(st.none() | st.integers(1, 6)))):
        if value is not None:
            cfg[key] = value
    return cfg


def _stdout_of(argv) -> tuple[int, str]:
    """Run the CLI in-process; its stdout must be one JSON object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    json.loads(out.getvalue())
    return code, out.getvalue()


@settings(deadline=None, max_examples=300)
@given(cfg=_configs())
def test_a_config_that_validates_runs_and_one_that_does_not_fails_run_alike(
        cfg, property_files):
    # validate makes run's checks up to the data draw, so the two agree: a
    # library error escaping main, or a non-JSON stdout, fails here too
    root, files = property_files
    if cfg["data"]["source"] == "csv":
        cfg["data"]["path"] = str(files[cfg["data"]["path"]])
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg))
    validated = _stdout_of(["validate", str(path)])
    ran = _stdout_of(["run", str(path), "--out", str(root / "out")])
    assert validated[0] in (0, 2) and ran[0] in (0, 2)
    if validated[0] == 0:
        assert ran[0] == 0, ran[1]
    else:
        assert ran == validated


@pytest.mark.parametrize("name, code", [("clean", 0), ("few", 2), ("nan", 2), ("text", 2),
                                        ("short", 2), ("wide", 2)])
def test_validate_and_run_agree_on_each_property_file(name, code, property_files):
    # the property rarely draws a config that passes every other rule on a
    # given file; one valid in every other key reaches each file's own rule
    root, files = property_files
    cfg = {"algorithm": "fomd", "clients": 2, "subset_size": 1, "loss": "square", "seed": 0,
           "spaces": [{"kind": "coordinate", "index": 0}],
           "data": {"source": "csv", "target_column": "target", "path": str(files[name])}}
    path = root / f"{name}.json"
    path.write_text(json.dumps(cfg))
    validated = _stdout_of(["validate", str(path)])
    ran = _stdout_of(["run", str(path), "--out", str(root / name)])
    assert validated[0] == ran[0] == code, ran[1]
    if code:
        assert ran == validated


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace_and_summary(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "ok"
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "round,client,epoch,lead_index,prediction,loss,uplink_bits,downlink_bits"
    assert len(trace) == 1 + 24 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mse"] == pytest.approx(blob["mse"])
    assert summary["total_uplink_bits"] == blob["total_uplink_bits"]
    assert sum(int(line.split(",")[6]) for line in trace[1:]) == summary["total_uplink_bits"]


def test_run_is_byte_deterministic(tmp_path):
    path = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out", str(out_a)]) == 0
    assert main(["run", str(path), "--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    summary_a = json.loads((out_a / "summary.json").read_text())
    summary_b = json.loads((out_b / "summary.json").read_text())
    summary_a.pop("wall_seconds")
    summary_b.pop("wall_seconds")
    assert summary_a == summary_b


def test_an_audited_run_that_finds_a_mismatch_writes_its_files_and_exits_2(
        tmp_path, capsys, monkeypatch):
    # move the engine's loss estimate of epoch 2 before the audit sees it
    original = protocol._audit_epoch

    def audit_epoch(*args):
        bound = inspect.signature(original).bind(*args)
        if bound.arguments["epoch"] == 2:
            bound.arguments["loss_est"] = bound.arguments["loss_est"] + 1e-6
        return original(*bound.args)
    monkeypatch.setattr(protocol, "_audit_epoch", audit_epoch)
    out = tmp_path / "out"
    assert main(["run", str(_write_config(tmp_path, audit=True)), "--out", str(out)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "mismatch"
    assert blob["mismatches"] == ["epoch 2: aggregated losses disagree with engine"]
    assert (out / "trace.csv").is_file() and (out / "summary.json").is_file()
    assert json.loads((out / "summary.json").read_text())["mse"] == blob["mse"]


def test_an_audited_run_confirms_its_account_matches_its_frames(tmp_path, capsys):
    path = _write_config(tmp_path, audit=True)
    out = tmp_path / "audit_out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "ok" and "mismatches" not in blob
    summary = json.loads((out / "summary.json").read_text())
    assert summary["meta"]["audit_mismatches"] == []
    # one downlink and one uplink frame per client per epoch
    assert summary["meta"]["audit_frames_checked"] == 2 * 2 * 6
    assert summary["total_uplink_bits"] > 0 and blob["total_uplink_bits"] > 0


def test_an_audited_run_refuses_a_subset_too_large_for_the_frame_header(tmp_path, capsys,
                                                                         monkeypatch):
    # the header stores the index count in one byte, so J=256 cannot be sent;
    # the config is planned as audited, so no data is drawn
    from fedoms import config as fconfig

    def no_draw(*args):
        raise AssertionError("data was drawn before the frame header was checked")

    monkeypatch.setattr(fconfig, "build_streams", no_draw)
    cfg = _base_config(
        subset_size=256, horizon=300, epochs=3, loss="linear", audit=True,
        spaces=[{"kind": "coordinate", "index": i} for i in range(256)],
        data={"source": "biased_arm", "input_dim": 256},
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "error" and blob["kind"] == "ConfigError"
    assert blob["field"] == "subset_size"
    assert "index count (subset size) 256" in blob["message"]


@pytest.mark.parametrize("command", ["validate", "run", "ab"])
def test_an_audited_noncooperative_config_is_a_config_error_on_audit(command, tmp_path,
                                                                     capsys):
    # the baseline sends no frames, so an audit of it would check nothing
    path = _write_config(tmp_path, algorithm="nco", epochs=None, audit=True)
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path), *out]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == "audit"
    assert "federated algorithm only" in blob["message"]
    assert not (tmp_path / "out" / "trace.csv").exists()
    assert not (tmp_path / "out" / "ab.json").exists()


def test_run_respects_output_dir_env_override(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FEDOMS_OUT_DIR", str(env_dir))
    assert main(["run", str(path)]) == 0
    assert (env_dir / "trace.csv").exists()
    # an explicit --out flag wins over the environment
    flag_dir = tmp_path / "from_flag"
    assert main(["run", str(path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "trace.csv").exists()


def test_run_from_csv_source(tmp_path, capsys):
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3,
                                    seed=1)
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path),
                   "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out_csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["horizon"] == 30  # 60 rows over 2 clients
    assert summary["clients"] == 2


def test_run_rejects_horizon_mismatched_to_csv(tmp_path, capsys):
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3,
                                    seed=1)
    cfg = _base_config(horizon=40, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path),
                   "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["field"] == "horizon" and "does not match" in blob["message"]


def test_run_on_a_csv_with_a_nan_cell_reports_the_cell(tmp_path, capsys):
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3,
                                    seed=1)
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path),
                   "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "error" and blob["kind"] == "ConfigError"
    assert blob["field"] == "data"
    assert "row 6, column 'f1': non-finite cell nan" in blob["message"]


def test_run_on_a_csv_with_one_row_per_client_and_one_space_is_a_config_error(tmp_path,
                                                                               capsys):
    # the horizon comes from the file: 2 rows over 2 clients is 1 update step
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=2, input_dim=3, seed=1)
    cfg = _base_config(horizon=None, epochs=None, subset_size=1,
                       spaces=[{"kind": "identity"}])
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(command) == 2
        blob = _last_json(capsys.readouterr().out)
        assert blob["kind"] == "ConfigError" and blob["field"] == "horizon"
        assert "update steps must be >= 2" in blob["message"]


def test_validate_and_run_blame_the_data_for_fewer_rows_than_clients(tmp_path, capsys):
    # 3 rows cannot give 5 clients a round each: both commands must name the
    # data, not the horizon of 3 // 5 = 0 rounds it would leave
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=3, input_dim=3, seed=1)
    cfg = _base_config(horizon=None, epochs=None, clients=5)
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(command) == 2
        blobs.append(_last_json(capsys.readouterr().out))
    assert blobs[0] == blobs[1]
    assert blobs[0]["kind"] == "ConfigError" and blobs[0]["field"] == "data"
    assert blobs[0]["message"] == "3 rows cannot be split across 5 clients"


@pytest.mark.parametrize("overrides, message", [
    ({"loss": "linear", "spaces": [{"kind": "coordinate", "index": i} for i in range(2)]
      + [{"kind": "identity"}], "data": {"source": "biased_arm", "input_dim": 2}},
     "num_spaces 3 exceeds input_dim 2"),
    ({"loss": "linear", "horizon": 2, "epochs": None,
      "spaces": [{"kind": "coordinate", "index": i} for i in range(3)],
      "data": {"source": "bernoulli_symmetric", "input_dim": 4}},
     "num_spaces 3 exceeds horizon 2"),
    ({"spaces": [{"kind": "identity"}, {"kind": "identity", "radius": 2.0}],
      "data": {"source": "synthetic_linear", "input_dim": 1}},
     "input_dim must be >= 2 (intercept + slopes), got 1"),
], ids=["adversarial-spaces-over-input-dim", "adversarial-spaces-over-horizon",
        "linear-input-dim-1"])
def test_validate_and_run_refuse_a_source_that_cannot_serve_the_config_alike(
        overrides, message, tmp_path, capsys):
    # the generator's own rule refuses the config: validate must say what
    # run says, on the same field, before any data is drawn
    path = _write_config(tmp_path, **overrides)
    blobs = []
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(command) == 2
        blobs.append(_last_json(capsys.readouterr().out))
    assert blobs[0] == blobs[1]
    assert blobs[0]["kind"] == "ConfigError" and blobs[0]["field"] == "data"
    assert blobs[0]["message"] == message


@pytest.mark.parametrize("spaces, position, reach", [
    ([{"kind": "coordinate", "index": 0}, {"kind": "identity", "radius": 1.0}], 1, "1.73205"),
    ([{"kind": "rff", "features": 4, "radius": 0.75}], 0, "1.06066"),
], ids=["identity-reach-sqrt-3", "rff-reach-0.75-sqrt-2"])
def test_validate_and_run_refuse_a_linear_loss_space_whose_reach_passes_1(
        spaces, position, reach, tmp_path, capsys):
    # past radius * feature bound = 1 the linear loss 1 - v * y can go
    # negative: validate named no field, and run stopped mid-run with a
    # RunInvariantError; both now refuse the radius before any data is drawn
    path = _write_config(tmp_path, loss="linear", subset_size=len(spaces), spaces=spaces)
    blobs = []
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(command) == 2
        blobs.append(_last_json(capsys.readouterr().out))
    assert blobs[0] == blobs[1]
    assert blobs[0]["kind"] == "ConfigError"
    assert blobs[0]["field"] == f"spaces[{position}].radius"
    assert f"is {reach}, over 1" in blobs[0]["message"]


def test_a_linear_loss_space_of_reach_exactly_1_is_accepted(tmp_path, capsys):
    # hidden-arm's spaces: one coordinate each at radius 1
    path = _write_config(tmp_path, loss="linear", horizon=12, epochs=None,
                         spaces=[{"kind": "coordinate", "index": i} for i in range(3)],
                         data={"source": "biased_arm", "input_dim": 3})
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_run_on_a_csv_cell_over_the_csv_field_limit_reports_the_row(tmp_path, capsys):
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3,
                                    seed=1)
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = '"' + "1" * 140_000 + '"'  # csv's default field limit is 131,072
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path),
                   "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "error" and blob["kind"] == "ConfigError"
    assert blob["field"] == "data"
    assert "row 6: field larger than field limit" in blob["message"]


@pytest.mark.parametrize("space", [{"kind": "identity"}, {"kind": "rff", "features": 8}],
                         ids=["identity", "rff"])
def test_run_on_a_csv_with_only_a_target_column_is_a_config_error(space, tmp_path, capsys):
    # an RFF space ran to exit 0 on constant features, an identity space
    # failed on its radius; both now stop at the file
    csv_path = tmp_path / "only-target.csv"
    csv_path.write_text("target\n" + "".join(f"{v / 10}\n" for v in range(40)))
    cfg = _base_config(horizon=None, epochs=None, subset_size=1, spaces=[space])
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["status"] == "error" and blob["kind"] == "ConfigError"
    assert blob["field"] == "data"
    assert f"{csv_path}: no feature columns" in blob["message"]


@pytest.mark.parametrize(
    "error", [DataError, ProtocolError, RunInvariantError, MirrorError, ValueError],
    ids=lambda error: error.__name__)
def test_library_errors_keep_the_json_error_contract(error, tmp_path, capsys,
                                                     monkeypatch):
    from fedoms import cli

    def fail(config):
        raise error("round 3: something broke")

    monkeypatch.setattr(cli, "run_from_config", fail)
    assert main(["run", str(_write_config(tmp_path))]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob == {"status": "error", "kind": error.__name__,
                    "message": "round 3: something broke"}


@pytest.mark.parametrize("command", ["run", "ab"])
@pytest.mark.parametrize("name, reason", [("missing.csv", "No such file or directory"),
                                          ("adir", "Is a directory")],
                         ids=["missing", "directory"])
def test_an_unreadable_csv_is_a_config_error_on_data(command, name, reason, tmp_path,
                                                     capsys):
    (tmp_path / "adir").mkdir()
    csv_path = tmp_path / name
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob == {"status": "error", "kind": "ConfigError", "field": "data",
                    "message": f"{csv_path}: cannot read the data file: {reason}"}


@pytest.mark.parametrize("command", ["run", "ab"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
def test_an_output_directory_that_cannot_be_made_fails_before_the_run(command, out,
                                                                       tmp_path, capsys,
                                                                       monkeypatch):
    from fedoms import cli

    def no_run(*args):
        raise AssertionError("the run started before the output directory was made")

    monkeypatch.setattr(cli, "run_from_config", no_run)
    monkeypatch.setattr(cli, "build_experiment", no_run)
    (tmp_path / "afile").write_text("taken\n")
    out_dir = tmp_path / out
    assert main([command, str(_write_config(tmp_path)), "--out", str(out_dir)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == "out"
    assert blob["message"].startswith(f"cannot create output directory {out_dir}: ")


def test_run_reports_a_radius_whose_loss_bound_overflows(tmp_path, capsys):
    # (radius * sqrt(3) + 1) ** 2 overflows; the space cannot be built
    path = _write_config(tmp_path, spaces=[{"kind": "identity", "radius": 1e200},
                                           {"kind": "identity"}])
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == "spaces[0].radius"
    assert "past the float range" in blob["message"]


def test_validate_builds_the_spaces_of_a_synthetic_source(tmp_path, capsys):
    # the config states the input width, so validate reports what run would
    path = _write_config(tmp_path, spaces=[{"kind": "identity", "radius": 1e200},
                                           {"kind": "identity"}])
    assert main(["validate", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob["kind"] == "ConfigError" and blob["field"] == "spaces[0].radius"
    assert "past the float range" in blob["message"]


@pytest.mark.parametrize("space, target, name, field, message", [
    ({"kind": "coordinate", "index": 3}, "target", "data.csv", "spaces[0].index",
     "spaces[0].index 3 is out of range for 3-dimensional inputs"),
    ({"kind": "identity"}, "label", "data.csv", "data",
     "{csv}: no column named 'label'; available columns: ['f0', 'f1', 'f2', 'target']"),
    ({"kind": "identity"}, "target", "missing.csv", "data",
     "{csv}: cannot read the data file: No such file or directory"),
], ids=["coordinate-out-of-range", "missing-target", "missing-file"])
def test_validate_checks_a_csv_source_against_its_header_row(space, target, name, field,
                                                              message, tmp_path, capsys):
    from fedoms.data import write_regression_csv

    write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3, seed=1)
    csv_path = tmp_path / name
    cfg = _base_config(horizon=None, epochs=None, subset_size=1, spaces=[space])
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": target}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert blob == {"status": "error", "kind": "ConfigError", "field": field,
                    "message": message.format(csv=csv_path)}


@pytest.mark.parametrize("cell, message", [
    ("nan", "row 6, column 'f1': non-finite cell nan"),
    ("one", "row 6, column 'f1': non-numeric cell 'one'"),
    (None, "row 6 has 3 cells, expected 4"),
], ids=["nan-cell", "non-numeric-cell", "short-row"])
def test_validate_and_run_refuse_a_bad_csv_alike(cell, message, tmp_path, capsys):
    # validate once counted a CSV's rows without converting a cell and passed
    # these files, which run refuses; both now parse the table alike
    from fedoms.data import write_regression_csv

    csv_path = _spoil_csv(write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3,
                                               seed=1), cell)
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(command) == 2
        assert _last_json(capsys.readouterr().out) == {
            "status": "error", "kind": "ConfigError", "field": "data",
            "message": f"{csv_path}: {message}"}


def test_validate_and_run_refuse_a_column_whose_rescale_overflows_alike(tmp_path, capsys):
    # validate once passed this file; run rescaled its first column to NaN
    # and refused the streams, naming neither the file nor the column
    from fedoms.data import write_regression_csv

    csv_path = _widen_csv(write_regression_csv(tmp_path / "data.csv", rows=12, input_dim=3,
                                               seed=1))
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path), "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(command) == 2
        assert _last_json(capsys.readouterr().out) == {
            "status": "error", "kind": "ConfigError", "field": "data",
            "message": f"{csv_path}: column 'f0' spans -1e+308 to 1e+308, a range too wide "
                       f"to rescale: twice it is not a finite float"}


def test_run_writes_the_reference_trace_bytes(tmp_path, capsys):
    from fedoms.config import run_from_config
    from oracles import reference_trace_csv

    cfg = _base_config(clients=3, horizon=40, epochs=10, loss="linear",
                       spaces=[{"kind": "coordinate", "index": i} for i in range(4)])
    cfg["data"] = {"source": "biased_arm", "input_dim": 4, "bias": 0.3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    expected = reference_trace_csv(run_from_config(load_config(path)))
    assert (out / "trace.csv").read_bytes() == expected.encode()


def test_run_rejects_coordinate_index_out_of_range(tmp_path, capsys):
    path = _write_config(
        tmp_path,
        spaces=[{"kind": "coordinate", "index": 9}, {"kind": "identity"}])
    assert main(["run", str(path)]) == 2
    blob = _last_json(capsys.readouterr().out)
    assert "out of range" in blob["message"]


# ---------------------------------------------------------------------------
# ab


def test_ab_reports_paired_deltas(tmp_path, capsys):
    cfg = _base_config(
        clients=3, horizon=60, epochs=None, subset_size=2, loss="linear",
        spaces=[{"kind": "coordinate", "index": i} for i in range(4)],
    )
    cfg["data"] = {"source": "biased_arm", "input_dim": 4, "bias": 0.3}
    path = tmp_path / "ab_cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "ab_out"
    assert main(["ab", str(path), "--seeds", "3", "--out", str(out)]) == 0
    report = json.loads((out / "ab.json").read_text())
    assert report["seeds"] == 3
    assert len(report["rows"]) == 3
    for row in report["rows"]:
        assert row["sign"] in {"+", "-", "0"}
        assert row["delta"] == pytest.approx(
            row["mse_noncooperative"] - row["mse_federated"])
    assert report["delta_mean"] == pytest.approx(
        sum(r["delta"] for r in report["rows"]) / 3)
    captured = capsys.readouterr()
    # stdout is the JSON summary alone; the table goes to stderr
    blob = _last_json(captured.out)
    assert blob["status"] == "ok" and blob["delta_mean"] == report["delta_mean"]
    assert "mean delta (noncoop - federated)" in captured.err
    assert "sign" in captured.err


def test_ab_computes_each_artifacts_mse_once(tmp_path, monkeypatch):
    # each call writes a (T, M) error buffer, so each of a seed's two
    # artifacts is reduced to its MSE by one call
    from fedoms.results import RunArtifact

    calls = []
    mse = RunArtifact.mse
    monkeypatch.setattr(RunArtifact, "mse", lambda self: calls.append(self) or mse(self))
    path = _write_config(tmp_path, epochs=None)
    assert main(["ab", str(path), "--seeds", "3", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 6 and len({id(artifact) for artifact in calls}) == 6


def test_ab_parses_a_csv_once_and_writes_the_per_seed_parse_bytes(tmp_path, monkeypatch):
    # ab parses the table once and partitions it per seed; parsing it again
    # for every seed, as build_experiment does without a table, must give
    # the same ab.json bytes (ab's own parse checks the config as given)
    from fedoms import cli, config as fconfig
    from fedoms.data import write_regression_csv

    csv_path = write_regression_csv(tmp_path / "data.csv", rows=60, input_dim=3,
                                    seed=1)
    cfg = _base_config(horizon=None, epochs=None)
    cfg["data"] = {"source": "csv", "path": str(csv_path),
                   "target_column": "target"}
    path = tmp_path / "csv_cfg.json"
    path.write_text(json.dumps(cfg))
    calls = []
    ingest = fconfig.ingest_csv
    monkeypatch.setattr(fconfig, "ingest_csv",
                        lambda *args, **kwargs: calls.append(args) or ingest(*args, **kwargs))

    assert main(["ab", str(path), "--seeds", "3", "--out", str(tmp_path / "once")]) == 0
    assert len(calls) == 1
    build = fconfig.build_experiment
    monkeypatch.setattr(cli, "build_experiment", lambda config, table: build(config))
    assert main(["ab", str(path), "--seeds", "3", "--out", str(tmp_path / "per_seed")]) == 0
    assert len(calls) == 1 + 1 + 3
    once = (tmp_path / "once" / "ab.json").read_bytes()
    assert once == (tmp_path / "per_seed" / "ab.json").read_bytes()
    assert len(json.loads(once)["rows"]) == 3


def test_ab_stacks_only_seeds_whose_spaces_are_equal_and_within_the_stack_bound(
        tmp_path, monkeypatch):
    # ab hands every seed's pair to one run_many call, which stacks
    # consecutive runs until one more would pass learners._STACK_BYTES; a
    # stack holds its runs' streams and traces until it ends, so ab's peak
    # memory stays flat in --seeds, and seeds of different random feature
    # draws run apart
    from fedoms import learners

    sizes = []
    run_stack = learners._run_stack
    monkeypatch.setattr(learners, "_run_stack",
                        lambda stack, layouts: sizes.append(len(stack))
                        or run_stack(stack, layouts))
    rff = _write_config(tmp_path, "rff.json", epochs=None)
    assert main(["ab", str(rff), "--seeds", "3", "--out", str(tmp_path / "rff")]) == 0
    assert sizes == [2, 2, 2]

    cfg = _base_config(clients=3, horizon=60, epochs=None, loss="linear",
                       spaces=[{"kind": "coordinate", "index": i} for i in range(4)])
    cfg["data"] = {"source": "biased_arm", "input_dim": 4, "bias": 0.3}
    path = tmp_path / "coordinate.json"
    path.write_text(json.dumps(cfg))
    run_bytes = 8 * 60 * 3 * (4 * 2 + 2)  # 8·T·M·(4J + 2)
    reports = []
    # the default bound, two seeds' pairs, three runs (a pair splits) and one pair
    for runs, stacks in ((None, [10]), (4, [4, 4, 2]), (3, [3, 3, 3, 1]), (2, [2] * 5)):
        sizes.clear()
        if runs is not None:
            monkeypatch.setattr(learners, "_STACK_BYTES", runs * run_bytes)
        out = tmp_path / f"stack{runs}"
        assert main(["ab", str(path), "--seeds", "5", "--out", str(out)]) == 0
        assert sizes == stacks
        reports.append((out / "ab.json").read_bytes())
    # a stacked seed reports the bytes it reports alone
    assert reports[1:] == reports[:1] * 3


def test_ab_seed_column_offsets_from_config_seed(tmp_path):
    path = _write_config(tmp_path, seed=11, epochs=None)
    out = tmp_path / "ab_out"
    assert main(["ab", str(path), "--seeds", "2", "--out", str(out)]) == 0
    report = json.loads((out / "ab.json").read_text())
    assert [row["seed"] for row in report["rows"]] == [11, 12]


# ---------------------------------------------------------------------------
# console entry point


def test_module_entry_point_runs(tmp_path):
    path = _write_config(tmp_path)
    # the child imports the same fedoms as this process, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "fedoms.cli", "validate", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


def test_load_config_round_trip(tmp_path):
    path = _write_config(tmp_path)
    config = load_config(path)
    assert config.algorithm == "fomd"
    assert len(config.spaces) == 3
    assert config.spaces[2].kind == "rff"
    assert config.data.source == "synthetic_linear"
