"""Experiment configuration: JSON schema, validation, and run assembly.

A config file describes one experiment end to end: which algorithm to run,
how many clients and rounds, the candidate hypothesis spaces, and where the
data comes from.  ``load_config`` validates everything that can be checked
statically; ``build_experiment`` loads the data and performs the checks that
depend on the realized stream shape (for CSV sources the per-client horizon
is derived from the file).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import rng
from .data import (
    AdversarialSpec,
    DataError,
    RawDataset,
    Streams,
    check_linear_input_dim,
    generate_adversarial,
    ingest_csv,
    preprocess_and_partition,
    synthetic_linear,
)
from .learners import (
    LearnerConfig,
    check_epochs,
    check_nco_epochs,
    check_update_steps,
    run_fomd_oms,
    run_nco_oms,
)
from .protocol import ProtocolError, check_header_fields
from .results import RunArtifact
from .sampling import validate_subset_size
from .spaces import (
    CoordinateMap,
    IdentityMap,
    Loss,
    gaussian_rff,
    make_space,
)

ALGORITHMS = ("fomd", "nco")
SPACE_KINDS = ("identity", "coordinate", "rff")
DATA_SOURCES = ("csv", "synthetic_linear", "bernoulli_symmetric", "biased_arm")

OUTPUT_DIR_ENV = "FEDOMS_OUT_DIR"


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the offending key."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field

    def to_dict(self) -> dict:
        out = {"status": "error", "message": str(self)}
        if self.field is not None:
            out["field"] = self.field
        return out


@dataclass(frozen=True)
class SpaceSpec:
    """One candidate hypothesis space, before the input dimension is known."""

    kind: str
    radius: float = 1.0
    index: int = 0  # coordinate maps only
    width: float = 1.0  # random-feature maps only
    features: int = 0  # random-feature maps only


@dataclass(frozen=True)
class DataSpec:
    """Where the client streams come from."""

    source: str
    path: str = ""
    target_column: Union[int, str] = -1
    input_dim: int = 0
    noise: float = 0.05
    bias: Optional[float] = None


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    clients: int
    subset_size: int
    loss: str
    seed: int
    spaces: tuple
    data: DataSpec
    horizon: Optional[int] = None
    epochs: Optional[int] = None
    uniform_init: bool = False
    audit: bool = False


_TOP_LEVEL_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_SPACE_KEYS = {f.name for f in dataclasses.fields(SpaceSpec)}
_DATA_KEYS = {f.name for f in dataclasses.fields(DataSpec)}


def _require(condition: bool, message: str, field: str) -> None:
    if not condition:
        raise ConfigError(message, field=field)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}", field=field)
    return value


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}", field=field)
    # json reads NaN, Infinity and out-of-range literals such as 1e400 as
    # non-finite floats; an integer too large for a float overflows
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    _require(math.isfinite(number), f"{field} must be a finite number, got {value!r}", field)
    return number


def _check_schedule(algorithm: str, horizon: int, epochs: int) -> None:
    try:
        if algorithm == "nco":
            check_nco_epochs(horizon, epochs)
        check_epochs(horizon, epochs)
    except ValueError as exc:
        raise ConfigError(str(exc), field="epochs") from exc


def _check_steps(num_spaces: int, horizon: Optional[int], epochs: Optional[int]) -> None:
    """Reject a step count too small for the mirror rate; names the field that set it."""
    try:
        check_update_steps(num_spaces, horizon if epochs is None else epochs)
    except ValueError as exc:
        raise ConfigError(str(exc), field="horizon" if epochs is None else "epochs") from exc


def _parse_space(entry, position: int) -> SpaceSpec:
    field = f"spaces[{position}]"
    _require(isinstance(entry, dict), f"{field} must be an object", field)
    unknown = set(entry) - _SPACE_KEYS
    _require(not unknown, f"{field} has unknown keys {sorted(unknown)}", field)
    kind = entry.get("kind")
    _require(kind in SPACE_KINDS,
             f"{field}.kind must be one of {list(SPACE_KINDS)}, got {kind!r}",
             f"{field}.kind")
    radius = _as_number(entry.get("radius", 1.0), f"{field}.radius")
    _require(radius > 0.0, f"{field}.radius must be positive", f"{field}.radius")
    spec = SpaceSpec(kind=kind, radius=radius)
    if kind == "coordinate":
        index = _as_int(entry.get("index", 0), f"{field}.index")
        _require(index >= 0, f"{field}.index must be >= 0", f"{field}.index")
        spec = dataclasses.replace(spec, index=index)
    if kind == "rff":
        features = _as_int(entry.get("features", 0), f"{field}.features")
        _require(features >= 1,
                 f"{field}.features must be >= 1 for random-feature maps",
                 f"{field}.features")
        width = _as_number(entry.get("width", 1.0), f"{field}.width")
        _require(width > 0.0, f"{field}.width must be positive", f"{field}.width")
        spec = dataclasses.replace(spec, features=features, width=width)
    return spec


def _parse_data(entry) -> DataSpec:
    _require(isinstance(entry, dict), "data must be an object", "data")
    unknown = set(entry) - _DATA_KEYS
    _require(not unknown, f"data has unknown keys {sorted(unknown)}", "data")
    source = entry.get("source")
    _require(source in DATA_SOURCES,
             f"data.source must be one of {list(DATA_SOURCES)}, got {source!r}",
             "data.source")
    spec = DataSpec(source=source)
    if source == "csv":
        path = entry.get("path", "")
        _require(isinstance(path, str) and path,
                 "data.path is required for csv sources", "data.path")
        target = entry.get("target_column", -1)
        _require(isinstance(target, (int, str)) and not isinstance(target, bool),
                 "data.target_column must be a column name or index",
                 "data.target_column")
        spec = dataclasses.replace(spec, path=path, target_column=target)
    else:
        input_dim = _as_int(entry.get("input_dim", 0), "data.input_dim")
        _require(input_dim >= 1,
                 "data.input_dim is required for synthetic sources",
                 "data.input_dim")
        spec = dataclasses.replace(spec, input_dim=input_dim)
        if source == "synthetic_linear":
            noise = _as_number(entry.get("noise", 0.05), "data.noise")
            _require(noise >= 0.0, "data.noise must be >= 0", "data.noise")
            spec = dataclasses.replace(spec, noise=noise)
        if source == "biased_arm" and entry.get("bias") is not None:
            bias = _as_number(entry["bias"], "data.bias")
            spec = dataclasses.replace(spec, bias=bias)
    return spec


def parse_config(blob: dict) -> ExperimentConfig:
    """Validate a decoded JSON object and return a typed config."""
    _require(isinstance(blob, dict), "config must be a JSON object", "")
    unknown = set(blob) - _TOP_LEVEL_KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}",
             sorted(unknown)[0] if unknown else "")
    for key in ("algorithm", "clients", "subset_size", "loss", "seed",
                "spaces", "data"):
        _require(key in blob, f"missing required key '{key}'", key)

    algorithm = blob["algorithm"]
    _require(algorithm in ALGORITHMS,
             f"algorithm must be one of {list(ALGORITHMS)}, got {algorithm!r}",
             "algorithm")
    clients = _as_int(blob["clients"], "clients")
    _require(clients >= 1, "clients must be >= 1", "clients")
    seed = _as_int(blob["seed"], "seed")
    _require(seed >= 0, "seed must be >= 0", "seed")
    loss = blob["loss"]
    _require(loss in tuple(l.value for l in Loss),
             f"loss must be one of {[l.value for l in Loss]}, got {loss!r}",
             "loss")

    raw_spaces = blob["spaces"]
    _require(isinstance(raw_spaces, list) and raw_spaces,
             "spaces must be a non-empty list", "spaces")
    spaces = tuple(_parse_space(s, i) for i, s in enumerate(raw_spaces))
    num_spaces = len(spaces)

    subset_size = _as_int(blob["subset_size"], "subset_size")
    try:
        validate_subset_size(subset_size, num_spaces)
    except ValueError as exc:
        raise ConfigError(str(exc), field="subset_size") from exc

    horizon = blob.get("horizon")
    if horizon is not None:
        horizon = _as_int(horizon, "horizon")
        _require(horizon >= 1, "horizon must be >= 1", "horizon")
    data = _parse_data(blob["data"])
    if data.source != "csv":
        _require(horizon is not None,
                 "horizon is required for synthetic data sources", "horizon")

    epochs = blob.get("epochs")
    if epochs is not None:
        epochs = _as_int(epochs, "epochs")
        _require(epochs >= 1, "epochs must be >= 1", "epochs")
        if horizon is not None:  # a CSV source's horizon: check_horizon
            _check_schedule(algorithm, horizon, epochs)
    if horizon is not None or epochs is not None:
        _check_steps(num_spaces, horizon, epochs)

    uniform_init = blob.get("uniform_init", False)
    _require(isinstance(uniform_init, bool), "uniform_init must be a boolean",
             "uniform_init")
    audit = blob.get("audit", False)
    _require(isinstance(audit, bool), "audit must be a boolean", "audit")
    if audit and algorithm == "fomd":
        # an audited run's frame header holds J, every client id and every
        # epoch number; the epoch count is unknown while a CSV file sets the
        # horizon
        checks = [("subset_size", 0, 0, subset_size), ("clients", 0, clients - 1, 0)]
        if epochs is not None or horizon is not None:
            checks.append(("horizon", horizon, 0, 0) if epochs is None
                          else ("epochs", epochs, 0, 0))
        for field, *header in checks:
            try:
                check_header_fields(*header)
            except ProtocolError as exc:
                raise ConfigError(str(exc), field=field) from exc

    config = ExperimentConfig(
        algorithm=algorithm, clients=clients, subset_size=subset_size,
        loss=loss, seed=seed, spaces=spaces, data=data, horizon=horizon,
        epochs=epochs, uniform_init=uniform_init, audit=audit,
    )
    if data.source != "csv":
        # a generator's own rules, which build_streams meets again when it draws
        try:
            if data.source == "synthetic_linear":
                check_linear_input_dim(data.input_dim)
            else:
                _adversarial_spec(config)
        except DataError as exc:
            raise ConfigError(str(exc), field="data") from exc
    return config


def load_config(path, audit: bool = False) -> ExperimentConfig:
    """Read and validate a JSON config file; ``audit`` validates it as audited."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field="path")
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="")
    config = parse_config(blob)
    if audit and not config.audit:  # the frame header's limits now apply
        config = parse_config({**blob, "audit": True})
    return config


# ---------------------------------------------------------------------------
# Assembly


def read_table(config: ExperimentConfig) -> Optional[RawDataset]:
    """Parse a CSV source's table; ``None`` for a generated source.

    The table does not depend on the seed, so a caller that builds one
    experiment per seed parses it once and hands it to each build.
    """
    data = config.data
    if data.source != "csv":
        return None
    try:
        return ingest_csv(data.path, target_column=data.target_column)
    except DataError as exc:
        raise ConfigError(str(exc), field="data") from exc


def build_streams(config: ExperimentConfig,
                  table: Optional[RawDataset] = None) -> Streams:
    """Materialize client streams for the configured data source.

    A CSV source is parsed here unless ``table`` gives its parsed table.
    """
    data = config.data
    if data.source == "csv" and table is None:
        table = read_table(config)
    try:
        if data.source == "csv":
            return preprocess_and_partition(table, clients=config.clients,
                                            seed=config.seed)
        if data.source == "synthetic_linear":
            return synthetic_linear(input_dim=data.input_dim,
                                    clients=config.clients,
                                    horizon=config.horizon,
                                    seed=config.seed,
                                    noise=data.noise)
        return generate_adversarial(_adversarial_spec(config))
    except DataError as exc:
        raise ConfigError(str(exc), field="data") from exc


def _adversarial_spec(config: ExperimentConfig) -> AdversarialSpec:
    """The generator spec of an adversarial source; it raises DataError
    when the source cannot serve the config's spaces or horizon."""
    data = config.data
    return AdversarialSpec(kind=data.source, num_spaces=len(config.spaces),
                           input_dim=data.input_dim, horizon=config.horizon,
                           clients=config.clients, seed=config.seed,
                           subset_size=config.subset_size, bias=data.bias)


def build_spaces(config: ExperimentConfig, input_dim: int) -> tuple:
    """Instantiate the configured hypothesis spaces for a known input width.

    Random feature draws use a dedicated stream per space so that adding or
    reordering other spaces does not perturb an existing map.  With the
    linear loss a space's radius times its feature bound must not pass 1,
    the reach past which a loss can go negative (the run would stop there).
    """
    loss = Loss(config.loss)
    built = []
    for position, spec in enumerate(config.spaces):
        if spec.kind == "identity":
            feature_map = IdentityMap(input_dim)
        elif spec.kind == "coordinate":
            if spec.index >= input_dim:
                raise ConfigError(
                    f"spaces[{position}].index {spec.index} is out of range for "
                    f"{input_dim}-dimensional inputs",
                    field=f"spaces[{position}].index")
            feature_map = CoordinateMap(input_dim, spec.index)
        else:
            feature_map = gaussian_rff(
                input_dim, spec.features, spec.width,
                rng.stream(config.seed, rng.ROLE_FEATURES, position))
        field = f"spaces[{position}].radius"
        try:
            space = make_space(feature_map, spec.radius, loss)
        except ValueError as exc:  # a radius whose bounds leave the float range
            raise ConfigError(
                f"{field} is too large for {input_dim}-dimensional inputs: {exc}",
                field=field) from exc
        reach = space.radius * space.feature_bound
        if loss is Loss.LINEAR and reach > 1.0:
            # past a reach of 1 a prediction times a target can pass 1
            raise ConfigError(
                f"{field} {spec.radius:g} times the feature bound {space.feature_bound:g} "
                f"is {reach:g}, over 1: the linear loss 1 - prediction * target "
                f"can go negative", field=field)
        built.append(space)
    return tuple(built)


def check_horizon(config: ExperimentConfig, horizon: int) -> None:
    """Check the horizon a data source gives against the config's horizon,
    epochs and update steps."""
    if config.horizon is not None and horizon != config.horizon:
        raise ConfigError(
            f"horizon {config.horizon} does not match the {horizon} "
            "rounds per client derived from the data", field="horizon")
    if config.epochs is not None:
        _check_schedule(config.algorithm, horizon, config.epochs)
    _check_steps(len(config.spaces), horizon, config.epochs)


def build_experiment(config: ExperimentConfig,
                     table: Optional[RawDataset] = None):
    """Load data, build spaces, and return ``(learner_config, streams)``.

    ``table`` is a CSV source's table from :func:`read_table`, parsed once
    for many seeds; without it a CSV source is parsed here.
    """
    streams = build_streams(config, table)
    check_horizon(config, streams.horizon)
    spaces = build_spaces(config, streams.input_dim)
    learner = LearnerConfig(
        spaces=spaces,
        loss=Loss(config.loss),
        clients=config.clients,
        subset_size=config.subset_size,
        horizon=streams.horizon,
        epochs=config.epochs,
        master_seed=config.seed,
        uniform_init=config.uniform_init,
        audit=config.audit,
    )
    return learner, streams


def run_from_config(config: ExperimentConfig) -> RunArtifact:
    """Execute the configured experiment and return its artifact."""
    learner, streams = build_experiment(config)
    if config.algorithm == "nco":
        return run_nco_oms(learner, streams)
    return run_fomd_oms(learner, streams)


def resolve_output_dir(requested: Optional[str]) -> Path:
    """Pick the output directory: CLI flag, then env override, then cwd."""
    if requested:
        return Path(requested)
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override:
        return Path(override)
    return Path(".")
