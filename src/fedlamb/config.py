"""Experiment configuration: a flat key=value text format.

One `key = value` pair per line; `#` at the start of a line or after
whitespace starts a comment. Lists are comma-separated. The full schema
with defaults is ExperimentConfig below: the keys only the file has, plus
the run settings it shares with the engine, declared once in
federation.RunSettings. The README documents every key.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .federation import RunSettings
from .models import ModelSpec
from .optim import IDENTITY, RangeError, ScalingFn, check_ranges, clipped


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


@dataclass
class ExperimentConfig(RunSettings):
    # model
    model: str = "mlp"
    input_dim: int = 0
    hidden: tuple[int, ...] = (200,)
    classes: int = 10
    activation: str = "relu"
    # data source: exactly one of blobs / csv
    data: str = "blobs"
    csv_train: str = ""
    csv_test: str = ""
    train_per_class: int = 500
    test_per_class: int = 100
    separation: float = 6.0
    noise: float = 1.5
    # federation shape
    n_clients: int = 1
    rounds: int = 1
    iid: bool = True
    classes_per_client: int = 2
    reshard_each_round: bool = False
    # layer-norm scaling: "identity" or "clipped:<lo>:<hi>"
    phi: str = "identity"
    # run control
    repeat: int = 1
    out: str = ""

    def validate(self):
        """Checks the keys only the file has, then applies the shared settings'
        RULES and builds the model spec, whose rules name any other key out of range."""
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"key '{key}': must be finite")
        if self.data not in ("blobs", "csv"):
            raise ConfigError(f"key 'data': must be 'blobs' or 'csv'")
        if self.data == "csv" and not (self.csv_train and self.csv_test):
            raise ConfigError("key 'csv_train'/'csv_test': required when data = csv")
        for key in ("n_clients", "rounds", "classes", "repeat", "classes_per_client",
                    "train_per_class", "test_per_class"):
            if getattr(self, key) < 1:
                raise ConfigError(f"key '{key}': must be >= 1")
        if self.data == "blobs" and self.classes < 2:
            raise ConfigError("key 'classes': blobs need at least two classes")
        if self.data == "blobs" and self.input_dim < self.classes:
            raise ConfigError("key 'input_dim': blobs need input_dim >= classes")
        try:
            check_ranges(self, self.RULES)
            self.model_spec()
        except RangeError as exc:
            raise ConfigError(f"key {exc.key!r}: {exc}") from exc
        self.scaling_fn()  # validates phi syntax
        return self

    def model_spec(self) -> ModelSpec:
        hidden = self.hidden if self.model == "mlp" else ()
        return ModelSpec(self.model, self.input_dim, hidden, self.classes, self.activation)

    def scaling_fn(self) -> ScalingFn:
        if self.phi == "identity":
            return IDENTITY
        if self.phi.startswith("clipped:"):
            parts = self.phi.split(":")
            if len(parts) != 3:
                raise ConfigError("key 'phi': expected 'clipped:<lo>:<hi>'")
            try:
                return clipped(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ConfigError(f"key 'phi': {exc}") from exc
        raise ConfigError(f"key 'phi': unknown scaling {self.phi!r}")


# each key's type, from the field annotations (strings, under postponed evaluation)
_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_TUPLE_KEYS = {key for key, t in _TYPES.items() if t == "tuple[int, ...]"}
_BOOL_KEYS = {key for key, t in _TYPES.items() if t == "bool"}
_FLOAT_KEYS = tuple(key for key, t in _TYPES.items() if t == "float")
# A comment starts at a `#` that begins the line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_TUPLE_KEYS:
            return tuple(int(p) for p in raw.split(",") if p.strip()) if raw else ()
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return {"int": int, "float": float}.get(_TYPES[key], str)(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a key=value config file."""
    cfg = ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT.split(line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            setattr(cfg, key, _parse_value(key, raw))
    return cfg.validate()


def write_config(cfg: ExperimentConfig, path):
    """Inverse of parse_config: one key = value line per field. A value that
    would not read back as written (a line break, surrounding whitespace, a
    `#` that would start a comment) is rejected by key before any write."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        value = str(value)
        line = f"{f.name} = {value}"
        if "\n" in value or "\r" in value or value != value.strip() or _COMMENT.search(line):
            raise ConfigError(f"key {f.name!r}: value {value!r} would not read back as written")
        lines.append(line + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
