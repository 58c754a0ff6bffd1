"""Experiment configuration: a flat key=value text format.

One `key = value` pair per line; `#` at the start of a line or after
whitespace starts a comment. Lists are comma-separated. The full schema
with defaults is ExperimentConfig below: the keys only the file has, plus
the run settings it shares with the engine, declared once in
federation.RunSettings. The README documents every key.

Every value is checked by one rule table, and a rejected value names the
`path:line` that set its key, or `path` alone for a default or an override.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from .federation import RunSettings
from .models import ModelSpec
from .optim import IDENTITY, RangeError, ScalingFn, check_ranges, clipped


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _each(keys, rule, test):
    """One (key, rule, test) per key, each testing that key's value."""
    return tuple((key, rule, lambda c, key=key: test(getattr(c, key))) for key in keys)


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

    # (key, rule, test) for the keys only the file has, in RULES's form;
    # validate applies them after every float's finiteness and before RULES
    FILE_RULES = (
        ("data", "must be 'blobs' or 'csv'", lambda c: c.data in ("blobs", "csv")),
        ("csv_train", "required when data = csv", lambda c: c.data != "csv" or c.csv_train),
        ("csv_test", "required when data = csv", lambda c: c.data != "csv" or c.csv_test),
        *_each(("n_clients", "rounds", "classes", "repeat", "classes_per_client",
                "train_per_class", "test_per_class"), "must be >= 1", lambda v: v >= 1),
        ("classes", "must be >= 2 for blobs", lambda c: c.data != "blobs" or c.classes >= 2),
        ("input_dim", "must be >= classes for blobs",
         lambda c: c.data != "blobs" or c.input_dim >= c.classes),
    )

    def validate(self, path, lines):
        """Applies every rule: the file's own, the shared RULES, the model spec's,
        then phi's. The first value out of range is rejected here, naming
        `path:line` from `lines` (key -> line that set it) or `path` alone."""
        try:
            check_ranges(self, _RULES)
            self.model_spec()
            self.scaling_fn()
        except RangeError as exc:
            where = f"{path}:{lines[exc.key]}" if exc.key in lines else path
            raise ConfigError(f"{where}: key {exc.key!r}: {exc}") from exc
        return self

    def model_spec(self) -> ModelSpec:
        hidden = self.hidden if self.model == "mlp" else ()
        return ModelSpec(self.model, self.input_dim, hidden, self.classes, self.activation)

    def scaling_fn(self) -> ScalingFn:
        if self.phi == "identity":
            return IDENTITY
        kind, *bounds = self.phi.split(":")
        if kind != "clipped" or len(bounds) != 2:
            raise RangeError("phi", "must be 'identity' or 'clipped:<lo>:<hi>'")
        try:
            return clipped(float(bounds[0]), float(bounds[1]))
        except ValueError as exc:
            raise RangeError("phi", f"has bad bounds: {exc}") from exc


# each key's type, from the field annotations (strings, under postponed evaluation)
_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_TUPLE_KEYS = {key for key, t in _TYPES.items() if t == "tuple[int, ...]"}
_BOOL_KEYS = {key for key, t in _TYPES.items() if t == "bool"}
_RULES = (
    *_each([key for key, t in _TYPES.items() if t == "float"], "must be finite", math.isfinite),
    *ExperimentConfig.FILE_RULES,
    *RunSettings.RULES,
)
# A comment starts at a `#` that begins the line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_value(where: str, key: str, raw: str):
    """`raw` read as `key`'s type; a value that is not of it is rejected naming `where`."""
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
        raise ConfigError(f"{where}: key {key!r}: {exc}") from exc


def parse_config(path, **overrides) -> ExperimentConfig:
    """Parse a key=value config file, apply the overrides that are not None
    (command-line values, which have no line; a string is read as the file's
    value would be) and validate the result once."""
    cfg, lines = ExperimentConfig(), {}
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
            setattr(cfg, key, _parse_value(f"{path}:{lineno}", key, raw))
            lines[key] = lineno
    overrides = {key: _parse_value(path, key, value) if isinstance(value, str) else value
                 for key, value in overrides.items() if value is not None}
    lines = {key: lineno for key, lineno in lines.items() if key not in overrides}
    return replace(cfg, **overrides).validate(path, lines)


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
