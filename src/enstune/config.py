"""Experiment configuration: dataclass sections, a TOML-style file loader
and dotted-name overrides so every key can be set from the command line.

The file format is the scalar/array subset of TOML: ``[section]`` headers,
``key = value`` lines, ``#`` comments, quoted strings, booleans, numbers and
flat arrays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

EXPERIMENT_KINDS = ("wd_sweep", "temp_scale", "early_stop", "batch_ensemble",
                    "stop_then_scale")


class ConfigError(ValueError):
    """Malformed config file or override."""


@dataclass
class TaskSection:
    kind: str = "blobs"            # blobs | spirals | csv
    n: int = 2000
    classes: int = 4
    noise: float = 1.0
    radius: float = 2.0
    label_noise: float = 0.0
    data_seed: int = 0
    path: str = ""                 # csv source
    label_col: str = "label"
    test_fraction: float = 0.2


@dataclass
class ModelSection:
    hidden: list[int] = field(default_factory=lambda: [32])


@dataclass
class EnsembleSection:
    members: int = 4
    strategy: str = "shared"
    val_pct: float = 0.05


@dataclass
class OptimizerSection:
    kind: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.0
    decay_bias: bool = False


@dataclass
class StoppingSection:
    patience: int = 10
    max_epochs: int = 100
    batch_size: int = 128


@dataclass
class ExperimentSection:
    kind: str = "early_stop"
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    out_dir: str = "runs/run"
    strategies: list[str] = field(default_factory=lambda: ["shared"])
    modes: list[str] = field(default_factory=lambda: ["individual", "joint"])
    val_pcts: list[float] = field(default_factory=list)  # empty: use ensemble.val_pct
    weight_decays: list[float] = field(default_factory=lambda: [0.0, 1e-4, 1e-3, 1e-2])
    ensemble_sizes: list[int] = field(default_factory=list)  # empty: 1..members
    schemes: list[str] = field(default_factory=lambda: ["gaussian_0.1", "gaussian_0.5",
                                                        "random_sign"])
    ece_bins: int = 15


@dataclass
class ExperimentConfig:
    task: TaskSection = field(default_factory=TaskSection)
    model: ModelSection = field(default_factory=ModelSection)
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    stopping: StoppingSection = field(default_factory=StoppingSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)

    def validate(self) -> None:
        if self.experiment.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.experiment.kind!r}; "
                              f"expected one of {EXPERIMENT_KINDS}")
        if not self.experiment.seeds:
            raise ConfigError("experiment.seeds must be non-empty")
        if self.experiment.ece_bins < 1:
            raise ConfigError("experiment.ece_bins must be >= 1")
        if not 0.0 < self.ensemble.val_pct < 1.0:
            raise ConfigError("ensemble.val_pct must be in (0, 1)")
        for p in self.experiment.val_pcts:
            if not 0.0 < p < 1.0:
                raise ConfigError("experiment.val_pcts entries must be in (0, 1)")
        if self.task.kind not in ("blobs", "spirals", "csv"):
            raise ConfigError(f"unknown task kind {self.task.kind!r}")
        if self.task.kind == "csv" and not self.task.path:
            raise ConfigError("csv task needs task.path")

    def val_pcts(self) -> list[float]:
        return self.experiment.val_pcts or [self.ensemble.val_pct]

    def ensemble_sizes(self) -> list[int]:
        return self.experiment.ensemble_sizes or list(range(1, self.ensemble.members + 1))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for section, values in doc.items():
        if not hasattr(cfg, section):
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        if not isinstance(values, dict):
            raise ConfigError(f"section [{section}] must hold key = value pairs")
        names = {f.name: f for f in dataclasses.fields(target)}
        for key, value in values.items():
            if key not in names:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _coerce(value, getattr(target, key), f"{section}.{key}"))
    cfg.validate()
    return cfg


def _coerce(value, current, where: str):
    """Nudge parsed scalars toward the field's existing type."""
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: expected a boolean")
    if isinstance(current, float) and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(current, list) and isinstance(value, list):
        if current and isinstance(current[0], float):
            return [float(v) for v in value]
        return value
    if isinstance(current, list) and not isinstance(value, list):
        return [value]
    if type(value) is not type(current):
        raise ConfigError(f"{where}: expected {type(current).__name__}, "
                          f"got {type(value).__name__}")
    return value


def parse_scalar(text: str):
    """One TOML-ish value: bool, int, float, quoted string or array."""
    text = text.strip()
    if not text:
        raise ConfigError("empty value")
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [parse_scalar(part) for part in _split_array(inner)]
    if text in ("true", "false"):
        return text == "true"
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise ConfigError(f"cannot parse value {text!r} (strings need quotes)")


def _split_array(inner: str) -> list[str]:
    parts, depth, quoted, cur = [], 0, False, []
    for ch in inner:
        if ch == '"':
            quoted = not quoted
        if not quoted:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
                continue
        cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p for p in (part.strip() for part in parts) if p]


def parse_toml(text: str) -> dict:
    """Sections of key = value pairs; a tiny but strict TOML subset."""
    doc: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            section = doc.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        try:
            section[key.strip()] = parse_scalar(value)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {err}") from None
    return doc


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def apply_override(doc: dict, dotted: str, raw: str) -> None:
    """Apply a ``section.key=value`` override onto a parsed config dict."""
    if "." not in dotted:
        raise ConfigError(f"override {dotted!r} must look like section.key")
    section, _, key = dotted.partition(".")
    try:
        value = parse_scalar(raw)
    except ConfigError:
        value = raw  # bare strings are convenient on the command line
    doc.setdefault(section, {})[key] = value


def load_config(path: str | None, overrides: list[str] = ()) -> ExperimentConfig:
    """Read a config file (optional) and apply dotted overrides in order."""
    doc: dict = {}
    if path:
        with open(path) as f:
            doc = parse_toml(f.read())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, _, raw = item.partition("=")
        apply_override(doc, dotted.strip(), raw.strip())
    return config_from_dict(doc)
