"""Experiment configuration: dataclass sections, a TOML file loader and
dotted-name overrides so every key can be set from the command line.

Files are TOML, read with the standard library's :mod:`tomllib`: one
``[section]`` table per section dataclass below. Each value must have its
field's declared type (see :func:`_coerce`).
"""

from __future__ import annotations

import dataclasses
import tomllib
import typing
from dataclasses import dataclass, field

# The dotted keys a run reads: all of _ALWAYS_READ, the keys in the _READS rows of its
# task, optimizer and experiment kinds, and each _READ_WHEN key whose condition holds.
# validate() rejects any other key set away from its default: it would take no effect.
_ALWAYS_READ = ("task.kind", "task.data_seed", "task.test_fraction", "model.hidden",
                "ensemble.members", "optimizer.kind", "optimizer.lr",
                "stopping.max_epochs", "stopping.batch_size", "experiment.kind",
                "experiment.seeds", "experiment.out_dir", "experiment.strategies",
                "experiment.val_pcts", "experiment.ece_bins")
_READS = {
    "task.kind": {"blobs": ("task.n", "task.classes", "task.noise", "task.radius",
                            "task.label_noise"),
                  "spirals": ("task.n", "task.noise"),
                  "csv": ("task.path", "task.label_col")},
    "optimizer.kind": {"sgd_momentum": ("optimizer.momentum",), "adam": ()},
    "experiment.kind": {
        "wd_sweep": ("experiment.weight_decays", "experiment.ensemble_sizes"),
        "temp_scale": ("optimizer.weight_decay", "experiment.modes"),
        "early_stop": ("optimizer.weight_decay", "stopping.patience", "experiment.modes"),
        "batch_ensemble": ("optimizer.weight_decay", "stopping.patience",
                           "experiment.schemes"),
        "stop_then_scale": ("optimizer.weight_decay", "stopping.patience"),
    },
}
_READ_WHEN = {
    "ensemble.val_pct": ("experiment.val_pcts is empty",
                         lambda cfg: not cfg.experiment.val_pcts),
    "optimizer.decay_bias": ("a weight decay is > 0", lambda cfg: max(
        cfg.experiment.weight_decays if cfg.experiment.kind == "wd_sweep"
        else [cfg.optimizer.weight_decay], default=0.0) > 0),
}
# the least value each of these keys accepts (the trainers and scorers refuse less)
_AT_LEAST = {"optimizer.lr": 0, "optimizer.weight_decay": 0, "stopping.patience": 1,
             "stopping.max_epochs": 1, "stopping.batch_size": 1, "experiment.ece_bins": 1}
# bench/workloads.py's TINY sets these two for every kind; check them once it does not
_UNCHECKED = ("experiment.weight_decays", "stopping.patience")


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
        if not self.experiment.seeds:
            raise ConfigError("experiment.seeds must be non-empty")
        if any(seed < 0 for seed in self.experiment.seeds):
            raise ConfigError("experiment.seeds must be >= 0")
        if any(width < 1 for width in self.model.hidden):
            raise ConfigError("model.hidden widths must be >= 1")
        if not all(0.0 < p < 1.0 for p in self.val_pcts()):  # the fractions the run reads
            raise ConfigError(f"validation fractions {self.val_pcts()} must be in (0, 1): "
                              "ensemble.val_pct, or each experiment.val_pcts entry")
        for key in ("seeds", "strategies", "modes", "schemes", "val_pcts",
                    "ensemble_sizes"):
            values = getattr(self.experiment, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"experiment.{key} repeats an entry ({values}): the "
                                  "repeat would write the same cells again, which "
                                  "aggregate.csv counts as more seeds")
        if self.task.kind == "csv" and not self.task.path:
            raise ConfigError("csv task needs task.path")
        read, default = self.reads(), ExperimentConfig()
        unread = [f"{key} (default {_value(default, key)!r}; {_readers(key)})"
                  for key in DOTTED_KEYS if key not in read and key not in _UNCHECKED
                  and _value(self, key) != _value(default, key)]
        if unread:
            raise ConfigError(f"this run does not read {', '.join(unread)}; leave them unset")
        for key, least in _AT_LEAST.items():
            if not _value(self, key) >= least:
                raise ConfigError(f"{key}={_value(self, key)!r} must be >= {least}")
        self._check_task()

    def _check_task(self) -> None:
        """What the task generators and the test split refuse, by dotted key."""
        task = self.task
        if not 0.0 < task.test_fraction < 1.0:
            raise ConfigError(f"task.test_fraction={task.test_fraction!r} must be in (0, 1)")
        if task.kind == "blobs" and not 2 <= task.classes <= task.n:
            raise ConfigError(f"task.classes={task.classes} with task.n={task.n}: blobs "
                              "need at least 2 classes and one sample per class")
        if task.kind == "blobs" and not 0.0 <= task.label_noise < 1.0:
            raise ConfigError(f"task.label_noise={task.label_noise!r} must be in [0, 1)")
        if task.kind == "spirals" and task.n < 2:
            raise ConfigError(f"task.n={task.n}: spirals need at least 2 samples")

    def reads(self) -> set[str]:
        """The dotted keys this run reads; an unknown kind is an error."""
        read = set(_ALWAYS_READ)
        for selector, rows in _READS.items():
            if (value := _value(self, selector)) not in rows:
                raise ConfigError(f"unknown {selector.replace('.', ' ')} {value!r}; "
                                  f"expected one of {tuple(rows)}")
            read.update(rows[value])
        return read | {key for key, (_, holds) in _READ_WHEN.items() if holds(self)}

    def val_pcts(self) -> list[float]:
        return self.experiment.val_pcts or [self.ensemble.val_pct]

    def ensemble_sizes(self) -> list[int]:
        return self.experiment.ensemble_sizes or list(range(1, self.ensemble.members + 1))


# Declared field types, section name -> {key -> type}, for _coerce.
_FIELD_TYPES = {name: typing.get_type_hints(section)
                for name, section in typing.get_type_hints(ExperimentConfig).items()}
DOTTED_KEYS = [f"{section}.{key}" for section, types in _FIELD_TYPES.items()
               for key in types]


def _value(cfg: ExperimentConfig, key: str):
    section, _, name = key.partition(".")
    return getattr(getattr(cfg, section), name)


def _readers(key: str) -> str:
    """Which runs read a key that not every run reads."""
    if key in _READ_WHEN:
        return f"read only when {_READ_WHEN[key][0]}"
    for selector, rows in _READS.items():
        if readers := [value for value, keys in rows.items() if key in keys]:
            return f"read only when {selector} is {' or '.join(readers)}"
    return "read by no run"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for section, values in doc.items():
        if section not in _FIELD_TYPES:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        if not isinstance(values, dict):
            raise ConfigError(f"section [{section}] must hold key = value pairs")
        types = _FIELD_TYPES[section]
        for key, value in values.items():
            if key not in types:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _coerce(value, types[key], f"{section}.{key}"))
    cfg.validate()
    return cfg


def _coerce(value, hint, where: str):
    """Check a parsed value against the field's declared type: ints widen to
    floats, and a scalar given for a list field becomes a one-item list."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        items = value if isinstance(value, list) else [value]
        return [_coerce(v, item, f"{where}[{i}]") for i, v in enumerate(items)]
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{where}: expected {hint.__name__}, "
                          f"got {type(value).__name__}")
    return value


def parse_toml(text: str) -> dict:
    """A TOML document, read with :mod:`tomllib`."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ConfigError(str(err)) from None


def parse_scalar(text: str):
    """One TOML value: bool, int, float, quoted string or array."""
    doc = parse_toml(f"value = {text}")
    if len(doc) != 1:
        raise ConfigError(f"{text!r} holds more than one value")
    return doc["value"]


def apply_override(doc: dict, dotted: str, raw: str) -> None:
    """Apply a ``section.key=value`` override onto a parsed config dict."""
    if "." not in dotted:
        raise ConfigError(f"override {dotted!r} must look like section.key")
    section, _, key = dotted.partition(".")
    if not isinstance(doc.setdefault(section, {}), dict):
        raise ConfigError(f"section [{section}] must hold key = value pairs")
    try:
        value = parse_scalar(raw)
    except ConfigError:
        value = raw  # bare strings are convenient on the command line
    doc[section][key] = value


def load_config(path: str | None, overrides: list[str] = ()) -> ExperimentConfig:
    """Read a config file (optional) and apply dotted overrides in order."""
    doc: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                doc = parse_toml(f.read())
        except (OSError, UnicodeDecodeError, ConfigError) as err:
            raise ConfigError(f"config {path}: {err}") from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, _, raw = item.partition("=")
        apply_override(doc, dotted.strip(), raw.strip())
    return config_from_dict(doc)
