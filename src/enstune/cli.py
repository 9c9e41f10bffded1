"""Command-line entry point: experiment subcommands, dataset generation and
report aggregation.

Every config key is exposed as a flag of the same dotted name, e.g.
``--task.n 2000`` or ``--experiment.seeds [0,1,2]``; ``--set a.b=v`` does the
same thing and can be repeated. Exit code is 0 only when all seeds complete;
1 when a seed or the run's summary fails, after partial results are written;
2 for a bad config, which is rejected before any training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .config import DOTTED_KEYS, ConfigError, ExperimentConfig, TaskSection, load_config
from .data import make_task, save_csv

EXPERIMENT_COMMANDS = {
    "sweep-wd": "wd_sweep",
    "temp-scale": "temp_scale",
    "early-stop": "early_stop",
    "batch-ensemble": "batch_ensemble",
    "stop-then-scale": "stop_then_scale",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="TOML config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides experiment.out_dir)")
    for key in DOTTED_KEYS:
        parser.add_argument(f"--{key}", dest=f"dot:{key}", default=None,
                            metavar="V", help=argparse.SUPPRESS)


def _resolve_config(args, forced_kind: str) -> ExperimentConfig:
    """``load_config`` over the ``--set`` items, then the dotted flags, then
    the subcommand's kind; ``--out`` replaces experiment.out_dir verbatim."""
    overrides = list(args.overrides)
    for key in DOTTED_KEYS:
        value = getattr(args, f"dot:{key}", None)
        if value is not None:
            overrides.append(f"{key}={value}")
    overrides.append(f"experiment.kind={forced_kind}")
    cfg = load_config(args.config, overrides)
    if args.out:
        cfg.experiment.out_dir = args.out
    return cfg


def _cmd_experiment(args, kind: str) -> int:
    cfg = _resolve_config(args, kind)
    try:
        manifest = experiments.run_experiment(cfg)
    except experiments.ExperimentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"wrote {manifest['outputs']['cells']}")
    if "summary" in manifest:
        print(json.dumps(manifest["summary"]))
    return 0


def _cmd_gen_data(args) -> int:
    task = TaskSection(kind=args.kind, n=args.n, classes=args.classes, noise=args.noise,
                       radius=args.radius, label_noise=args.label_noise, data_seed=args.seed)
    ExperimentConfig(task=task).validate()  # rejects every task the generators refuse
    ds = make_task(task)
    save_csv(ds, args.out, label_col=args.label_col)
    print(f"wrote {args.out} ({len(ds)} rows, {ds.n_classes} classes)")
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.cells:
        rows.extend(experiments.read_rows_csv(path))
    if not rows:
        raise ConfigError(f"{', '.join(args.cells)}: a cells.csv header without data rows; "
                          "no rows to aggregate")
    os.makedirs(args.out, exist_ok=True)
    paths = experiments.write_report(args.out, rows)
    print(f"wrote {paths['aggregate']} and {paths['plotdata']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enstune",
        description="Train, tune and calibrate deep ensembles at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, kind in EXPERIMENT_COMMANDS.items():
        p = sub.add_parser(command, help=f"run the {kind} experiment")
        _add_config_flags(p)
        p.set_defaults(func=lambda a, k=kind: _cmd_experiment(a, k))

    g = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    g.add_argument("--kind", choices=["blobs", "spirals"], default="blobs")
    g.add_argument("--n", type=int, default=2000)
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--radius", type=float, default=2.0)
    g.add_argument("--label-noise", type=float, default=0.0, dest="label_noise")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--label-col", default="label", dest="label_col")
    g.add_argument("--out", required=True, metavar="FILE.csv")
    g.set_defaults(func=_cmd_gen_data)

    r = sub.add_parser("report", help="aggregate cells.csv files into reports")
    r.add_argument("cells", nargs="+", metavar="CELLS.csv")
    r.add_argument("--out", required=True, metavar="DIR")
    r.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
