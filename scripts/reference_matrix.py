"""The reference matrix: small runs of every experiment kind, each run at
``ENSTUNE_WORKERS=1`` and ``=2``, reduced to one sha256 per output file.

A change that claims "outputs byte-identical" runs this before and after:

    python3 scripts/reference_matrix.py --out digests.json
    python3 scripts/reference_matrix.py --compare scripts/reference_digests.json

``--compare`` names each file whose digest differs from the given file, or
that only one side has, and each run whose exit code or warnings differ,
with the warning lines that only the file has (``-``) or only this run has
(``+``); it exits 1 if there is one. The committed
``reference_digests.json`` records the numpy version, BLAS and CPU SIMD
features it was taken on; numpy's reduction order and the SIMD loops and
BLAS kernels the CPU selects can move the last bits on another machine.

Manifests are hashed without ``wall_clock_s`` and with ``out_dir`` and the
``outputs`` paths reduced to basenames, so the digests do not depend on
where the runs were written. Each run's exit code is recorded too, and its
warnings, from the run and its worker processes, as sorted
``Category: message`` lines, since at 2 workers the processes interleave them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from enstune.cli import main as cli_main  # noqa: E402

BASE = ["task.n=600", "task.classes=3", "task.noise=0.8", "task.label_noise=0.1",
        "model.hidden=[16]", "ensemble.members=4", "ensemble.val_pct=0.1",
        "experiment.seeds=[0,1]", "stopping.max_epochs=30", "stopping.patience=4",
        "stopping.batch_size=64", "optimizer.lr=0.01"]
THREE = 'experiment.strategies=["shared","disjoint","overlapping"]'
TWO = 'experiment.strategies=["shared","overlapping"]'
SGD = ["optimizer.kind=sgd_momentum", "optimizer.lr=0.05"]
ALL_TEMPS = 'experiment.modes=["none","individual","joint","pool"]'
ALL_STOPS = 'experiment.modes=["individual","joint","none"]'

# name -> (command, settings on top of BASE); a run that sets
# experiment.val_pcts drops BASE's ensemble.val_pct, which it would not read
RUNS = {
    "early_stop": ("early-stop", [THREE, ALL_STOPS]),
    "temp_scale": ("temp-scale", [TWO, ALL_TEMPS, "experiment.val_pcts=[0.1,0.2]",
                                  "stopping.max_epochs=6", *SGD]),
    "temp_scale_adam": ("temp-scale", [TWO, ALL_TEMPS, "experiment.val_pcts=[0.1,0.2]",
                                       "stopping.max_epochs=6"]),
    "wd_sweep": ("sweep-wd", ["experiment.weight_decays=[0,0.001,0.01]",
                              "stopping.max_epochs=10", *SGD]),
    "batch_ensemble": ("batch-ensemble", [THREE, "stopping.max_epochs=15"]),
    # a batch-normed hidden layer feeding another, as in configs/batchensemble.toml
    "batch_ensemble_deep": ("batch-ensemble", [THREE, "model.hidden=[16,8]",
                                               "stopping.max_epochs=15"]),
    "stop_then_scale": ("stop-then-scale", []),
    "es_multi": ("early-stop", [THREE, ALL_STOPS, "experiment.val_pcts=[0.05,0.2]"]),
    "es_sgd": ("early-stop", [TWO, 'experiment.modes=["none","joint"]', *SGD]),
    # one decay diverges: the sweep warns, flags its cells and trains on
    "wd_diverge": ("sweep-wd", ["experiment.weight_decays=[0,0.001,1e9]",
                                "model.hidden=[16,8]", "experiment.seeds=[0,1,2]",
                                "stopping.max_epochs=10", *SGD]),
    # edge cases of the MLP kinds' variant table
    "es_none_sgd": ("early-stop", [TWO, 'experiment.modes=["none"]', *SGD]),
    "ts_none": ("temp-scale", ['experiment.modes=["none"]', "stopping.max_epochs=6",
                               *SGD]),
    "ts_pool_overlapping": ("temp-scale", ['experiment.strategies=["overlapping"]',
                                           'experiment.modes=["pool"]',
                                           "stopping.max_epochs=6"]),
    "sts_two": ("stop-then-scale", [TWO]),
}
WORKERS = ("1", "2")


def environment() -> dict:
    """What can move the last bits of a digest: the versions, the thread
    count and the CPU features that pick numpy's SIMD loops and BLAS kernels."""
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_simd": build["SIMD Extensions"]["found"],
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def file_digest(path: str) -> str:
    if os.path.basename(path) != "manifest.json":
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    with open(path) as f:
        manifest = json.load(f)
    del manifest["wall_clock_s"]
    experiment = manifest["config"]["experiment"]
    experiment["out_dir"] = os.path.basename(experiment["out_dir"])
    manifest["outputs"] = {k: os.path.basename(v) for k, v in manifest["outputs"].items()}
    return hashlib.sha256(json.dumps(manifest, indent=1).encode()).hexdigest()


def run_cli(argv: list[str], log_path: str) -> tuple[int, list[str]]:
    """Run the CLI with its stdout discarded. Returns its exit code and every
    warning that it or a worker process it forks raises, as sorted lines:
    the worker processes inherit the recorder, which appends to ``log_path``."""
    with open(log_path, "a") as log, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")

        def record(message, category, filename, lineno, file=None, line=None):
            log.write(f"{category.__name__}: {message}\n")
            log.flush()

        warnings.showwarning = record
        code = cli_main(argv)
    with open(log_path) as f:
        return code, sorted(f.read().splitlines())


def run_matrix(work_dir: str) -> dict:
    """Every run at every worker count: digests keyed
    ``<workers>/<run>/<file>``, exit codes and warnings keyed ``<workers>/<run>``."""
    digests, exit_codes, warned = {}, {}, {}
    saved = os.environ.get("ENSTUNE_WORKERS")
    try:
        for workers in WORKERS:
            os.environ["ENSTUNE_WORKERS"] = workers
            for name, (command, extra) in RUNS.items():
                out = os.path.join(work_dir, f"workers{workers}", name)
                settings = [s for s in BASE if not (
                    s.startswith("ensemble.val_pct=")
                    and any(e.startswith("experiment.val_pcts=") for e in extra))]
                argv = [command, "--out", out]
                for item in settings + extra:
                    argv += ["--set", item]
                key = f"{workers}/{name}"
                exit_codes[key], warned[key] = run_cli(
                    argv, os.path.join(work_dir, f"workers{workers}-{name}.warnings"))
                for file in sorted(os.listdir(out)):
                    digests[f"{workers}/{name}/{file}"] = file_digest(
                        os.path.join(out, file))
    finally:
        if saved is None:
            os.environ.pop("ENSTUNE_WORKERS", None)
        else:
            os.environ["ENSTUNE_WORKERS"] = saved
    return {"environment": environment(), "exit_codes": exit_codes,
            "warnings": warned, "digests": digests}


COMPARED = ("exit_codes", "warnings", "digests")


def differences(ours: dict, theirs: dict) -> list[str]:
    """Each file or run whose digest, exit code or warnings differ, or that
    one side lacks. A run whose warnings differ is followed by the lines
    that only one side has, as often as it has them more: ``-`` for
    ``theirs``, ``+`` for ``ours``."""
    out = []
    for key in COMPARED:
        for name in sorted(ours[key].keys() | theirs[key].keys()):
            mine, other = ours[key].get(name), theirs[key].get(name)
            if mine == other:
                continue
            lines = [f"{key}: {name}"]
            if key == "warnings":
                mine, other = Counter(mine or []), Counter(other or [])
                lines += [f"  - {line}" for line in sorted((other - mine).elements())]
                lines += [f"  + {line}" for line in sorted((mine - other).elements())]
            out.append("\n".join(lines))
    return out


def at_workers(result: dict, workers: str) -> dict:
    """The exit codes, warnings and digests of one worker count, keyed without it."""
    return {key: {k.partition("/")[2]: v for k, v in result[key].items()
                  if k.partition("/")[0] == workers} for key in COMPARED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the digests here (default: stdout)")
    parser.add_argument("--compare", help="a digest file to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work_dir:
        result = run_matrix(work_dir)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    elif not args.compare:
        sys.stdout.write(text)
    problems = [f"1 vs 2 workers: {name}" for name in
                differences(at_workers(result, "1"), at_workers(result, "2"))]
    if args.compare:
        with open(args.compare) as f:
            theirs = json.load(f)
        problems += [f"differs from {args.compare}: {name}"
                     for name in differences(result, theirs)]
        if theirs["environment"] != result["environment"]:
            print(f"note: {args.compare} was taken on {theirs['environment']}, "
                  f"this run on {result['environment']}", file=sys.stderr)
    for line in problems:
        print(line, file=sys.stderr)
    if args.compare and not problems:
        print(f"all {len(result['digests'])} digests and the exit codes and "
              f"warnings of {len(result['exit_codes'])} runs match {args.compare}",
              file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
