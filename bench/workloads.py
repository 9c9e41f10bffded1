"""The benchmark's workloads: configs generated from a workload seed, the
expected shape of their outputs, and the checks every run must pass.

All workloads are synthetic blobs (4 classes, noise 0.8, label noise 0.15)
with 4 members of hidden width [32], batch 128 and a single worker. The
workload seed sets ``task.data_seed`` and shifts the experiment seeds; the
program only ever sees the generated config file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

COMMON = {
    "task": {"kind": "blobs", "classes": 4, "noise": 0.8, "label_noise": 0.15},
    "model": {"hidden": [32]},
    "ensemble": {"members": 4},
    "stopping": {"batch_size": 128},
}

# Per workload: the sections that differ from COMMON, and how many
# experiment seeds one run of the experiment trains.
WORKLOADS = {
    "stopping": ({
        "task": {"n": 2000},
        "optimizer": {"kind": "adam", "lr": 0.01},
        "stopping": {"patience": 10, "max_epochs": 150},
        "experiment": {"kind": "early_stop",
                       "strategies": ["shared", "disjoint", "overlapping"],
                       "modes": ["individual", "joint"]},
    }, 1),
    "wd_grid": ({
        "task": {"n": 2000},
        "optimizer": {"kind": "sgd_momentum", "lr": 0.05},
        "stopping": {"max_epochs": 40},
        "experiment": {"kind": "wd_sweep",
                       "weight_decays": [0.0, 1e-4, 1e-3, 1e-2, 1e-1]},
    }, 1),
    "batchens": ({
        "task": {"n": 2000},
        "ensemble": {"val_pct": 0.1},
        "optimizer": {"kind": "adam", "lr": 0.01},
        "stopping": {"patience": 10, "max_epochs": 100},
        "experiment": {"kind": "batch_ensemble",
                       "schemes": ["gaussian_0.1", "gaussian_0.5", "random_sign"],
                       "strategies": ["shared", "overlapping"]},
    }, 1),
    "calibrate": ({
        "task": {"n": 12000},
        "optimizer": {"kind": "adam", "lr": 0.01},
        "stopping": {"max_epochs": 3},
        "experiment": {"kind": "temp_scale",
                       "strategies": ["shared", "overlapping"],
                       "modes": ["none", "individual", "joint", "pool"],
                       "val_pcts": [0.2, 0.4]},
    }, 1),
}

# A few-second version of every workload, for the benchmark's own tests.
TINY = {
    "task": {"n": 400},
    "stopping": {"max_epochs": 4, "patience": 2},
    "experiment": {"weight_decays": [0.0, 1e-2]},
}

METRIC_RANGES = {"error_pct": (0.0, 100.0), "ece": (0.0, 1.0),
                 "nll": (0.0, math.inf), "diversity": (-1e-12, math.inf)}


def _merge(*docs) -> dict:
    out: dict = {}
    for doc in docs:
        for section, values in doc.items():
            out.setdefault(section, {}).update(values)
    return out


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The config document of one workload under one workload seed."""
    sections, n_seeds = WORKLOADS[workload]
    doc = _merge(COMMON, sections, TINY if tiny else {})
    doc["task"]["data_seed"] = seed
    doc["experiment"]["seeds"] = [seed * n_seeds + i for i in range(n_seeds)]
    return doc


def _toml_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, list):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    return repr(v)


def to_toml(doc: dict) -> str:
    lines = []
    for section, values in doc.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_toml_value(v)}" for key, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def expected_rows(doc: dict) -> int:
    """Rows ``cells.csv`` must hold when every seed completes."""
    exp = doc["experiment"]
    seeds = len(exp["seeds"])
    members = doc["ensemble"]["members"]
    kind = exp["kind"]
    if kind == "early_stop":
        cells = sum(1 for s in exp["strategies"] for m in exp["modes"]
                    if not (s == "disjoint" and m == "joint"))
        return seeds * cells * 2  # ensemble and member_avg rows
    if kind == "wd_sweep":
        return seeds * len(exp["weight_decays"]) * members * 2  # every size, val+test
    if kind == "batch_ensemble":
        return seeds * len(exp["schemes"]) * len(exp["strategies"]) * 4
    if kind == "temp_scale":
        per_plan = sum(1 if m == "pool" else 2 for m in exp["modes"])
        return seeds * len(exp["strategies"]) * len(exp["val_pcts"]) * per_plan
    raise ValueError(f"no row count for experiment kind {kind!r}")


def member_epochs(doc: dict, manifest: dict) -> int:
    """Logical member-epochs behind the run's outputs.

    Stopping kinds count the epochs in each stop history (a joint or
    BatchEnsemble history covers every member); fixed-budget kinds count
    members x max_epochs per trained cell.
    """
    members = doc["ensemble"]["members"]
    kind = doc["experiment"]["kind"]
    total = 0
    for run in manifest["runs"]:
        if kind in ("temp_scale", "wd_sweep"):
            if not run.get("diverged", False):
                total += members * doc["stopping"]["max_epochs"]
        elif kind == "batch_ensemble" or run["mode"] == "joint":
            total += members * len(run["stops"][0]["history"])
        else:
            total += sum(len(stop["history"]) for stop in run["stops"])
    return total


def file_digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_outputs(doc: dict, out_dir: str) -> dict:
    """Check one run's outputs; returns problems, digests and derived figures."""
    problems = []
    manifest_path = os.path.join(out_dir, "manifest.json")
    cells_path = os.path.join(out_dir, "cells.csv")
    if not (os.path.exists(manifest_path) and os.path.exists(cells_path)):
        return {"problems": ["run wrote no manifest.json or cells.csv"],
                "failed_seeds": len(doc["experiment"]["seeds"])}
    with open(manifest_path) as f:
        manifest = json.load(f)
    failures = manifest["failures"]
    if failures:
        problems.append(f"{len(failures)} seeds failed: {failures[0]['error']}")
    with open(cells_path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != expected_rows(doc):
        problems.append(f"cells.csv has {len(rows)} rows, expected {expected_rows(doc)}")
    out_of_range = [f"row {i}: {name}={row[name]} outside [{lo}, {hi}]"
                    for i, row in enumerate(rows)
                    for name, (lo, hi) in METRIC_RANGES.items()
                    if not lo <= float(row[name]) <= hi]
    if out_of_range:
        problems.append(f"cells.csv has {len(out_of_range)} values out of range, "
                        f"first {out_of_range[0]}")
    test_nlls = []
    for row in rows:
        if row["scope"] == "ensemble" and row["split"] == "test":
            test_nlls.append(float(row["nll"]))
    if not test_nlls:
        problems.append("cells.csv has no ensemble-scope test rows")
    n_seeds = len(doc["experiment"]["seeds"])
    return {
        "problems": problems,
        "failed_seeds": n_seeds if problems else 0,
        "cells_sha256": file_digest(cells_path),
        "monitor_sha256": file_digest(os.path.join(out_dir, "monitor.csv")),
        "member_epochs": member_epochs(doc, manifest),
        "ens_test_nll": sum(test_nlls) / len(test_nlls) if test_nlls else None,
        "manifest_bytes": os.path.getsize(manifest_path),
    }
