"""enstune benchmark: drive one workload through the public API and print
its end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

    python3 bench/run.py --workload stopping --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all

Every measured run of the experiment is a fresh single-worker process
(``child.py``) fed a config generated from ``--seed``. Runs repeat until
``--seconds`` is spent; run times are means over runs, other figures are
medians. Every run's outputs are checked (see ``workloads.check_outputs``),
and all runs of one invocation, traced or not, must write byte-identical
``cells.csv`` and ``monitor.csv``. Metric names and units come from ``BENCHMARK.json``. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
PINNED_ENV = {"ENSTUNE_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COUNT_SUFFIXES = (".calls", ".rows", ".bytes", ".mflop_computed", ".objective_evals",
                  ".steps_executed", ".steps_distinct", ".useful_step_frac",
                  "trace.spans")


class BenchError(RuntimeError):
    """The benchmark could not measure at all (as opposed to a failed check)."""


def run_child(config_path: str, out_dir: str, mode: str) -> dict:
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), SRC, config_path,
         out_dir, mode],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return statistics.fmean(values) if values else None


def rebuilt_wall(runs) -> float | None:
    """Run time rebuilt from the fastest instance of each segment of a run.

    The shared host slows identical work by up to 60%, in bursts from under
    a second to minutes long, and never speeds it up. Whole runs often meet
    a burst, so the median, the mean and even the fastest of one
    invocation's run times move with how busy the host was. The segments
    (see ``child.PHASES``) last milliseconds and repeat identically in every
    run, so each one's fastest instance reads the program's own speed
    unless a burst hit that segment in every run.
    """
    segments = [r["segments_s"] for r in runs if "segments_s" in r]
    return sum(map(min, zip(*segments))) if segments else None


class Measurement:
    """The runs of one workload invocation and their checks."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.n_seeds = len(doc["experiment"]["seeds"])
        self.runs: list[dict] = []
        self.setup_s: list[float] = []
        self.problems: list[str] = []
        self.env: dict = {}
        self.counts: dict | None = None  # exact counts of the first traced run

    def record_setup(self, child: dict) -> None:
        if "setup_error" in child:
            raise BenchError(f"set-up failed:\n{child['setup_error']}")
        self.setup_s.append(child["setup_s"])
        self.env = child["env"]

    def record_run(self, child: dict, out_dir: str, traced: bool) -> None:
        self.record_setup(child)
        run = {"traced": traced, **child, **workloads.check_outputs(self.doc, out_dir)}
        shutil.rmtree(out_dir, ignore_errors=True)
        if "error" in run:
            run["problems"].append(f"run raised: {run['error']}")
        if self.runs:
            for key in ("cells_sha256", "monitor_sha256"):
                if run.get(key) != self.runs[0].get(key):
                    run["problems"].append(f"{key} differs from the first run's")
        first = next((r for r in self.runs if "segments_s" in r), None)
        if first and len(run.get("segments_s", first["segments_s"])) != len(
                first["segments_s"]):
            run["problems"].append("run has another number of segments than the first")
        if "layers" in run:
            counts = {k: v for k, v in run["layers"].items() if is_count(k)}
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                changed = sorted(k for k in counts if counts[k] != self.counts.get(k))
                run["problems"].append(f"traced counts differ between runs: {changed}")
        if run["problems"]:
            run["failed_seeds"] = self.n_seeds
            self.problems += run["problems"]
        self.runs.append(run)

    @property
    def attempted(self) -> int:
        return self.n_seeds * len(self.runs)

    @property
    def failed(self) -> int:
        return sum(run["failed_seeds"] for run in self.runs)

    def end_to_end(self) -> dict:
        plain = [r for r in self.runs if not r["traced"]]
        nll = median(_values(self.runs, "ens_test_nll"))
        wall = rebuilt_wall(plain)
        epochs = median(_values(plain, "member_epochs"))  # equal in every run
        return {
            "setup_s": median(self.setup_s),
            "wall_s": mean(_values(plain, "wall_s")),
            "fastest_wall_s": wall,
            "member_epochs_per_s": epochs / wall if epochs and wall else None,
            "peak_rss_mb": median(_values(plain, "peak_rss_mb")),
            "seed_ok_frac": 1.0 - self.failed / self.attempted,
            "ens_test_nll": nll,
            "ens_nll_vs_bayes": nll / self.runs[0]["test_bayes_nll"] if nll else None,
        }

    def per_layer(self) -> dict:
        traced = [r for r in self.runs if r["traced"] and "layers" in r]
        plain = [r for r in self.runs if not r["traced"]]
        out = {name: median([r["layers"][name] for r in traced])
               for name in (traced[0]["layers"] if traced else ())}
        for name in ("config.load_config.s", "data.build_dataset.s"):
            out[name] = median(_values(traced, name))
        out["experiments.manifest_bytes"] = median(_values(traced, "manifest_bytes"))
        traced_wall = mean(_values(traced, "wall_s"))
        plain_wall = mean(_values(plain, "wall_s"))
        out["trace.overhead_s"] = (traced_wall - plain_wall
                                   if traced_wall and plain_wall else None)
        return out


def _values(runs, key: str) -> list:
    return [r[key] for r in runs if r.get(key) is not None]


def is_count(name: str) -> bool:
    """Per-layer figures that must repeat exactly between traced runs."""
    return name.endswith(COUNT_SUFFIXES)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Measurement:
    """Run one workload for about ``seconds`` seconds and check every run."""
    doc = workloads.make_config(workload, seed, tiny=tiny)
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        config_path = os.path.join(work, "config.toml")
        with open(config_path, "w") as f:
            f.write(workloads.to_toml(doc))
        out_dir = os.path.join(work, "out")
        m = Measurement(doc)
        run_child(config_path, out_dir, "setup")  # fills caches; not measured
        started = time.perf_counter()
        # traced invocations alternate plain and traced runs, plain first
        modes = ["run", "trace"] if trace else ["run"]
        longest = 0.0
        while True:
            for mode in modes:
                t = time.perf_counter()
                m.record_run(run_child(config_path, out_dir, mode), out_dir,
                             mode == "trace")
                longest = max(longest, time.perf_counter() - t)
            if time.perf_counter() - started + longest * len(modes) > seconds:
                break
        while len(m.setup_s) < MIN_SETUP_SAMPLES:
            m.record_setup(run_child(config_path, out_dir, "setup"))
        return m
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another invocation is using it


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(m: Measurement, metric_specs, values: dict) -> dict:
    metrics = {}
    for spec in metric_specs:
        value = values.get(spec["name"])
        if value is None:
            raise BenchError(f"no value for metric {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": not m.problems, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    m = measure(workload, seed, seconds, trace)
    e2e = m.end_to_end()
    result = (result_line(m, spec["per_layer"], m.per_layer()) if trace
              else result_line(m, spec["end_to_end"], e2e))
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": {**m.env, "git_commit": git_commit()},
        "config": m.doc,
        "runs": [{k: r.get(k) for k in ("traced", "wall_s", "setup_s", "peak_rss_mb",
                                        "member_epochs", "cells_sha256",
                                        "monitor_sha256", "problems")}
                 for r in m.runs],
        "setup_samples_s": m.setup_s,
        "wall_s": e2e["wall_s"], "fastest_wall_s": e2e["fastest_wall_s"],
        "ens_test_nll": e2e["ens_test_nll"],
    }
    print(json.dumps({"detail": detail}))
    for name, metric in result["metrics"].items():
        print(f"{workload:10s} {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{workload:10s} correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} runs={len(m.runs)}")
    for problem in m.problems:
        print(f"{workload:10s} PROBLEM {problem}")
    return result


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "enstune", "__init__.py")):
        print(f"bench: no enstune sources under {SRC}", file=sys.stderr)
        return 2
    try:
        chosen = names if args.workload == "all" else [args.workload]
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in chosen}
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": metric for w, r in results.items()
                             for name, metric in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
