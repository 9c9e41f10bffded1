"""The benchmark's own tests, kept out of the repository's test suite.

    python3 -m pytest -q bench/selftest.py
"""

import csv
import inspect
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    trace = [
        ["training.train_ensemble", 0.0, 10.0, -1],
        ["training.train_member", 1.0, 9.0, 0],
        ["netcore.loss_and_grad", 2.0, 5.0, 1],
        ["netcore.log_softmax", 3.0, 4.0, 2],
        ["metrics.nll", 6.0, 7.0, 1],
        ["netcore.opt_step", 7.5, 8.5, 0],
    ]
    by_name, by_layer = spans.summarize(trace)
    # same-layer helpers fold into their caller; other layers are subtracted
    assert by_name["netcore.loss_and_grad"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert by_name["netcore.log_softmax"]["self_s"] == 1.0
    assert by_name["training.train_member"]["self_s"] == 8.0 - 3.0 - 1.0
    assert by_name["training.train_ensemble"]["self_s"] == 10.0 - 3.0 - 1.0 - 1.0
    assert by_layer == {"training": 5.0, "netcore": 4.0, "metrics": 1.0}
    assert sum(by_layer.values()) == 10.0  # layers partition the outermost span


def test_repeated_calls_add_up():
    trace = [["metrics.nll", 0.0, 1.0, -1], ["metrics.nll", 2.0, 4.0, -1]]
    by_name, by_layer = spans.summarize(trace)
    assert by_name["metrics.nll"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert by_layer == {"metrics": 3.0}


def _package_modules():
    import importlib

    return {name: importlib.import_module(f"enstune.{name}")
            for name in spans.LAYERS + ("cli",)}


def _functions(modules):
    return {(name, attr): obj for name, mod in modules.items()
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_wrappers_keep_signatures_and_restore_originals():
    import numpy as np

    modules = _package_modules()
    training, splits = modules["training"], modules["splits"]
    before = _functions(modules)
    step_before = modules["netcore"].Optimizer.step
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(120, 2)), rng.integers(0, 3, size=120)
    plan = splits.make_shared(120, 0.2, 2, 0, y)
    call = dict(plan=plan, dims=[2, 8, 3], opt_cfg=training.OptimizerConfig(lr=0.01),
                stop_cfg=training.StoppingConfig(mode="joint", max_epochs=3),
                base_seed=5)
    plain = training.train_ensemble(x, y, **call)

    tracer = spans.Tracer()
    with tracer.installed(modules):
        wrapped = _functions(modules)
        changed = [key for key in before if wrapped[key] is not before[key]]
        assert ("netcore", "loss_and_grad") in changed
        assert ("training", "loss_and_grad") in changed  # aliases are rebound too
        for key in changed:
            assert wrapped[key].__wrapped__ is before[key]
            assert inspect.signature(wrapped[key]) == inspect.signature(before[key])
        assert modules["netcore"].Optimizer.step is not step_before
        traced = modules["training"].train_ensemble(x, y, **call)

    assert all(_functions(modules)[k] is v for k, v in before.items())
    assert modules["netcore"].Optimizer.step is step_before
    for a, b in zip(plain.members, traced.members):
        for pa, pb in zip(a.params.arrays(), b.params.arrays()):
            np.testing.assert_array_equal(pa, pb)
    steps = sum(m.steps for m in traced.members)
    by_name, _ = spans.summarize(tracer.spans)
    assert by_name["netcore.loss_and_grad"]["calls"] == steps
    assert by_name["netcore.opt_step"]["calls"] == steps
    assert tracer.counts["training.steps_executed"] == steps == tracer.steps_distinct()


def test_rebuilt_wall_takes_each_segments_fastest_instance():
    runs = [{"segments_s": [1.0, 5.0, 2.0]}, {"segments_s": [3.0, 2.0, 2.5]},
            {"traced": True}]
    assert run.rebuilt_wall(runs) == 1.0 + 2.0 + 2.0
    assert run.rebuilt_wall([]) is None


def _write_outputs(out_dir, doc, rows, failures=()):
    os.makedirs(out_dir, exist_ok=True)
    header = ["experiment", "variant", "wd", "split", "scope", "strategy", "val_pct",
              "seed", "ensemble_size", "error_pct", "nll", "ece", "diversity",
              "entropy", "normalized_epochs"]
    with open(os.path.join(out_dir, "cells.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for nll in rows:
            w.writerow(["temp_scale", "none", "", "test", "ensemble", "shared", 0.2,
                        0, 4, 25.0, nll, 0.05, 0.01, 0.9, ""])
    runs = [{"strategy": "shared"}] * 4
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump({"failures": list(failures), "runs": runs}, f)
    return str(out_dir)


def test_output_check_flags_bad_runs(tmp_path):
    doc = workloads.make_config("calibrate", 0, tiny=True)
    n = workloads.expected_rows(doc)
    good = workloads.check_outputs(doc, _write_outputs(tmp_path / "a", doc, [0.7] * n))
    assert good["problems"] == [] and good["failed_seeds"] == 0
    assert good["ens_test_nll"] == pytest.approx(0.7)

    cases = {
        "b": ([0.7] * (n - 1), ()),                      # a missing row
        "c": ([0.7] * (n - 1) + [-0.1], ()),             # a negative NLL
        "d": ([0.7] * n, ({"seed": 1, "error": "ValueError: boom"},)),
    }
    for name, (rows, failures) in cases.items():
        checked = workloads.check_outputs(doc, _write_outputs(tmp_path / name, doc,
                                                              rows, failures))
        assert checked["problems"], name
        assert checked["failed_seeds"] == len(doc["experiment"]["seeds"])
    assert workloads.check_outputs(doc, str(tmp_path / "missing"))["problems"]


def test_seed_shifts_data_and_experiment_seeds():
    a, b = workloads.make_config("stopping", 0), workloads.make_config("stopping", 1)
    assert a["task"]["data_seed"] != b["task"]["data_seed"]
    assert not set(a["experiment"]["seeds"]) & set(b["experiment"]["seeds"])
    assert workloads.make_config("stopping", 1) == b


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(workload):
    spec = run.load_spec()
    m = run.measure(workload, seed=1, seconds=0, trace=True, tiny=True)
    assert m.problems == []
    assert [r["traced"] for r in m.runs] == [False, True]
    assert m.runs[0]["cells_sha256"] == m.runs[1]["cells_sha256"]
    assert sum(m.runs[0]["segments_s"]) == pytest.approx(m.runs[0]["wall_s"])
    assert m.failed == 0 and m.attempted == 2 * len(m.doc["experiment"]["seeds"])
    e2e, layers = m.end_to_end(), m.per_layer()
    assert all(e2e[s["name"]] for s in spec["end_to_end"])
    assert {s["name"] for s in spec["per_layer"]} <= set(layers)
    if workload == "batchens":
        assert layers["netcore.loss_and_grad.calls"] == 0
        assert layers["batchensemble.be_loss_and_grads.calls"] > 0
    else:
        assert layers["netcore.loss_and_grad.calls"] == layers["training.steps_executed"]
