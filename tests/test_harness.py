"""Tests for config parsing, datasets, experiment runners and reporting."""

import csv
import glob
import json
import os
import re

import numpy as np
import pytest

from enstune import config, experiments, metrics
from enstune.cli import EXPERIMENT_COMMANDS
from enstune.cli import main as cli_main
from enstune.config import (
    DOTTED_KEYS,
    ConfigError,
    ExperimentConfig,
    TaskSection,
    load_config,
    parse_scalar,
    parse_toml,
)
from enstune.data import (
    DataFormatError,
    Standardizer,
    load_csv,
    make_blobs,
    make_spirals,
    make_task,
    save_csv,
    train_test_split,
)
from enstune.experiments import (
    ExperimentError,
    aggregate_rows,
    build_dataset,
    make_row,
    parse_scheme,
    run_experiment,
)
from enstune.netcore import NonFiniteLossError, Optimizer
from enstune.splits import SHARED, MemberSplit, SplitPlan
from enstune.training import OptimizerConfig, StoppingConfig, train_ensemble


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "*.toml")))
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

BASE = ["task.n=360", "task.classes=3", "task.noise=0.8", "task.label_noise=0.1",
        "model.hidden=[8]", "ensemble.members=3", "ensemble.val_pct=0.1",
        "experiment.seeds=[0,1]", "stopping.max_epochs=6", "stopping.patience=3",
        "stopping.batch_size=64"]


# The bad configs TestCli rejects: (command, extra settings, text that stderr
# must hold, naming the case's own key or reason). A case's test id is
# <command>-extra<index>, so new cases are appended to keep the old ids.
BAD_CONFIGS = [
    ("early-stop", ['experiment.modes=["individual","sometimes"]'], "sometimes"),
    ("temp-scale", ['experiment.modes=["none","sometimes"]'], "sometimes"),
    ("batch-ensemble", ['experiment.schemes=["random_sign","uniform_0.1"]'],
     "uniform_0.1"),
    ("early-stop", ['experiment.strategies=["shared","disjoint"]', "ensemble.members=4",
                    "ensemble.val_pct=0.3"], "disjoint validation sets"),
    ("sweep-wd", ["experiment.weight_decays=[0.001,0.01]"], "must include 0"),
    ("early-stop", ["stopping.patience=0"], "stopping.patience=0 must be >= 1"),
    ("early-stop", ["stopping.batch_size=0"], "stopping.batch_size=0 must be >= 1"),
    ("early-stop", ["stopping.max_epochs=0"], "stopping.max_epochs=0 must be >= 1"),
    ("early-stop", ["optimizer.kind=rmsprop"], "rmsprop"),
    ("sweep-wd", ["optimizer.kind=rmsprop"], "rmsprop"),
    ("batch-ensemble", ["optimizer.kind=rmsprop"], "rmsprop"),
    ("early-stop", ["optimizer.weight_decay=-0.1"],
     "optimizer.weight_decay=-0.1 must be >= 0"),
    ("sweep-wd", ["stopping.patience=0"], "stopping.patience=0 must be >= 1"),
    ("early-stop", ["task.n=3", "task.classes=4"],
     "task.classes=4 with task.n=3: blobs need at least 2 classes and one sample per class"),
    ("early-stop", ["task.test_fraction=0"], "task.test_fraction=0.0 must be in (0, 1)"),
    ("early-stop", ["optimizer.lr=-0.1"], "optimizer.lr=-0.1 must be >= 0"),
    ("early-stop", ["experiment.ece_bins=0"], "experiment.ece_bins=0 must be >= 1"),
    ("sweep-wd", ["experiment.ensemble_sizes=[5]", "ensemble.members=4"],
     "exceed ensemble.members"),
    ("sweep-wd", ["experiment.ensemble_sizes=[0,2]"], "ensemble sizes must be >= 1"),
    ("early-stop", ["task.test_fraction=1.5"], "task.test_fraction=1.5 must be in (0, 1)"),
    ("early-stop", ["task.test_fraction=-0.2"], "task.test_fraction=-0.2 must be in (0, 1)"),
    ("sweep-wd", ["experiment.seeds=[0.5]"], "experiment.seeds[0]"),
    ("sweep-wd", ['experiment.seeds=["a"]'], "experiment.seeds[0]"),
    ("sweep-wd", ["experiment.seeds=[true]"], "experiment.seeds[0]"),
    ("sweep-wd", ['experiment.weight_decays=["x"]'], "experiment.weight_decays[0]"),
    ("sweep-wd", ['experiment.val_pcts=["x"]'], "experiment.val_pcts[0]"),
    ("sweep-wd", ["model.hidden=[1.5]"], "model.hidden[0]"),
    ("sweep-wd", ["experiment.ensemble_sizes=[1.5]"], "experiment.ensemble_sizes[0]"),
    ("early-stop", ["model.hidden=[0]"], "model.hidden widths"),
    ("early-stop", ["model.hidden=[-1]"], "model.hidden widths"),
    ("early-stop", ["experiment.seeds=[0,-1]"], "experiment.seeds must be >= 0"),
    ("early-stop", ["optimizer.lr=.5"], "optimizer.lr"),
    ("early-stop", ["experiment.strategies=[]"], "experiment.strategies is empty"),
    ("temp-scale", ["experiment.modes=[]"], "experiment.modes is empty"),
    ("batch-ensemble", ["experiment.schemes=[]"], "experiment.schemes is empty"),
    ("early-stop", ['experiment.strategies=["disjoint"]', 'experiment.modes=["joint"]'],
     "pair only disjoint with joint"),
    ("early-stop", ["task.label_noise=2"], "task.label_noise=2.0 must be in [0, 1)"),
    ("early-stop", ["task.label_noise=1"], "task.label_noise=1.0 must be in [0, 1)"),
    ("early-stop", ["task.label_noise=-0.1"], "task.label_noise=-0.1 must be in [0, 1)"),
    ("early-stop", ["ensemble.strategy=disjoint"], "ensemble.strategy"),
    ("stop-then-scale", ['experiment.strategies=["disjoint"]',
                         "experiment.val_pcts=[0.1,0.3]"], "disjoint strategy precludes"),
    ("stop-then-scale", ['experiment.strategies=["shared","disjoint"]'],
     "disjoint strategy precludes"),
    ("stop-then-scale", ["experiment.strategies=[]"], "experiment.strategies is empty"),
    ("sweep-wd", ['experiment.strategies=["overlapping"]', "experiment.val_pcts=[0.3]",
                  'experiment.modes=["joint"]'], "experiment.modes"),
    ("sweep-wd", ['experiment.strategies=["overlapping"]'],
     "one shared holdout at one val_pct"),
    ("sweep-wd", ['experiment.strategies=["shared","overlapping"]'],
     "one shared holdout at one val_pct"),
    ("sweep-wd", ["experiment.val_pcts=[0.1,0.3]"], "one shared holdout at one val_pct"),
    ("sweep-wd", ['experiment.modes=["joint"]'], "experiment.modes"),
    ("batch-ensemble", ['experiment.modes=["individual"]'], "experiment.modes"),
    ("stop-then-scale", ['experiment.modes=["joint"]'], "experiment.modes"),
    ("early-stop", ["task.kind=spirals", "task.classes=4", "task.label_noise=0.4",
                    "task.radius=9"], "task.radius"),
    ("early-stop", ["task.kind=spirals", "task.classes=4", "task.label_noise=0",
                    "task.radius=9"], "task.radius"),
    ("early-stop", ["optimizer.momentum=0.1"], "optimizer.momentum"),
    ("batch-ensemble", ["optimizer.kind=adam", "optimizer.momentum=0.5"],
     "optimizer.momentum"),
    ("early-stop", ['experiment.schemes=["bogus"]'], "experiment.schemes"),
    ("temp-scale", ['experiment.schemes=["random_sign"]'], "experiment.schemes"),
    ("early-stop", ["experiment.ensemble_sizes=[1,2]"], "experiment.ensemble_sizes"),
    ("batch-ensemble", ["experiment.ensemble_sizes=[2]"], "experiment.ensemble_sizes"),
    ("stop-then-scale", ["experiment.ensemble_sizes=[1]"], "experiment.ensemble_sizes"),
    ("early-stop", ["experiment.seeds=[0,0]"], "experiment.seeds repeats"),
    ("sweep-wd", ["experiment.seeds=[1,0,1]"], "experiment.seeds repeats"),
    ("early-stop", ['experiment.modes=["joint","individual","joint"]'],
     "experiment.modes repeats"),
    ("temp-scale", ['experiment.modes=["none","pool","none"]'],
     "experiment.modes repeats"),
    ("early-stop", ['experiment.strategies=["shared","overlapping","shared"]'],
     "experiment.strategies repeats"),
    ("batch-ensemble", ['experiment.schemes=["random_sign","random_sign"]'],
     "experiment.schemes repeats"),
    ("temp-scale", ["experiment.val_pcts=[0.1,0.2,0.1]"], "experiment.val_pcts repeats"),
    ("sweep-wd", ["experiment.ensemble_sizes=[1,3,3]"],
     "experiment.ensemble_sizes repeats"),
    ("sweep-wd", ["optimizer.weight_decay=0.5"], "optimizer.weight_decay"),
    ("early-stop", ["ensemble.val_pct=0.3", "experiment.val_pcts=[0.1]"],
     "ensemble.val_pct"),
    ("early-stop", ["optimizer.decay_bias=true"], "optimizer.decay_bias"),
    ("batch-ensemble", ["optimizer.decay_bias=true"], "optimizer.decay_bias"),
    ("sweep-wd", ["experiment.weight_decays=[0.0]", "optimizer.decay_bias=true"],
     "optimizer.decay_bias"),
    ("early-stop", ["task.classes=1"], "task.classes=1 with task.n="),
    ("early-stop", ["task.kind=spirals", "task.classes=4", "task.label_noise=0",
                    "task.n=1"],
     "task.n=1: spirals need at least 2 samples"),
    ("temp-scale", ["optimizer.lr=nan"], "optimizer.lr=nan must be >= 0"),
]


def base_for(extra):
    """BASE for a run that adds ``extra``: an experiment.val_pcts there replaces
    BASE's ensemble.val_pct, which a run with val_pcts does not read."""
    if any(item.startswith("experiment.val_pcts=") for item in extra):
        return [item for item in BASE if not item.startswith("ensemble.val_pct=")]
    return BASE


def quick_config(out_dir, extra):
    return load_config(None, base_for(extra) + [f"experiment.out_dir={out_dir}"] + extra)


class TestConfig:
    def test_scalar_parsing(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("0.5") == 0.5
        assert parse_scalar("true") is True
        assert parse_scalar('"shared"') == "shared"
        assert parse_scalar("[1, 2, 3]") == [1, 2, 3]
        assert parse_scalar('["a", "b"]') == ["a", "b"]
        with pytest.raises(ConfigError):
            parse_scalar("bare_word")

    def test_toml_sections_and_comments(self):
        doc = parse_toml("""
        # header comment
        [task]
        kind = "blobs"   # trailing comment
        n = 100

        [experiment]
        seeds = [0, 1]
        """)
        assert doc["task"]["kind"] == "blobs"
        assert doc["task"]["n"] == 100
        assert doc["experiment"]["seeds"] == [0, 1]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(None, ["task.banana=1"])
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(None, ["nosuch.key=1"])

    def test_overrides_apply_in_order(self):
        cfg = load_config(None, ["task.n=100", "task.n=250"])
        assert cfg.task.n == 250

    def test_int_to_float_coercion(self):
        cfg = load_config(None, ["task.noise=2"])
        assert cfg.task.noise == 2.0

    def test_unknown_experiment_kind_fails_before_training(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            load_config(None, ["experiment.kind=mystery"])

    def test_reads_table_classifies_every_key_and_kind(self, tmp_path):
        # a new key or kind must take a place in the table before a run can
        # set it, so the unread-key check cannot be bypassed
        places = {}  # key -> the parts of the table that classify it
        for part, keys in [("always", config._ALWAYS_READ), ("when", config._READ_WHEN)] + [
                (selector, {k for keys in rows.values() for k in keys})
                for selector, rows in config._READS.items()]:
            for key in keys:
                places.setdefault(key, []).append(part)
        assert sorted(places) == sorted(DOTTED_KEYS)
        assert {key: p for key, p in places.items() if len(p) > 1} == {}
        assert set(config._UNCHECKED) <= set(places)
        kinds = config._READS
        assert set(kinds["experiment.kind"]) == set(experiments._KINDS)
        assert set(kinds["experiment.kind"]) == set(EXPERIMENT_COMMANDS.values())
        assert set(kinds["optimizer.kind"]) == set(Optimizer.KINDS)
        save_csv(make_blobs(20, 2, 1.0, np.random.default_rng(0)), str(tmp_path / "d.csv"))
        for kind in kinds["task.kind"]:
            assert len(make_task(TaskSection(kind=kind, n=20, path=str(tmp_path / "d.csv"))))
        with pytest.raises(ConfigError, match="unknown task kind"):
            make_task(TaskSection(kind="moons"))

    def test_method_names_are_not_sections(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(None, ["validate.x=1"])

    def test_override_value_holds_one_key(self):
        with pytest.raises(ConfigError):
            parse_scalar("1\n[x]")

    def test_toml_multiline_arrays_literal_strings_dotted_keys(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text(
            "task.n = 500\n"
            "task.kind = 'spirals'\n"
            "\n"
            "[experiment]\n"
            "seeds = [\n"
            "    0,\n"
            "    1,  # trailing comma\n"
            "]\n"
            "out_dir = 'runs\\demo'\n")
        cfg = load_config(str(path))
        assert (cfg.task.n, cfg.task.kind) == (500, "spirals")
        assert cfg.experiment.seeds == [0, 1]
        assert cfg.experiment.out_dir == "runs\\demo"

    def test_override_into_top_level_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text("task = 5\n")
        with pytest.raises(ConfigError, match="must hold key = value pairs"):
            load_config(str(path), ["task.n=100"])

    @pytest.mark.parametrize("text, line", [
        ("[optimizer]\nlr = .5\n", 2),
        ("[task]\nn = 100\nn = 200\n", 3),
        ("[task]\nn = 100\n[task]\nclasses = 3\n", 3),
    ], ids=["bare-fraction", "repeated-key", "repeated-section"])
    def test_non_toml_file_rejected(self, tmp_path, text, line):
        path = tmp_path / "cfg.toml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"cfg\.toml: .*\(at line {line}, column"):
            load_config(str(path))
        out = tmp_path / "run"
        assert cli_main(["early-stop", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


class TestData:
    def test_blobs_separable_when_noiseless(self):
        ds = make_blobs(120, 2, 0.0, np.random.default_rng(0))
        plan = SplitPlan(SHARED, 120, [MemberSplit(np.arange(100), np.arange(100, 120))])
        (member,) = train_ensemble(ds.x, ds.y, plan, [2, 2], OptimizerConfig(lr=0.1),
                                   StoppingConfig(max_epochs=40, batch_size=32),
                                   0).members
        from enstune.training import member_probs
        err = metrics.classification_error(member_probs(member, ds.x), ds.y)
        assert err == 0.0

    def test_blobs_label_noise_rate(self):
        rng = np.random.default_rng(1)
        clean = make_blobs(5000, 4, 0.0, np.random.default_rng(2))
        noisy = make_blobs(5000, 4, 0.0, np.random.default_rng(2), label_noise=0.2)
        assert clean.x.shape == noisy.x.shape
        flipped = (clean.y != noisy.y).mean()
        assert 0.15 < flipped < 0.25

    def test_spirals_two_classes(self):
        ds = make_spirals(300, 0.1, np.random.default_rng(3))
        assert ds.n_classes == 2
        assert set(np.unique(ds.y)) == {0, 1}

    @pytest.mark.parametrize("task, key", [
        (TaskSection(kind="spirals", label_noise=0.4, radius=9.0), "task.radius"),
        (TaskSection(kind="spirals", classes=3), "task.classes"),
        (TaskSection(kind="csv", path="ds.csv", n=100), "task.n"),
        (TaskSection(kind="blobs", label_col="y"), "task.label_col"),
    ])
    def test_task_key_the_kind_ignores_rejected(self, task, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(task=task).validate()

    def test_stratified_split_counts(self):
        ds = make_blobs(1000, 4, 2.0, np.random.default_rng(4))
        rest, test = train_test_split(ds, 0.2, seed=5)
        assert len(test) == 200
        for c in range(4):
            frac_all = (ds.y == c).mean()
            frac_test = (test.y == c).mean()
            assert abs(frac_test - frac_all) < 0.01

    def test_csv_round_trip(self, tmp_path):
        ds = make_blobs(50, 3, 0.7, np.random.default_rng(6))
        path = str(tmp_path / "ds.csv")
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.x, ds.x)
        assert np.array_equal(loaded.y, ds.y)
        assert loaded.n_classes == ds.n_classes

    def test_csv_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(str(path))

    def test_csv_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nspam,0\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_csv(str(path))

    def test_standardizer_fit_transform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3.0, 2.5, size=(200, 4))
        z = Standardizer.fit(x)(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12

    def test_standardizer_constant_feature(self):
        x = np.ones((10, 2))
        z = Standardizer.fit(x)(x)
        assert np.isfinite(z).all()


class TestAggregation:
    def make_record(self, seed, nll):
        return metrics.MetricsRecord(strategy="shared", val_pct=0.1, seed=seed,
                                     ensemble_size=4, error_pct=10.0, nll=nll,
                                     ece=0.01, diversity=0.1, entropy=0.5,
                                     normalized_epochs=None)

    def test_mean_and_sem_hand_check(self):
        vals = [0.5, 0.7, 0.6]
        rows = [make_row("early_stop", "joint", None, "test", "ensemble",
                         self.make_record(s, v)) for s, v in enumerate(vals)]
        header, agg, _, _ = aggregate_rows(rows)
        assert len(agg) == 1
        n_idx = header.index("n")
        nll_idx = header.index("nll_mean")
        assert agg[0][n_idx] == 3
        mean, sem = metrics.mean_sem(vals)
        assert agg[0][nll_idx] == pytest.approx(mean, abs=1e-12)
        assert agg[0][header.index("nll_sem")] == pytest.approx(sem, abs=1e-12)

    def test_single_seed_has_sem_zero_with_n_flag(self):
        rows = [make_row("early_stop", "joint", None, "test", "ensemble",
                         self.make_record(0, 0.4))]
        header, agg, _, _ = aggregate_rows(rows)
        assert agg[0][header.index("n")] == 1
        assert agg[0][header.index("nll_sem")] == 0.0

    def test_constant_metric_sem_zero(self):
        rows = [make_row("early_stop", "joint", None, "test", "ensemble",
                         self.make_record(s, 0.42)) for s in range(10)]
        header, agg, _, _ = aggregate_rows(rows)
        assert agg[0][header.index("nll_sem")] == 0.0

    def test_scheme_parsing(self):
        assert parse_scheme("random_sign") == ("random_sign", 0.0)
        assert parse_scheme("gaussian_0.5") == ("gaussian", 0.5)
        with pytest.raises(ConfigError):
            parse_scheme("uniform_0.1")


class TestExperiments:
    def test_early_stop_schema(self, tmp_path):
        out = str(tmp_path / "es")
        cfg = quick_config(out, [
            "experiment.kind=early_stop",
            'experiment.strategies=["shared","disjoint","overlapping"]',
            'experiment.modes=["individual","joint"]'])
        manifest = run_experiment(cfg)
        with open(os.path.join(out, "cells.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0] == experiments.ROW_COLUMNS
        combos = {(r[1], r[5]) for r in rows[1:]}
        assert ("joint", "disjoint") not in combos  # precluded by the strategy
        assert ("individual", "disjoint") in combos
        assert ("joint", "overlapping") in combos
        assert manifest["failures"] == []

    def test_temp_scale_emits_fits(self, tmp_path):
        out = str(tmp_path / "ts")
        cfg = quick_config(out, [
            "experiment.kind=temp_scale",
            'experiment.strategies=["shared"]',
            'experiment.modes=["none","individual","joint","pool"]',
            "optimizer.kind=sgd_momentum", "optimizer.lr=0.05"])
        manifest = run_experiment(cfg)
        fits = manifest["runs"][0]["fits"]
        assert [f["mode"] for f in fits] == ["individual", "joint", "pool"]
        for f in fits:
            assert f["iterations"] <= 100

    def test_temp_scale_joint_on_disjoint_rejected_before_training(self, tmp_path):
        cfg = quick_config(str(tmp_path / "x"), [
            "experiment.kind=temp_scale",
            'experiment.strategies=["disjoint"]',
            'experiment.modes=["joint"]'])
        with pytest.raises(ConfigError, match="disjoint"):
            run_experiment(cfg)

    def test_stop_then_scale_paired_rows(self, tmp_path):
        out = str(tmp_path / "sts")
        cfg = quick_config(out, ["experiment.kind=stop_then_scale"])
        run_experiment(cfg)
        with open(os.path.join(out, "cells.csv")) as f:
            rows = list(csv.reader(f))[1:]
        variants = sorted({r[1] for r in rows})
        assert variants == ["joint_scale", "none"]
        seeds_by_variant = {v: sorted(r[7] for r in rows if r[1] == v)
                            for v in variants}
        assert seeds_by_variant["none"] == seeds_by_variant["joint_scale"]

    def test_wd_sweep_summary_and_definitional_check(self, tmp_path):
        out = str(tmp_path / "wd")
        cfg = quick_config(out, [
            "experiment.kind=wd_sweep",
            "experiment.weight_decays=[0.0,0.01]",
            "optimizer.kind=sgd_momentum", "optimizer.lr=0.05"])
        manifest = run_experiment(cfg)
        summary = manifest["summary"]
        assert summary["h_ind"] in (0.0, 0.01)
        assert summary["h_ens"] in (0.0, 0.01)
        with open(os.path.join(out, "summary.json")) as f:
            assert json.load(f) == summary

    def test_batch_ensemble_leakage_rows(self, tmp_path):
        out = str(tmp_path / "be")
        cfg = quick_config(out, [
            "experiment.kind=batch_ensemble",
            'experiment.strategies=["overlapping"]',
            'experiment.schemes=["random_sign"]',
            "experiment.seeds=[0]"])
        run_experiment(cfg)
        with open(os.path.join(out, "cells.csv")) as f:
            rows = list(csv.reader(f))[1:]
        splits = sorted({r[3] for r in rows if r[4] == "member_avg"})
        assert splits == ["test", "train", "val"]

    def test_monitor_log_schema(self, tmp_path):
        out = str(tmp_path / "mon")
        cfg = quick_config(out, ["experiment.kind=early_stop",
                                 'experiment.strategies=["shared"]',
                                 "experiment.seeds=[0]"])
        run_experiment(cfg)
        with open(os.path.join(out, "monitor.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0] == experiments.MONITOR_HEADER
        member_ids = {r[6] for r in rows[1:]}
        assert "ensemble" in member_ids  # joint runs log the ensemble score
        assert "0" in member_ids         # individual runs log per-member scores
        assert all(r[7] == "val" for r in rows[1:])

    def test_manifest_rerun_bit_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        cfg = quick_config(out_a, ["experiment.kind=early_stop",
                                   'experiment.strategies=["shared"]'])
        run_experiment(cfg)
        out_b = str(tmp_path / "b")
        experiments.rerun_from_manifest(os.path.join(out_a, "manifest.json"), out_b)
        for name in ("cells.csv", "aggregate.csv", "plotdata.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, \
                 open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_rerun_drops_retired_strategy_key(self, tmp_path):
        out_a = tmp_path / "a"
        run_experiment(quick_config(str(out_a), ["experiment.kind=early_stop",
                                                 'experiment.strategies=["shared"]',
                                                 "experiment.seeds=[0]"]))
        manifest_path = out_a / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["ensemble"]["strategy"] = "shared"  # as older runs wrote
        manifest_path.write_text(json.dumps(manifest, indent=1))
        out_b = tmp_path / "b"
        with pytest.warns(UserWarning, match="ensemble.strategy"):
            experiments.rerun_from_manifest(str(manifest_path), str(out_b))
        for name in ("cells.csv", "monitor.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        rerun = json.loads((out_b / "manifest.json").read_text())
        assert "strategy" not in rerun["config"]["ensemble"]

    def test_seed_failure_flushes_partial_results(self, tmp_path, monkeypatch):
        out = str(tmp_path / "fail")
        cfg = quick_config(out, ["experiment.kind=early_stop",
                                 'experiment.strategies=["shared","overlapping"]',
                                 "experiment.seeds=[0,1]"])
        real_cells, finish = experiments._KINDS["early_stop"]

        def flaky(cfg, dprime, test, seed, plan, job):
            if seed == 1 and job.strategy == "overlapping":  # seed 1's second job
                raise RuntimeError("boom")
            return real_cells(cfg, dprime, test, seed, plan, job)

        monkeypatch.setitem(experiments._KINDS, "early_stop", (flaky, finish))
        with pytest.raises(ExperimentError, match="1 of 2 seeds"):
            run_experiment(cfg)
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        (failure,) = manifest["failures"]
        assert 'raise RuntimeError("boom")' in failure.pop("traceback")
        assert failure == {"seed": 1, "error": "RuntimeError: boom"}
        # seed 1's first job succeeded, but a failed seed writes nothing
        assert [(r["seed"], r["strategy"], r["mode"]) for r in manifest["runs"]] == [
            (0, s, m) for s in ("shared", "overlapping") for m in ("individual", "joint")]
        with open(os.path.join(out, "cells.csv")) as f:
            rows = list(csv.reader(f))[1:]
        assert len(rows) == 8 and {r[7] for r in rows} == {"0"}

    def test_worker_failure_records_the_remote_traceback(self, tmp_path,
                                                        monkeypatch):
        out = str(tmp_path / "fail")
        cfg = quick_config(out, ["experiment.kind=early_stop", "experiment.seeds=[0,1]"])
        real_cells, finish = experiments._KINDS["early_stop"]

        def flaky_in_worker(cfg, dprime, test, seed, plan, job):
            if seed == 1:
                raise RuntimeError(f"boom in pid {os.getpid()}")
            return real_cells(cfg, dprime, test, seed, plan, job)

        monkeypatch.setitem(experiments._KINDS, "early_stop", (flaky_in_worker, finish))
        monkeypatch.setenv("ENSTUNE_WORKERS", "2")
        with pytest.raises(ExperimentError, match="1 of 2 seeds"):
            run_experiment(cfg)
        with open(os.path.join(out, "manifest.json")) as f:
            (failure,) = json.load(f)["failures"]
        assert failure["seed"] == 1
        assert failure["error"].startswith("RuntimeError: boom in pid ")
        assert failure["error"] != f"RuntimeError: boom in pid {os.getpid()}"
        # the worker's frames arrive as the exception's cause
        assert "in flaky_in_worker" in failure["traceback"]
        assert "in _run_job" in failure["traceback"]

    def test_early_stop_builds_each_plan_once_per_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ENSTUNE_WORKERS", raising=False)  # spies see every job
        cfg = quick_config(str(tmp_path / "es"), [
            "experiment.kind=early_stop",
            'experiment.strategies=["shared","disjoint","overlapping"]',
            'experiment.modes=["individual","joint"]'])
        built = []
        real_make_plan, real_check = experiments.make_plan, experiments._check_config

        def spy(strategy, n_total, val_pct, n_members, seed, labels):
            built.append((seed, strategy))
            return real_make_plan(strategy, n_total, val_pct, n_members, seed, labels)

        def check_then_forget(cfg):
            checked = real_check(cfg)
            built.clear()  # count the plans built at run time only
            return checked

        monkeypatch.setattr(experiments, "make_plan", spy)
        monkeypatch.setattr(experiments, "_check_config", check_then_forget)
        run_experiment(cfg)
        assert built == [(seed, s) for seed in (0, 1)
                         for s in ("shared", "disjoint", "overlapping")]

    def test_stop_then_scale_runs_every_plan(self, tmp_path):
        out = tmp_path / "sts"
        run_experiment(quick_config(str(out), [
            "experiment.kind=stop_then_scale", "experiment.seeds=[0]",
            'experiment.strategies=["shared","overlapping"]',
            "experiment.val_pcts=[0.1,0.3]"]))
        with open(out / "cells.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert [(r[1], r[5], r[6]) for r in rows] == [
            (variant, s, v) for s in ("shared", "overlapping") for v in ("0.1", "0.3")
            for variant in ("none", "joint_scale")]

    def test_wd_sweep_summary_failure_flushes_partial_results(self, tmp_path,
                                                              monkeypatch):
        # every decay stays selectable through seed 0, but the gap needs the
        # selected cells of seed 1 too, which diverged
        out = str(tmp_path / "wd")
        cfg = quick_config(out, ["experiment.kind=wd_sweep",
                                 "experiment.weight_decays=[0.0,0.01]",
                                 "optimizer.kind=sgd_momentum", "optimizer.lr=0.05"])
        real_grid = experiments.train_grid

        def seed_1_diverges(*args, base_seed):
            trained = real_grid(*args, base_seed=base_seed)
            if base_seed == 1:
                return [NonFiniteLossError("non-finite loss at sample 0")] * len(trained)
            return trained

        monkeypatch.setattr(experiments, "train_grid", seed_1_diverges)
        with pytest.warns(UserWarning, match="seed=1 diverged"), \
                pytest.raises(ExperimentError, match="summary failed"):
            run_experiment(cfg)
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        (failure,) = manifest["failures"]
        assert "in _wd_sweep_summary" in failure.pop("traceback")
        assert failure == {
            "seed": None,
            "error": "ValueError: seed 1: selected cell diverged, gap undefined"}
        assert "summary" not in manifest
        assert not os.path.exists(os.path.join(out, "summary.json"))
        assert [r["diverged"] for r in manifest["runs"]] == [False, False, True, True]
        with open(os.path.join(out, "cells.csv")) as f:
            rows = list(csv.reader(f))[1:]
        assert rows and {r[7] for r in rows} == {"0"}
        for name in ("aggregate.csv", "plotdata.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_wd_sweep_honours_decay_bias(self, tmp_path):
        cells = {}
        for flag in ("true", "false"):
            out = tmp_path / flag
            run_experiment(quick_config(str(out), [
                "experiment.kind=wd_sweep", "experiment.seeds=[0]",
                "experiment.weight_decays=[0.0,0.1]", "optimizer.kind=sgd_momentum",
                "optimizer.lr=0.05", f"optimizer.decay_bias={flag}"]))
            cells[flag] = (out / "cells.csv").read_bytes()
        assert cells["true"] != cells["false"]

    @pytest.mark.parametrize("kind, files", [
        ("early_stop", ["cells.csv", "aggregate.csv", "plotdata.csv", "monitor.csv"]),
        ("wd_sweep", ["cells.csv", "aggregate.csv", "plotdata.csv", "summary.json"]),
        ("temp_scale", ["cells.csv", "aggregate.csv", "plotdata.csv"]),
        ("batch_ensemble", ["cells.csv", "aggregate.csv", "plotdata.csv", "monitor.csv"]),
        ("stop_then_scale", ["cells.csv", "aggregate.csv", "plotdata.csv",
                             "monitor.csv"]),
    ])
    def test_worker_count_does_not_change_outputs(self, tmp_path, monkeypatch, kind,
                                                  files):
        extra = [f"experiment.kind={kind}", "experiment.weight_decays=[0.0,0.01]",
                 "optimizer.kind=sgd_momentum", "optimizer.lr=0.05"]
        if kind == "temp_scale":  # one seed, whose four plans fan out
            extra += ["experiment.seeds=[0]",
                      'experiment.strategies=["shared","overlapping"]',
                      "experiment.val_pcts=[0.1,0.2]"]
        pools = []
        real_pool = experiments.ProcessPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", recording_pool)
        outputs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("ENSTUNE_WORKERS", workers)
            out = tmp_path / f"workers{workers}"
            run_experiment(quick_config(str(out), extra))
            outputs[workers] = {name: (out / name).read_bytes() for name in files}
        assert outputs["1"] == outputs["2"]
        assert pools == [2]  # only the two-worker run used a pool

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count_rejected_before_training(self, tmp_path, monkeypatch,
                                                       value):
        monkeypatch.setenv("ENSTUNE_WORKERS", value)
        monkeypatch.setattr(experiments, "train_ensemble", None)  # no training
        out = tmp_path / "run"
        argv = ["early-stop", "--out", str(out)]
        for item in BASE:
            argv += ["--set", item]
        assert cli_main(argv) == 2
        assert not out.exists()

    def test_no_test_index_reachable_by_plans(self):
        cfg = load_config(None, BASE)
        dprime, test = build_dataset(cfg)
        # plans index into D' only; test rows live in a physically separate array
        assert len(dprime) + len(test) == cfg.task.n
        overlap = {tuple(r) for r in dprime.x} & {tuple(r) for r in test.x}
        assert not overlap


ROW_HEADER = ["experiment", "variant", "wd", "split", "scope", "strategy", "val_pct",
              "seed", "ensemble_size", "error_pct", "nll", "ece", "diversity",
              "entropy", "normalized_epochs"]
CELL_KEY = ["experiment", "variant", "wd", "split", "scope", "strategy", "val_pct",
            "ensemble_size"]


class TestOutputSchema:
    """The output files' columns and keys, spelled out here rather than read
    from the module's own constants, so a schema change fails a test."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        out = {}
        for kind, extra in (("early_stop", []),
                            ("wd_sweep", ["experiment.weight_decays=[0.0,0.01]",
                                          "optimizer.kind=sgd_momentum",
                                          "optimizer.lr=0.05"])):
            out_dir = tmp_path_factory.mktemp(kind)
            run_experiment(quick_config(str(out_dir), [f"experiment.kind={kind}",
                                                       "experiment.seeds=[0]"] + extra))
            out[kind] = out_dir
        return out

    @pytest.mark.parametrize("name, header", [
        ("cells.csv", ROW_HEADER),
        ("aggregate.csv", CELL_KEY + [
            "n", "error_pct_mean", "error_pct_sem", "nll_mean", "nll_sem", "ece_mean",
            "ece_sem", "diversity_mean", "diversity_sem", "entropy_mean", "entropy_sem",
            "normalized_epochs_mean", "normalized_epochs_sem"]),
        ("plotdata.csv", CELL_KEY + ["metric", "mean", "sem", "n"]),
    ])
    @pytest.mark.parametrize("kind", ["early_stop", "wd_sweep"])
    def test_csv_headers(self, outputs, kind, name, header):
        with open(outputs[kind] / name, newline="") as f:
            assert next(csv.reader(f)) == header

    def test_monitor_header(self, outputs):
        with open(outputs["early_stop"] / "monitor.csv", newline="") as f:
            assert next(csv.reader(f)) == [
                "experiment", "variant", "strategy", "val_pct", "seed", "epoch",
                "member_id", "split", "nll"]

    def test_manifest_and_summary_keys(self, outputs):
        keys = ["experiment", "config", "seeds", "ece_bins", "n_dprime", "n_test",
                "runs", "failures", "outputs", "wall_clock_s"]
        with open(outputs["early_stop"] / "manifest.json") as f:
            assert list(json.load(f)) == keys
        with open(outputs["wd_sweep"] / "manifest.json") as f:
            manifest = json.load(f)
        assert list(manifest) == keys + ["summary"]
        for entry in manifest["runs"]:
            assert list(entry) == ["wd", "seed", "diverged", "member_val_nlls"]
        with open(outputs["wd_sweep"] / "summary.json") as f:
            assert list(json.load(f)) == ["h_ind", "h_ens", "gap", "gap_sem"]


class TestCli:
    def test_gen_data_and_csv_experiment(self, tmp_path):
        csv_path = str(tmp_path / "ds.csv")
        assert cli_main(["gen-data", "--kind", "blobs", "--n", "240",
                         "--classes", "3", "--noise", "0.6", "--seed", "3",
                         "--out", csv_path]) == 0
        out = str(tmp_path / "run")
        code = cli_main(["early-stop", "--set", f"task.path={csv_path}",
                         "--set", "task.kind=csv",
                         "--set", "experiment.seeds=[0]",
                         "--set", "stopping.max_epochs=4",
                         "--set", "model.hidden=[8]",
                         "--set", "ensemble.members=2",
                         "--set", 'experiment.strategies=["shared"]',
                         "--out", out]) == 0
        assert code
        assert os.path.exists(os.path.join(out, "cells.csv"))

    def test_dotted_flag_override(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli_main(["early-stop", "--task.n", "200", "--task.classes", "3",
                         "--model.hidden", "[8]", "--ensemble.members", "2",
                         "--experiment.seeds", "[0]",
                         "--experiment.strategies", '["shared"]',
                         "--stopping.max_epochs", "3", "--out", out])
        assert code == 0
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["config"]["task"]["n"] == 200

    def test_report_command(self, tmp_path):
        out = str(tmp_path / "run")
        cli_main(["early-stop", "--task.n", "200", "--task.classes", "3",
                  "--model.hidden", "[8]", "--ensemble.members", "2",
                  "--experiment.seeds", "[0,1]",
                  "--experiment.strategies", '["shared"]',
                  "--stopping.max_epochs", "3", "--out", out])
        rep = str(tmp_path / "rep")
        assert cli_main(["report", os.path.join(out, "cells.csv"),
                         "--out", rep]) == 0
        with open(os.path.join(rep, "aggregate.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "experiment"
        assert len(rows) > 1

    @pytest.mark.parametrize("command, extra, reason", [
        pytest.param(*case, id=f"{case[0]}-extra{i}") for i, case in enumerate(BAD_CONFIGS)])
    def test_bad_config_rejected_before_training(self, tmp_path, monkeypatch, capsys,
                                                 command, extra, reason):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(experiments, "train_ensemble", no_training)
        monkeypatch.setattr(experiments, "be_train", no_training)
        monkeypatch.setattr(experiments, "train_grid", no_training)
        out = tmp_path / "run"
        argv = [command, "--out", str(out)]
        for item in base_for(extra) + extra:
            argv += ["--set", item]
        assert cli_main(argv) == 2
        assert reason in capsys.readouterr().err
        assert not (out / "cells.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        assert cli_main(["early-stop", "--set", "task.kind=nosuch",
                         "--out", str(tmp_path / "x")]) == 2

    def test_retired_strategy_flag_rejected_before_training(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.setattr(experiments, "train_ensemble", None)  # no training
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli_main(["early-stop", "--ensemble.strategy", "disjoint", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", ["config-dir", "config-not-utf8", "csv-dir"])
    def test_unreadable_config_input_exit_code(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(experiments, "train_ensemble", None)  # no training
        out = tmp_path / "run"
        argv = ["early-stop", "--out", str(out)]
        if case == "config-dir":
            argv += ["--config", str(tmp_path)]
        elif case == "config-not-utf8":
            path = tmp_path / "cfg.toml"
            path.write_bytes(b'[task]\nkind = "bl\xffobs"\n')
            argv += ["--config", str(path)]
        else:
            argv += ["--task.kind", "csv", "--task.path", str(tmp_path)]
        assert cli_main(argv) == 2
        assert not out.exists()

    def test_gen_data_bad_task_exit_code(self, tmp_path):
        out = tmp_path / "ds.csv"
        assert cli_main(["gen-data", "--n", "2", "--classes", "4",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_gen_data_key_the_kind_ignores_exit_code(self, tmp_path):
        out = tmp_path / "ds.csv"
        assert cli_main(["gen-data", "--kind", "spirals", "--classes", "3",
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["2", "1", "-0.1"])
    def test_gen_data_label_noise_out_of_range_exit_code(self, tmp_path, noise):
        out = tmp_path / "ds.csv"
        assert cli_main(["gen-data", "--label-noise", noise, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_study_config_passes_checks(self, path):
        cfg = load_config(path)
        dprime, test = experiments._check_config(cfg)
        assert len(dprime) + len(test) == cfg.task.n

    def test_readme_config_example_passes_checks(self, tmp_path):
        with open(README, encoding="utf-8") as f:
            (example,) = re.findall(r"```toml\n(.*?)```", f.read(), flags=re.S)
        path = tmp_path / "readme.toml"
        path.write_text(example)
        cfg = load_config(str(path))
        dprime, test = experiments._check_config(cfg)
        assert len(dprime) + len(test) == cfg.task.n
