"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The empirical trend criteria (8 and 9) run the 4-class noisy-blobs task at
desk scale with frozen hyperparameters; the rest are property checks at their
stated tolerances.
"""

import math
import time

import numpy as np

from enstune import calibration, metrics
from enstune.batchensemble import (
    be_forward,
    be_forward_all,
    be_grad_check,
    be_train,
    make_batch_ensemble,
    materialized_member_params,
)
from enstune.config import config_from_dict, load_config
from enstune.data import make_blobs
from enstune.experiments import Job, _wd_sweep_cells, rerun_from_manifest, run_experiment
from enstune.netcore import MlpParams, grad_check, mlp_forward, softmax
from enstune.splits import SHARED, make_disjoint, make_overlapping, make_shared
from enstune.training import (
    OptimizerConfig,
    StoppingConfig,
    member_logits,
    train_ensemble,
)
from enstune.tuning import optimality_gap, select_h, selection_score


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_prob_matrix(rng, n, k):
    raw = rng.exponential(size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


TREND_TASK = dict(n=2000, n_classes=4, noise=0.8, radius=2.0, label_noise=0.15)


def trend_datasets(data_seed=0, n_test=6000):
    dprime = make_blobs(TREND_TASK["n"], TREND_TASK["n_classes"], TREND_TASK["noise"],
                        np.random.default_rng(data_seed), radius=TREND_TASK["radius"],
                        label_noise=TREND_TASK["label_noise"])
    test = make_blobs(n_test, TREND_TASK["n_classes"], TREND_TASK["noise"],
                      np.random.default_rng(10_000 + data_seed),
                      radius=TREND_TASK["radius"],
                      label_noise=TREND_TASK["label_noise"])
    return dprime, test


def test_criterion_1_ambiguity_jensen():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = math.inf
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(2, 11))
        n = int(rng.integers(1, 65))
        members = [random_prob_matrix(rng, n, k) for _ in range(m)]
        y = rng.integers(0, k, size=n)
        res = metrics.ambiguity(members, y)
        worst = min(worst, res.ambiguity)
        assert res.ensemble_nll <= res.avg_member_nll + 1e-12
        assert res.ambiguity >= -1e-12
    elapsed = time.monotonic() - start
    report(1, elapsed < 10.0,
           f"1000 instances, min ambiguity {worst:.3e} >= -1e-12, {elapsed:.1f}s < 10s")


def test_criterion_2_diversity_identity():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(2, 11))
        n = int(rng.integers(1, 65))
        members = [random_prob_matrix(rng, n, k) for _ in range(m)]
        gap = np.abs(metrics.diversity(members).per_sample
                     - metrics.diversity_kl(members).per_sample).max()
        worst = max(worst, float(gap))
        assert gap < 1e-10
    elapsed = time.monotonic() - start
    report(2, elapsed < 10.0,
           f"1000 instances, max |entropy-gap - avg-KL| {worst:.2e} < 1e-10, "
           f"{elapsed:.1f}s < 10s")


def test_criterion_3_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    worst_mlp = 0.0
    for trial in range(60):
        depth = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 6)) for _ in range(depth)]
        params = MlpParams.random(dims, rng)
        x = rng.normal(size=(int(rng.integers(2, 7)), dims[0])) + 0.05
        y = rng.integers(0, dims[-1], size=x.shape[0])
        rep = grad_check(params, x, y, eps=1e-5)
        worst_mlp = max(worst_mlp, rep.max_rel_error)
        assert rep.max_rel_error < 1e-4, f"mlp trial {trial}"
    worst_be = 0.0
    for trial in range(45):
        dims = [3, int(rng.integers(3, 6)), int(rng.integers(2, 5))]
        m = int(rng.integers(1, 4))
        scheme = "random_sign" if trial % 2 else "gaussian"
        model = make_batch_ensemble(dims, m, scheme, np.random.default_rng(trial),
                                    sigma=0.4)
        xs = rng.normal(size=(m, 5, 3))
        ys = rng.integers(0, dims[-1], size=(m, 5))
        rep = be_grad_check(model, xs, ys, eps=1e-5)
        worst_be = max(worst_be, rep.max_rel_error)
        assert rep.max_rel_error < 1e-4, f"be trial {trial}"
    elapsed = time.monotonic() - start
    report(3, elapsed < 60.0,
           f"105 configs, worst rel err mlp {worst_mlp:.2e} / "
           f"batchensemble {worst_be:.2e} < 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_4_batchensemble_algebra():
    rng = np.random.default_rng(404)
    worst_oracle = 0.0
    for trial in range(100):
        dims = [int(rng.integers(2, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 5))]
        m = int(rng.integers(1, 5))
        scheme = "random_sign" if trial % 2 else "gaussian"
        model = make_batch_ensemble(dims, m, scheme, np.random.default_rng(trial),
                                    sigma=0.5)
        for bn in model.bn:  # non-trivial eval statistics
            bn.running_mean += rng.normal(0, 0.3, size=bn.running_mean.shape)
            bn.running_var *= rng.uniform(0.5, 2.0, size=bn.running_var.shape)
        x = rng.normal(size=(int(rng.integers(2, 7)), dims[0]))
        for training in (False, True):
            stacked = be_forward_all(model, x, training=training)
            loop = np.stack([be_forward(model, x, mm, training=training)
                             for mm in range(m)])
            assert np.array_equal(stacked, loop), f"trial {trial} training={training}"
        bare = make_batch_ensemble(dims, m, scheme, np.random.default_rng(trial),
                                   sigma=0.5, use_batchnorm=False)
        for mm in range(m):
            oracle = mlp_forward(materialized_member_params(bare, mm), x)
            gap = np.abs(be_forward(bare, x, mm) - oracle).max()
            worst_oracle = max(worst_oracle, float(gap))
            assert gap < 1e-10
    report(4, True,
           f"100 configs: vectorized == loop exactly, materialized oracle gap "
           f"{worst_oracle:.2e} < 1e-10")


def _grid_nll_minimizer(logits, labels, n_points=100_000, lo=0.01, hi=100.0):
    """Oracle: the first minimizer of the NLL over a dense log grid of T.

    The NLL is convex in 1/T, hence unimodal along the grid, so a ternary
    search over grid indices lands on the grid point a full scan would pick.
    The last few candidates are scanned in full, taking the first minimum.
    """
    ts = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    rows = np.arange(len(labels))

    def nlls(idx):
        z = logits[None, :, :] / ts[idx][:, None, None]
        z = z - z.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        return -logp[:, rows, labels].mean(axis=-1)

    a, b = 0, n_points - 1
    while b - a > 3:
        m1, m2 = a + (b - a) // 3, b - (b - a) // 3
        f1, f2 = nlls(np.array([m1, m2]))
        if f1 < f2:
            b = m2 - 1
        elif f1 > f2:
            a = m1 + 1
        else:
            b = m2
    idx = np.arange(a, b + 1)
    return float(ts[idx[int(nlls(idx).argmin())]])


def test_criterion_5_temperature_fit_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        true_logits = rng.normal(0, 2.0, size=(200, 2))
        p = softmax(true_logits)
        y = (rng.random(200)[:, None] > p.cumsum(axis=1)).sum(axis=1)
        z = true_logits * rng.uniform(0.3, 3.0) + rng.normal(0, 0.5, size=(200, 2))
        fit = calibration.fit_temperature(calibration.nll_at_temperature([([z], y)]))
        t_grid = _grid_nll_minimizer(z, y)
        worst = max(worst, abs(fit.temperature - t_grid))
        assert abs(fit.temperature - t_grid) < 1e-3
    for _ in range(30):
        z1 = rng.normal(0, 2.5, size=(80, 3))
        z2 = z1 + rng.normal(0, 1.5, size=(80, 3))
        y = rng.integers(0, 3, size=80)
        obj = calibration.nll_at_temperature([([z1, z2], y)])
        fit, _ = calibration.calibrate("joint", [([z1, z2], y)], [z1, z2])
        assert fit.val_nll <= obj(1.0) + 1e-12
    elapsed = time.monotonic() - start
    report(5, True,
           f"100 problems, worst |T_fit - T_grid| {worst:.2e} < 1e-3; "
           f"30 joint fits never above the T=1 NLL ({elapsed:.0f}s)")


def test_criterion_6_argmax_contracts():
    rng = np.random.default_rng(606)
    for _ in range(300):
        z = rng.normal(0, 3, size=(12, int(rng.integers(2, 7))))
        t = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        assert np.array_equal(calibration.apply_temperature(z, t).argmax(axis=1),
                              z.argmax(axis=1))
    for _ in range(50):
        z = np.log(rng.exponential(size=(30, 5)))  # p uniform on the simplex
        p = softmax(z)
        y = rng.integers(0, 5, size=30)
        fit, pooled = calibration.calibrate("pool", [([z], y)], [z])
        assert np.array_equal(pooled.argmax(axis=1), p.argmax(axis=1))
        for t in (fit.temperature, 0.1, 7.3):
            pooled = calibration.apply_temperature(calibration.pool_logits(p), t)
            assert np.array_equal(pooled.argmax(axis=1), p.argmax(axis=1))
    # frozen witness: a shared temperature flips the averaged prediction
    z1 = np.array([[4.1, -1.0, 0.0]])
    z2 = np.array([[-4.0, 3.5, 0.0]])
    before, after = (
        metrics.ensemble_mean([calibration.apply_temperature(z, t)
                               for z in (z1, z2)]).argmax(axis=1)[0]
        for t in (1.0, 2.0))
    ok = before == 0 and after == 1
    report(6, ok,
           "per-member and pooled argmax preserved; frozen witness flips the "
           f"joint ensemble argmax ({before} -> {after} at T=2)")


def test_criterion_7_split_plan_invariants():
    checked = 0
    for n in (17, 100, 1003):
        for m in range(2, 9):
            shared = make_shared(n, 0.2, m, rng_seed=n + m)
            val0 = shared.members[0].val_idx
            for ms in shared.members:
                assert np.array_equal(ms.val_idx, val0)
                assert not set(val0.tolist()) & set(ms.train_idx.tolist())
            shared.validate()

            disjoint = make_disjoint(n, 0.08, m, rng_seed=n + m)
            val_count = np.zeros(n, int)
            train_count = np.zeros(n, int)
            for ms in disjoint.members:
                val_count[ms.val_idx] += 1
                train_count[ms.train_idx] += 1
            v = len(disjoint.members[0].val_idx)
            covered = val_count > 0
            assert val_count.max() <= 1  # mutually disjoint
            assert covered.sum() == m * v
            assert (train_count[covered] == m - 1).all()
            assert (train_count[~covered] == m).all()
            disjoint.validate()
            checked += 2

            if m >= 3:
                over = make_overlapping(n, m, rng_seed=n + m)
                val_count = np.zeros(n, int)
                train_count = np.zeros(n, int)
                owners = [[] for _ in range(n)]
                for mi, ms in enumerate(over.members):
                    val_count[ms.val_idx] += 1
                    train_count[ms.train_idx] += 1
                    for i in ms.val_idx:
                        owners[i].append(mi)
                assert (val_count == 2).all()
                assert (train_count == m - 2).all()
                for pair in owners:
                    a, b = pair
                    assert (b - a) % m == 1 or (a - b) % m == 1  # cyclically adjacent
                over.validate()
                checked += 1
    report(7, True, f"{checked} plans over n in {{17,100,1003}}, M in 2..8: "
                    "membership counts all exact")


def test_criterion_8_early_stopping_trend():
    start = time.monotonic()
    dprime, test = trend_datasets()
    dims = [2, 32, 4]
    opt = OptimizerConfig(kind="adam", lr=1e-2)
    seeds = list(range(12))
    epochs = {"individual": [], "joint": []}
    nlls = {"individual": [], "joint": []}
    for seed in seeds:
        plan = make_shared(len(dprime), 0.05, 4, rng_seed=seed, labels=dprime.y)
        for mode in ("individual", "joint"):
            stop = StoppingConfig(mode=mode, patience=10, max_epochs=150,
                                  batch_size=128)
            res = train_ensemble(dprime.x, dprime.y, plan, dims, opt, stop,
                                 base_seed=seed)
            probs = [softmax(member_logits(m, test.x)) for m in res.members]
            nlls[mode].append(metrics.nll(metrics.ensemble_mean(probs), test.y))
            epochs[mode].append(float(np.mean([m.stop.normalized_epochs
                                               for m in res.members])))
    ind_e, joint_e = np.mean(epochs["individual"]), np.mean(epochs["joint"])
    ind_n, joint_n = np.mean(nlls["individual"]), np.mean(nlls["joint"])
    elapsed = time.monotonic() - start
    ok = joint_e >= ind_e and joint_n <= ind_n and elapsed < 600
    report(8, ok,
           f"12 seeds: normalized epochs joint {joint_e:.1f} >= individual "
           f"{ind_e:.1f}; test NLL joint {joint_n:.4f} <= individual "
           f"{ind_n:.4f}; {elapsed:.0f}s < 600s")


def test_criterion_9_batchensemble_init_trend():
    start = time.monotonic()
    dprime, test = trend_datasets()
    dims = [2, 64, 64, 4]
    opt = OptimizerConfig(kind="adam", lr=1e-3)
    stop = StoppingConfig(mode="joint", patience=10, max_epochs=100, batch_size=128)
    schemes = {"gaussian": "gaussian_0.1", "random_sign": "random_sign"}
    d_lists = {scheme: [] for scheme in schemes}
    g_lists = {scheme: [] for scheme in schemes}
    for seed in range(10):
        plan = make_overlapping(len(dprime), 4, rng_seed=seed,
                                labels=dprime.y, val_fraction=0.1)
        results = be_train(dprime.x, dprime.y, plan, dims, list(schemes.values()), opt,
                           stop, seed)
        for scheme, res in zip(schemes, results):
            d_lists[scheme].append(metrics.diversity(res.all_probs(test.x)).mean)
            member_gaps = []
            for m, ms in enumerate(plan.members):
                v = metrics.nll(res.member_probs(dprime.x[ms.val_idx], m),
                                dprime.y[ms.val_idx])
                t = metrics.nll(res.member_probs(dprime.x[ms.train_idx], m),
                                dprime.y[ms.train_idx])
                member_gaps.append(v - t)
            g_lists[scheme].append(float(np.mean(member_gaps)))
    divs = {scheme: float(np.mean(d)) for scheme, d in d_lists.items()}
    gaps = {scheme: float(np.mean(g)) for scheme, g in g_lists.items()}
    elapsed = time.monotonic() - start
    ok = (divs["random_sign"] > divs["gaussian"]
          and gaps["gaussian"] < gaps["random_sign"]
          and elapsed < 900)
    report(9, ok,
           f"10 seeds, overlapping plan: diversity random_sign "
           f"{divs['random_sign']:.4f} > gaussian(0.1) {divs['gaussian']:.4f}; "
           f"leakage gap gaussian {gaps['gaussian']:+.4f} < random_sign "
           f"{gaps['random_sign']:+.4f}; {elapsed:.0f}s < 900s")


def test_criterion_10_selection_definitional_check():
    rng = np.random.default_rng(1010)
    ds = make_blobs(360, 3, 0.8, rng, label_noise=0.1)
    from enstune.data import train_test_split

    dprime, test = train_test_split(ds, 0.2, seed=0)
    seeds = [0, 1]
    # a [2, 16, 3] MLP, sgd_momentum at lr 0.05 with cosine annealing over
    # 10 epochs of batch 64, one shared plan per seed
    cfg = config_from_dict({
        "model": {"hidden": [16]}, "ensemble": {"members": 3, "val_pct": 0.15},
        "optimizer": {"kind": "sgd_momentum", "lr": 0.05},
        "stopping": {"max_epochs": 10, "batch_size": 64},
        "experiment": {"kind": "wd_sweep", "seeds": seeds,
                       "weight_decays": [0.0, 1e-3, 1e-1], "ensemble_sizes": [1, 2, 3]}})
    per_seed = [_wd_sweep_cells(cfg, dprime, test, seed,
                                make_shared(len(dprime), 0.15, 3, rng_seed=seed,
                                            labels=dprime.y), Job(SHARED, 0.15))[2][0]
                for seed in seeds]
    sweep = [c for wd_cells in zip(*per_seed) for c in wd_cells]
    h_ind = select_h(sweep, "individual")
    h_ens = select_h(sweep, "ensemble")
    lhs = selection_score(sweep, h_ens, "ensemble")
    rhs = selection_score(sweep, h_ind, "ensemble")
    gap_self, sem_self = optimality_gap(sweep, h_ens, h_ens)
    ok = lhs <= rhs and gap_self == 0.0 and sem_self == 0.0
    report(10, ok,
           f"ensemble val NLL at h_ens {lhs:.4f} <= at h_ind {rhs:.4f} exactly; "
           f"optimality_gap(h, h) = {gap_self}")


def test_criterion_11_determinism(tmp_path):
    cfg = load_config(None, [
        "task.n=360", "task.classes=3", "task.noise=0.8", "task.label_noise=0.1",
        "model.hidden=[8]", "ensemble.members=3", "ensemble.val_pct=0.1",
        "experiment.kind=early_stop", "experiment.seeds=[0,1]",
        'experiment.strategies=["shared","overlapping"]',
        "stopping.max_epochs=6", "stopping.patience=3", "stopping.batch_size=64",
        f"experiment.out_dir={tmp_path / 'a'}",
    ])
    run_experiment(cfg)
    rerun_from_manifest(str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b"))
    identical = []
    for name in ("cells.csv", "aggregate.csv", "plotdata.csv"):
        with open(tmp_path / "a" / name, "rb") as fa, \
             open(tmp_path / "b" / name, "rb") as fb:
            identical.append(fa.read() == fb.read())
    report(11, all(identical),
           "rerun from manifest reproduced cells/aggregate/plotdata CSVs "
           "byte-identically")
