"""One measured run of a workload, in a fresh process.

Usage: ``python3 bench/child.py <src dir> <config.toml> <out dir> <mode>``,
where mode is ``setup`` (set up only), ``run`` or ``trace``. Set-up is
``import enstune`` plus ``load_config`` plus ``build_dataset``; the run is
one ``run_experiment`` call. ``trace`` wraps the layers' functions for the
run (see ``spans.py``) and adds the per-layer figures. The last line of
standard output is one JSON object with the measurements.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback

# Calls whose starts and ends cut a plain run into segments: the monitoring
# forward pass of every epoch, and the calls around and between the epochs.
# The segments last milliseconds and repeat identically in every run of a
# workload (see run.rebuilt_wall).
PHASES = frozenset({"netcore.forward", "batchensemble.be_forward",
                    "training.train_ensemble", "batchensemble.be_train",
                    "calibration.fit_temperature", "metrics.compute_record",
                    "metrics.member_avg_record", "experiments.write_csv"})
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ENSTUNE_WORKERS")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def blobs_bayes_nll(test, task) -> float:
    """Mean NLL of the Bayes-optimal predictor on the test rows of a blobs
    task: class posteriors from the known Gaussian means on a circle,
    pushed through the uniform label-flip channel."""
    import numpy as np

    k = task.classes
    angles = 2.0 * np.pi * np.arange(k) / k
    means = task.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    log_lik = -((test.x[:, None, :] - means[None]) ** 2).sum(-1) / (2 * task.noise ** 2)
    post = np.exp(log_lik - log_lik.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    flip = np.full((k, k), task.label_noise / (k - 1))
    np.fill_diagonal(flip, 1.0 - task.label_noise)
    p_label = (post @ flip)[np.arange(len(test.y)), test.y]
    return float(-np.log(p_label).mean())


def kernel_probe(cfg, repeats: int = 7) -> float:
    """BatchEnsemble step cost over that of M independent MLP steps, timed
    at the workload's shapes. Blocks of the two kernels alternate, so a
    change of machine speed hits both; the median ratio is returned."""
    import numpy as np

    from enstune.batchensemble import be_loss_and_grads, make_batch_ensemble
    from enstune.netcore import MlpParams, loss_and_grad

    m, b = cfg.ensemble.members, cfg.stopping.batch_size
    dims = [2] + list(cfg.model.hidden) + [cfg.task.classes]  # blobs have 2 features
    rng = np.random.default_rng(0)
    model = make_batch_ensemble(dims, m, "gaussian", rng)
    params = MlpParams.random(dims, rng)
    xs = rng.normal(size=(m, b, dims[0]))
    ys = rng.integers(0, dims[-1], size=(m, b))

    def per_call(fn, calls):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    ratios = sorted(per_call(lambda: be_loss_and_grads(model, xs, ys), 40)
                    / (m * per_call(lambda: loss_and_grad(params, xs[0], ys[0]), 160))
                    for _ in range(repeats))
    return ratios[repeats // 2]


def main(src: str, config_path: str, out_dir: str, mode: str) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import enstune
    from enstune import config, experiments

    if not os.path.abspath(enstune.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"enstune imported from {enstune.__file__}, not {src}")
    t = time.perf_counter()
    cfg = config.load_config(config_path)
    load_config_s = time.perf_counter() - t
    t = time.perf_counter()
    _, test = experiments.build_dataset(cfg)
    build_dataset_s = time.perf_counter() - t
    result = {"setup_s": time.perf_counter() - start, "env": environment(),
              "config.load_config.s": load_config_s,
              "data.build_dataset.s": build_dataset_s,
              "test_bayes_nll": blobs_bayes_nll(test, cfg.task)}
    if mode == "setup":
        return result

    try:
        _measure_run(experiments, cfg, out_dir, mode, result)
    except Exception:  # noqa: BLE001 - the parent counts the run as failed
        result["error"] = traceback.format_exc()
    return result


def _measure_run(experiments, cfg, out_dir: str, mode: str, result: dict) -> None:
    import spans

    modules = {name: sys.modules[f"enstune.{name}"] for name in spans.LAYERS + ("cli",)
               if f"enstune.{name}" in sys.modules}
    with spans.Tracer().installed(modules, None if mode == "trace" else PHASES) as tracer:
        t = time.perf_counter()
        try:
            experiments.run_experiment(cfg, out_dir)
        except experiments.ExperimentError:
            pass  # failed seeds are in the manifest, which the parent checks
        result["wall_s"] = time.perf_counter() - t
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "trace":
        result["layers"] = spans.layer_metrics(tracer)
        result["layers"]["batchensemble.cost_vs_m_mlps"] = kernel_probe(cfg)
    else:
        cuts = sorted([start for _, start, _, _ in tracer.spans]
                      + [end for _, _, end, _ in tracer.spans])
        cuts = [t] + cuts + [t + result["wall_s"]]
        result["segments_s"] = [b - a for a, b in zip(cuts, cuts[1:])]


if __name__ == "__main__":
    try:
        doc = main(*sys.argv[1:5])
    except Exception:  # noqa: BLE001 - set-up failed; the parent cannot measure
        doc = {"setup_error": traceback.format_exc()}
    print(json.dumps(doc))
