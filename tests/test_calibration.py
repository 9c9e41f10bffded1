"""Tests for temperature scaling: apply, fit, and the three ensemble modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from enstune import metrics
from enstune.calibration import (
    TemperatureError,
    apply_temperature,
    calibrate_individual,
    calibrate_joint,
    calibrate_pool,
    ensemble_nll_at_temperature,
    fit_temperature,
    nll_at_temperature,
    pool_apply_temperature,
)
from enstune.netcore import softmax
from enstune.splits import JointEvalUnavailableError


def grid_minimizer(objective, n_points=100_000, lo=0.01, hi=100.0):
    """Brute-force oracle: best T on a dense log grid."""
    ts = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    vals = np.array([objective(t) for t in ts])
    return float(ts[vals.argmin()])


def sample_logit_problem(rng, n=200, k=2, scale_range=(0.3, 3.0)):
    """Labels drawn from a softmax model, logits miscalibrated by a scale."""
    true_logits = rng.normal(0.0, 2.0, size=(n, k))
    p = softmax(true_logits)
    y = (rng.random(n)[:, None] > p.cumsum(axis=1)).sum(axis=1)
    z = true_logits * rng.uniform(*scale_range) + rng.normal(0, 0.5, size=(n, k))
    return z, y


class TestApplyTemperature:
    def test_t1_is_plain_softmax(self):
        z = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(apply_temperature(z, 1.0), softmax(z))

    def test_huge_t_is_nearly_uniform(self):
        p = apply_temperature(np.array([[2.0, 0.0]]), 1e6)
        assert np.abs(p - 0.5).max() < 1e-5

    def test_hand_value(self):
        p = apply_temperature(np.array([[2.0, 0.0]]), 2.0)
        s = 1.0 / (1.0 + math.exp(-1.0))
        assert p[0, 0] == pytest.approx(s, abs=1e-10)
        assert p[0, 1] == pytest.approx(1 - s, abs=1e-10)

    def test_rejects_nonpositive(self):
        for t in (0.0, -1.0):
            with pytest.raises(TemperatureError):
                apply_temperature(np.zeros((1, 2)), t)

    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_argmax_preserved(self, seed, log_t):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 3, size=(8, 5))
        t = math.exp(log_t)
        assert np.array_equal(apply_temperature(z, t).argmax(axis=1), z.argmax(axis=1))


class TestFitTemperature:
    def test_log_quadratic_minimum(self):
        res = fit_temperature(lambda t: (math.log(t) - math.log(2.0)) ** 2)
        assert abs(res.temperature - 2.0) < 1e-4
        assert res.converged and not res.at_boundary
        assert res.iterations <= 100

    def test_monotone_objectives_hit_bounds(self):
        res = fit_temperature(lambda t: t)  # minimum at the lower bracket end
        assert res.temperature == 0.01
        assert res.at_boundary and res.converged
        res = fit_temperature(lambda t: -t)
        assert res.temperature == 100.0
        assert res.at_boundary and res.converged

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            z, y = sample_logit_problem(rng)
            obj = nll_at_temperature(z, y)
            res = fit_temperature(obj)
            assert abs(res.temperature - grid_minimizer(obj, 20_000)) < 1e-3

    def test_rejects_non_finite_objective(self):
        with pytest.raises(TemperatureError, match="not finite"):
            fit_temperature(lambda t: float("nan"))


class TestIndividual:
    def test_already_optimal_members_fit_near_one(self):
        # Rescale logits by the grid-optimal T first, so T=1 is optimal.
        rng = np.random.default_rng(2)
        z, y = sample_logit_problem(rng)
        t_star = grid_minimizer(nll_at_temperature(z, y), 50_000)
        z_cal = z / t_star
        res = calibrate_individual([(z_cal, y)] * 3)
        for t in res.temperature:
            assert abs(t - 1.0) < 5e-3
        assert res.mode == "individual"

    def test_single_member_matches_plain_fit(self):
        rng = np.random.default_rng(3)
        z, y = sample_logit_problem(rng)
        solo = fit_temperature(nll_at_temperature(z, y))
        res = calibrate_individual([(z, y)])
        assert res.temperature == [solo.temperature]

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        z, y = sample_logit_problem(rng)
        t_ref = calibrate_individual([(z, y)]).temperature[0]
        t_doubled = calibrate_individual([(2.0 * z, y)]).temperature[0]
        assert t_doubled == pytest.approx(2.0 * t_ref, rel=1e-3)

    def test_empty_validation_set(self):
        with pytest.raises(TemperatureError, match="empty"):
            calibrate_individual([(np.zeros((0, 2)), np.zeros(0, dtype=int))])


class TestJoint:
    def test_single_member_equals_individual(self):
        rng = np.random.default_rng(5)
        z, y = sample_logit_problem(rng)
        joint = calibrate_joint([([z], y)])
        solo = calibrate_individual([(z, y)])
        assert joint.temperature == pytest.approx(solo.temperature[0], abs=1e-9)

    def test_identical_members_match_single_model_fit(self):
        rng = np.random.default_rng(6)
        z, y = sample_logit_problem(rng)
        joint = calibrate_joint([([z, z, z], y)])
        solo = fit_temperature(nll_at_temperature(z, y))
        assert joint.temperature == pytest.approx(solo.temperature, abs=1e-9)

    def test_matches_grid_oracle_on_disagreeing_pair(self):
        rng = np.random.default_rng(7)
        z1, y = sample_logit_problem(rng, n=100)
        z2 = z1 + rng.normal(0, 1.5, size=z1.shape)
        obj = ensemble_nll_at_temperature([([z1, z2], y)])
        res = calibrate_joint([([z1, z2], y)])
        assert abs(res.temperature - grid_minimizer(obj, 20_000)) < 1e-3

    def test_never_worse_than_unscaled(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z1, y = sample_logit_problem(rng, n=60, k=3)
            z2, _ = sample_logit_problem(rng, n=60, k=3)
            obj = ensemble_nll_at_temperature([([z1, z2], y)])
            res = calibrate_joint([([z1, z2], y)])
            assert res.val_nll <= obj(1.0) + 1e-12

    def test_disjoint_is_structured_error(self):
        with pytest.raises(JointEvalUnavailableError, match="disjoint"):
            calibrate_joint([])

    def test_joint_scaling_can_change_ensemble_argmax(self):
        # Frozen witness found by randomized search: the shared temperature
        # preserves each member's argmax but flips the averaged prediction.
        z1 = np.array([[4.1, -1.0, 0.0]])
        z2 = np.array([[-4.0, 3.5, 0.0]])
        before, after = (metrics.ensemble_mean([apply_temperature(z, t) for z in (z1, z2)])
                         for t in (1.0, 2.0))
        assert before.argmax(axis=1)[0] == 0
        assert after.argmax(axis=1)[0] == 1
        for z in (z1, z2):
            assert apply_temperature(z, 2.0).argmax(axis=1) == z.argmax(axis=1)


class TestPool:
    def test_t1_recovers_mean_probs(self):
        rng = np.random.default_rng(9)
        raw = rng.exponential(size=(6, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        assert np.abs(pool_apply_temperature(p, 1.0) - p).max() < 1e-12

    def test_argmax_preserved_for_any_t(self):
        rng = np.random.default_rng(10)
        raw = rng.exponential(size=(20, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        for t in (0.2, 0.7, 1.0, 3.5, 40.0):
            assert np.array_equal(pool_apply_temperature(p, t).argmax(axis=1),
                                  p.argmax(axis=1))

    def test_pool_and_joint_land_close(self):
        # Overconfident members: both joint strategies should calibrate to
        # nearly the same validation NLL.
        rng = np.random.default_rng(42)
        n, k, m = 400, 4, 4
        true_logits = rng.normal(0, 2.0, size=(n, k))
        p = softmax(true_logits)
        y = (rng.random(n)[:, None] > p.cumsum(axis=1)).sum(axis=1)
        members = [1.8 * true_logits + rng.normal(0, 0.8, size=(n, k)) for _ in range(m)]
        joint = calibrate_joint([(members, y)])
        pool = calibrate_pool([([softmax(z) for z in members], y)])
        assert abs(joint.val_nll - pool.val_nll) < 0.01

    def test_fitted_pool_keeps_pooled_argmax(self):
        rng = np.random.default_rng(11)
        members = [rng.normal(0, 2, size=(50, 3)) for _ in range(3)]
        y = rng.integers(0, 3, size=50)
        probs = [softmax(z) for z in members]
        mean_p = metrics.ensemble_mean(probs)
        res = calibrate_pool([(probs, y)])
        out = pool_apply_temperature(mean_p, res.temperature)
        assert np.array_equal(out.argmax(axis=1), mean_p.argmax(axis=1))

    def test_objective_is_mean_over_eval_sets(self):
        # an overlapping plan's cyclic pairs: each set pools only its members
        rng = np.random.default_rng(13)
        sets = []
        for n in (30, 45):
            probs = [softmax(rng.normal(0, 2, size=(n, 3))) for _ in range(2)]
            sets.append((probs, rng.integers(0, 3, size=n)))
        res = calibrate_pool(sets)
        per_set = [metrics.nll(pool_apply_temperature(metrics.ensemble_mean(p),
                                                      res.temperature), y)
                   for p, y in sets]
        assert res.mode == "pool"
        assert res.val_nll == float(np.mean(per_set))

    def test_empty_input_is_structured_error(self):
        with pytest.raises(JointEvalUnavailableError, match="disjoint"):
            calibrate_pool([])
        with pytest.raises(TemperatureError):
            calibrate_pool([([np.full((0, 3), 1 / 3)], np.zeros(0, dtype=int))])
