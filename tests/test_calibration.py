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
    pool_nll_at_temperature,
)
from enstune.netcore import ShapeError, softmax
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


def logit_problem(k, m, n, seed, kind):
    """M members' (n, k) logits and labels: normal, rounded to many ties
    (whole rows tied, some at -0.0), or of magnitude up to about 1e100."""
    rng = np.random.default_rng(seed)
    zs = [rng.normal(0.0, 3.0, size=(n, k)) for _ in range(m)]
    if kind == "tied":
        for z in zs:
            z[:] = np.round(z)
            z[::3] = 0.0
            z[1::4] = -0.0
    elif kind == "large":
        zs = [z * 10.0 ** rng.uniform(0, 100, size=(n, 1)) for z in zs]
    return zs, rng.integers(0, k, size=n)


PROBLEMS = st.tuples(st.sampled_from([2, 3, 4, 10]), st.sampled_from([1, 2, 4]),
                     st.integers(1, 60), st.integers(0, 2 ** 32 - 1),
                     st.sampled_from(["normal", "tied", "large"]))
TEMPERATURES = st.one_of(st.sampled_from([0.01, 1.0, 100.0]),
                         st.floats(min_value=0.01, max_value=100.0))


def joint_reference(zs, y, t):
    return metrics.nll(metrics.ensemble_mean([apply_temperature(z, t) for z in zs]), y)


def pool_reference(probs, y, t):
    return metrics.nll(pool_apply_temperature(metrics.ensemble_mean(probs), t), y)


class TestPreparedObjectivesExact:
    """A fit prepares each validation set once; every objective value must
    still be, float for float, the composition of the public functions."""

    @given(PROBLEMS, TEMPERATURES)
    @settings(max_examples=150, deadline=None)
    def test_individual(self, problem, t):
        zs, y = logit_problem(*problem)
        for z in zs:
            assert nll_at_temperature(z, y)(t) == metrics.nll(apply_temperature(z, t), y)

    @given(PROBLEMS, TEMPERATURES)
    @settings(max_examples=150, deadline=None)
    def test_joint(self, problem, t):
        zs, y = logit_problem(*problem)
        assert ensemble_nll_at_temperature([(zs, y)])(t) == joint_reference(zs, y, t)

    @given(PROBLEMS, TEMPERATURES)
    @settings(max_examples=150, deadline=None)
    def test_pool(self, problem, t):
        zs, y = logit_problem(*problem)
        probs = [softmax(z) for z in zs]
        assert pool_nll_at_temperature([(probs, y)])(t) == pool_reference(probs, y, t)

    @pytest.mark.parametrize("m", [8, 9, 16, 33])
    @pytest.mark.parametrize("n", [1, 2])
    def test_joint_many_members(self, m, n):
        # numpy sums a lone row's members pairwise from 8 of them on, a stack's
        # rows in member order; the objective must sum as ``ensemble_mean``
        for seed in range(20):
            zs, y = logit_problem(4, m, n, seed, "normal")
            for t in (0.01, 0.3, 1.0, 7.0, 100.0):
                assert ensemble_nll_at_temperature([(zs, y)])(t) == joint_reference(zs, y, t)

    @given(PROBLEMS, st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_mean_over_eval_sets(self, problem, n_second):
        zs, y = logit_problem(*problem)
        zs2, y2 = logit_problem(problem[0], problem[1], n_second, problem[3] + 1, "normal")
        sets = [(zs, y), (zs2, y2)]
        for t in (0.01, 1.0, 100.0):
            assert ensemble_nll_at_temperature(sets)(t) == float(np.mean(
                [joint_reference(z, yy, t) for z, yy in sets]))

    @given(PROBLEMS)
    @settings(max_examples=25, deadline=None)
    def test_fits_match_reference_fits(self, problem):
        zs, y = logit_problem(*problem)
        probs = [softmax(z) for z in zs]
        pairs = [(nll_at_temperature(zs[0], y),
                  lambda t: metrics.nll(apply_temperature(zs[0], t), y)),
                 (ensemble_nll_at_temperature([(zs, y)]),
                  lambda t: joint_reference(zs, y, t)),
                 (pool_nll_at_temperature([(probs, y)]),
                  lambda t: pool_reference(probs, y, t))]
        for prepared, reference in pairs:
            a, b = fit_temperature(prepared), fit_temperature(reference)
            assert (a.temperature, a.val_nll, a.iterations, a.converged, a.at_boundary) == (
                b.temperature, b.val_nll, b.iterations, b.converged, b.at_boundary)

    def test_overflow_raises_the_same_error(self):
        z = np.array([[1e307, 0.0], [0.0, 1.0]])  # z / 0.01 overflows
        y = np.array([0, 1])
        messages = []
        for objective in (nll_at_temperature(z, y),
                          lambda t: metrics.nll(apply_temperature(z, t), y)):
            with pytest.raises(TemperatureError) as err, np.errstate(all="ignore"):
                fit_temperature(objective)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "objective is not finite at T=0.01"

    def test_nonpositive_temperature(self):
        obj = nll_at_temperature(np.zeros((2, 3)), np.array([0, 2]))
        for t in (0.0, -1.0):
            with pytest.raises(TemperatureError, match="must be > 0"):
                obj(t)

    def test_label_count_mismatch_is_checked_at_preparation(self):
        z = np.zeros((10, 4))
        for labels in (np.zeros(5, dtype=int), np.zeros(11, dtype=int)):
            with pytest.raises(ShapeError):
                nll_at_temperature(z, labels)
            with pytest.raises(ShapeError):
                ensemble_nll_at_temperature([([z, z], labels)])
            with pytest.raises(ShapeError):
                pool_nll_at_temperature([([softmax(z)], labels)])
