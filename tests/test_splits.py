"""Tests for shared / disjoint / overlapping holdout plans."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from enstune.splits import (
    MemberSplit,
    SplitError,
    SplitPlan,
    joint_eval_sets,
    make_disjoint,
    make_overlapping,
    make_shared,
)


def pairs_as_lists(plan):
    if plan.joint_pairs is None:
        return None
    return [(a, b, idx.tolist()) for a, b, idx in plan.joint_pairs]


def portions(plan):
    """An overlapping plan's portions S_0..S_{M-1}: S_m is the one that the
    cyclic pair (m - 1, m) shares."""
    pairs = plan.joint_pairs
    return [pairs[m - 1][2] for m in range(len(pairs))]


def membership_counts(plan):
    """(val_count, train_count) per index across members."""
    val = np.zeros(plan.n_total, dtype=int)
    train = np.zeros(plan.n_total, dtype=int)
    for ms in plan.members:
        val[ms.val_idx] += 1
        train[ms.train_idx] += 1
    return val, train


class TestShared:
    def test_all_members_identical(self):
        plan = make_shared(10, 0.2, 3, rng_seed=0)
        assert plan.n_members == 3
        v0 = plan.members[0].val_idx
        assert len(v0) == 2
        for ms in plan.members:
            assert np.array_equal(ms.val_idx, v0)
            assert len(ms.train_idx) == 8
            assert not np.intersect1d(ms.train_idx, ms.val_idx).size
        plan.validate()

    def test_single_member_plain_split(self):
        plan = make_shared(20, 0.25, 1, rng_seed=1)
        assert plan.n_members == 1
        assert len(plan.members[0].val_idx) == 5

    def test_different_seeds_differ(self):
        a = make_shared(100, 0.2, 2, rng_seed=0)
        b = make_shared(100, 0.2, 2, rng_seed=1)
        assert len(a.members[0].val_idx) == len(b.members[0].val_idx) == 20
        assert not np.array_equal(a.members[0].val_idx, b.members[0].val_idx)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(SplitError):
            make_shared(10, 0.01, 2, rng_seed=0)  # rounds to 0
        with pytest.raises(SplitError):
            make_shared(10, 0.99, 2, rng_seed=0)  # rounds to n

    def test_val_absent_from_all_training(self):
        plan = make_shared(50, 0.3, 4, rng_seed=3)
        val = set(plan.members[0].val_idx.tolist())
        for ms in plan.members:
            assert not val & set(ms.train_idx.tolist())


class TestDisjoint:
    def test_counts_n12_m4(self):
        plan = make_disjoint(12, 0.25, 4, rng_seed=0)
        val, train = membership_counts(plan)
        assert (val == 1).all()
        assert (train == 3).all()
        sizes = {len(ms.val_idx) for ms in plan.members}
        assert sizes == {3}
        plan.validate()

    def test_single_member_matches_shared_semantics(self):
        plan = make_disjoint(10, 0.2, 1, rng_seed=5)
        assert len(plan.members[0].val_idx) == 2
        assert len(plan.members[0].train_idx) == 8

    def test_infeasible_raises(self):
        with pytest.raises(SplitError, match="12"):
            make_disjoint(10, 0.3, 4, rng_seed=0)


class TestOverlapping:
    def test_n8_m4_structure(self):
        plan = make_overlapping(8, 4, rng_seed=0)
        val, train = membership_counts(plan)
        assert (val == 2).all()
        assert (train == 2).all()
        for ms in plan.members:
            assert len(ms.val_idx) == 4
            assert len(ms.train_idx) == 4
        plan.validate()

    def test_m2_rejected(self):
        with pytest.raises(SplitError, match="degenerate"):
            make_overlapping(8, 2, rng_seed=0)
        with pytest.raises(SplitError):
            make_overlapping(8, 1, rng_seed=0)

    def test_n10_m4_portion_sizes(self):
        plan = make_overlapping(10, 4, rng_seed=2)
        assert [len(p) for p in portions(plan)] == [3, 3, 2, 2]
        union = np.sort(np.concatenate([ms.val_idx for ms in plan.members]))
        assert np.array_equal(np.unique(union), np.arange(10))

    def test_val_sets_are_adjacent_portion_unions(self):
        plan = make_overlapping(20, 5, rng_seed=7)
        parts = portions(plan)
        for m, ms in enumerate(plan.members):
            expected = np.sort(np.concatenate([parts[m], parts[(m + 1) % 5]]))
            assert np.array_equal(ms.val_idx, expected)

    def test_pair_shared_indices_clean_for_both(self):
        plan = make_overlapping(40, 4, rng_seed=9)
        for a, b, shared in plan.joint_pairs:
            for member in (a, b):
                assert not set(shared.tolist()) & set(plan.members[member].train_idx.tolist())

    def test_subsampled_val_fraction(self):
        plan = make_overlapping(100, 4, rng_seed=1, val_fraction=0.1)
        # portions drawn from a 0.1 * 100 * 4 / 2 = 20-index subset
        pool = np.sort(np.concatenate(portions(plan)))
        assert len(pool) == 20
        for ms in plan.members:
            assert len(ms.val_idx) == 10
        val, train = membership_counts(plan)
        outside = np.setdiff1d(np.arange(100), pool)
        assert (val[outside] == 0).all()
        assert (train[outside] == 4).all()
        assert (val[pool] == 2).all()
        assert (train[pool] == 2).all()
        plan.validate()


class TestJointEvalSets:
    def test_shared_single_entry(self):
        plan = make_shared(10, 0.2, 4, rng_seed=0)
        sets = joint_eval_sets(plan)
        assert len(sets) == 1
        members, idx = sets[0]
        assert members == (0, 1, 2, 3)
        assert np.array_equal(idx, plan.members[0].val_idx)

    def test_overlapping_cyclic_pairs(self):
        plan = make_overlapping(12, 4, rng_seed=0)
        sets = joint_eval_sets(plan)
        assert [mset for mset, _ in sets] == [(0, 1), (1, 2), (2, 3), (3, 0)]
        for (a, b), idx in sets:  # the portion both validation sets hold
            assert np.array_equal(np.sort(idx), np.intersect1d(plan.members[a].val_idx,
                                                               plan.members[b].val_idx))

    def test_disjoint_empty(self):
        plan = make_disjoint(12, 0.25, 4, rng_seed=0)
        assert joint_eval_sets(plan) == []


class TestInvariantsAndDeterminism:
    def test_partition_invariant(self):
        for m in (3, 5):
            for plan in (make_shared(53, 0.2, m, rng_seed=11),
                         make_disjoint(53, 0.1, m, rng_seed=11),
                         make_overlapping(53, m, rng_seed=11)):
                plan.validate()

    def test_same_seed_same_plan(self):
        for maker in (lambda s: make_shared(60, 0.25, 4, s),
                      lambda s: make_disjoint(60, 0.2, 4, s),
                      lambda s: make_overlapping(60, 4, s)):
            a, b = maker(42), maker(42)
            assert (a.strategy, a.n_total, a.rng_seed) == (b.strategy, b.n_total, b.rng_seed)
            assert len(a.members) == len(b.members)
            for ma, mb in zip(a.members, b.members):
                assert np.array_equal(ma.train_idx, mb.train_idx)
                assert np.array_equal(ma.val_idx, mb.val_idx)
            assert pairs_as_lists(a) == pairs_as_lists(b)

    def test_stratified_counts_within_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=200)
        plan = make_disjoint(200, 0.1, 5, rng_seed=3, labels=labels)
        global_frac = np.bincount(labels, minlength=4) / 200
        for ms in plan.members:
            counts = np.bincount(labels[ms.val_idx], minlength=4)
            expected = global_frac * len(ms.val_idx)
            assert np.abs(counts - expected).max() <= 1.0

    @given(st.integers(3, 8), st.sampled_from([17, 100, 251]), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_overlapping_membership_property(self, m, n, seed):
        plan = make_overlapping(n, m, rng_seed=seed)
        val, train = membership_counts(plan)
        assert (val == 2).all()
        assert (train == m - 2).all()


class TestValidate:
    """``SplitPlan.validate`` names the member and the first broken rule."""

    @staticmethod
    def check(train, val, n_total=5):
        plan = SplitPlan("shared", n_total, [
            MemberSplit(np.arange(n_total - 1), np.array([n_total - 1])),
            MemberSplit(np.array(train, dtype=np.intp), np.array(val, dtype=np.intp))])
        plan.validate()

    def test_valid_partition(self):
        self.check([4, 0, 2], [3, 1])

    def test_overlap(self):
        with pytest.raises(SplitError, match="^member 1: train and val overlap$"):
            self.check([0, 1, 2], [2, 3, 4])

    @pytest.mark.parametrize("train, val", [
        ([0, 1, 1, 2], [3, 4]),    # duplicate in train
        ([0, 1, 2], [3, 3, 4]),    # duplicate in val
        ([-1, 0, 1, 2], [3, 4]),   # negative
        ([0, 1, 2], [3, 4, 5]),    # out of range
        ([0, 1, 2], [3]),          # an index missing
    ])
    def test_not_a_partition(self, train, val):
        with pytest.raises(SplitError,
                           match=r"^member 1: train\+val is not a partition of indices$"):
            self.check(train, val)

    @pytest.mark.parametrize("train, val", [([-1, 0, 1, 2], [-1, 3, 4]),
                                            ([0, 1, 2, 7], [3, 4, 7])])
    def test_overlap_outside_range_is_reported_as_overlap(self, train, val):
        with pytest.raises(SplitError, match="^member 1: train and val overlap$"):
            self.check(train, val)
