"""Per-member train/validation index plans: shared, disjoint and overlapping
holdout strategies.

A plan always partitions [0, n_total) into train and validation per member.
When labels are supplied, every random draw is stratified so each index set
preserves class proportions to within one sample per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHARED = "shared"
DISJOINT = "disjoint"
OVERLAPPING = "overlapping"


class SplitError(ValueError):
    """Infeasible or degenerate split request."""


class JointEvalUnavailableError(SplitError):
    """The plan's strategy precludes joint evaluation (disjoint holdouts)."""


@dataclass
class MemberSplit:
    train_idx: np.ndarray
    val_idx: np.ndarray


@dataclass
class SplitPlan:
    strategy: str
    n_total: int
    members: list[MemberSplit]
    joint_pairs: list[tuple[int, int, np.ndarray]] | None = None
    rng_seed: int | None = None

    @property
    def n_members(self) -> int:
        return len(self.members)

    def validate(self) -> None:
        """``SplitError`` unless each member's train and val indices are
        disjoint and together hold every index in [0, n_total) once."""
        n = self.n_total
        for m, ms in enumerate(self.members):
            both = np.concatenate([ms.train_idx, ms.val_idx])
            if both.size and (both.min() < 0 or both.max() >= n):
                # indices outside [0, n) are no partition, but may still overlap
                overlap, partition = np.intersect1d(ms.train_idx, ms.val_idx).size, False
            else:
                in_train = np.zeros(n, dtype=bool)
                in_train[ms.train_idx] = True
                overlap = in_train[ms.val_idx].any()
                partition = both.size == n and (np.bincount(both, minlength=n) == 1).all()
            if overlap:
                raise SplitError(f"member {m}: train and val overlap")
            if not partition:
                raise SplitError(f"member {m}: train+val is not a partition of indices")


def _class_lists(n_total: int, labels, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled index lists, one per class (a single pseudo-class if no labels)."""
    if labels is None:
        return [rng.permutation(n_total).astype(np.intp)]
    labels = np.asarray(labels)
    if labels.shape != (n_total,):
        raise SplitError("labels must be a 1-d array of length n_total")
    out = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        out.append(rng.permutation(idx).astype(np.intp))
    return out


def _stratified_portions(sizes: list[int], n_total: int, labels,
                         rng: np.random.Generator,
                         pool: np.ndarray | None = None) -> list[np.ndarray]:
    """Split ``pool`` (default all indices) into consecutive portions of the
    given sizes, keeping per-class counts within one of proportional.

    Per portion, each class contributes floor(size * n_c / n) samples plus
    largest-remainder extras, consumed sequentially from shuffled class lists.
    """
    if pool is None:
        class_lists = _class_lists(n_total, labels, rng)
    else:
        pool = np.asarray(pool, dtype=np.intp)
        sub_labels = None if labels is None else np.asarray(labels)[pool]
        lists = _class_lists(len(pool), sub_labels, rng)
        class_lists = [pool[l] for l in lists]
    n = sum(len(l) for l in class_lists)
    if sum(sizes) != n:
        raise SplitError("portion sizes must sum to the pool size")
    remaining = [len(l) for l in class_lists]
    cursor = [0] * len(class_lists)
    portions = []
    for size in sizes:
        quotas = [size * len(l) / n for l in class_lists]
        take = [min(int(q), remaining[c]) for c, q in enumerate(quotas)]
        shortfall = size - sum(take)
        order = sorted(range(len(class_lists)),
                       key=lambda c: (quotas[c] - int(quotas[c]), remaining[c] - take[c]),
                       reverse=True)
        while shortfall > 0:
            for c in order:
                if shortfall == 0:
                    break
                if remaining[c] - take[c] > 0:
                    take[c] += 1
                    shortfall -= 1
        chunk = []
        for c, t in enumerate(take):
            chunk.append(class_lists[c][cursor[c]:cursor[c] + t])
            cursor[c] += t
            remaining[c] -= t
        portions.append(np.sort(np.concatenate(chunk)).astype(np.intp))
    return portions


def _val_size(n_total: int, val_fraction: float) -> int:
    if not 0.0 < val_fraction < 1.0:
        raise SplitError(f"val_fraction must be in (0, 1), got {val_fraction}")
    return round(val_fraction * n_total)


def _complement(n_total: int, idx: np.ndarray) -> np.ndarray:
    mask = np.ones(n_total, dtype=bool)
    mask[idx] = False
    return np.flatnonzero(mask).astype(np.intp)


def make_shared(n_total: int, val_fraction: float, n_members: int, rng_seed: int,
                labels=None) -> SplitPlan:
    """One random validation set used identically by every member."""
    if n_members < 1:
        raise SplitError("n_members must be >= 1")
    v = _val_size(n_total, val_fraction)
    if v == 0 or v == n_total:
        raise SplitError(f"validation size {v} of {n_total} leaves no data on one side")
    rng = np.random.default_rng(rng_seed)
    val, _ = _stratified_portions([v, n_total - v], n_total, labels, rng)
    train = _complement(n_total, val)
    members = [MemberSplit(train.copy(), val.copy()) for _ in range(n_members)]
    return SplitPlan(SHARED, n_total, members, rng_seed=rng_seed)


def make_disjoint(n_total: int, val_fraction: float, n_members: int, rng_seed: int,
                  labels=None) -> SplitPlan:
    """Mutually disjoint equal-size validation sets; each member trains on
    everything outside its own validation set."""
    if n_members < 1:
        raise SplitError("n_members must be >= 1")
    v = _val_size(n_total, val_fraction)
    if v == 0:
        raise SplitError("validation size rounds to 0")
    if n_members * v > n_total:
        raise SplitError(
            f"disjoint validation sets need {n_members} x {v} = {n_members * v} "
            f"samples but only {n_total} are available")
    rng = np.random.default_rng(rng_seed)
    portions = _stratified_portions([v] * n_members + [n_total - n_members * v],
                                    n_total, labels, rng)[:n_members]
    members = [MemberSplit(_complement(n_total, val), val) for val in portions]
    return SplitPlan(DISJOINT, n_total, members, rng_seed=rng_seed)


def make_overlapping(n_total: int, n_members: int, rng_seed: int, labels=None,
                     val_fraction: float | None = None) -> SplitPlan:
    """Cyclically overlapping validation sets: member m validates on portions
    S_m and S_{m+1} and trains on the rest.

    By default the portions partition all of [0, n_total), so each member
    validates on about 2/M of the data. If ``val_fraction`` is given, the
    portions are instead drawn from a random subset of
    round(val_fraction * n_total * M / 2) indices so each member's validation
    set has about ``val_fraction * n_total`` samples, and everything outside
    the subset is trained on by every member.
    """
    if n_members < 2:
        raise SplitError("n_members must be >= 2 for overlapping holdouts")
    if n_members == 2:
        raise SplitError("overlapping holdouts are degenerate for 2 members: "
                         "both validation sets would cover all data, leaving "
                         "empty training sets")
    if n_total < n_members:
        raise SplitError("need at least one sample per portion")
    rng = np.random.default_rng(rng_seed)
    if val_fraction is None:
        pool = None
        n_pool = n_total
    else:
        n_pool = round(val_fraction * n_total * n_members / 2.0)
        if n_pool < n_members:
            raise SplitError(f"val_fraction {val_fraction} leaves fewer than one "
                             "sample per portion")
        if n_pool > n_total:
            raise SplitError(f"val_fraction {val_fraction} needs {n_pool} portion "
                             f"samples but only {n_total} are available")
        pool, _ = _stratified_portions([n_pool, n_total - n_pool], n_total, labels, rng)
    base = n_pool // n_members
    extra = n_pool % n_members
    sizes = [base + 1 if i < extra else base for i in range(n_members)]
    portions = _stratified_portions(sizes, n_total, labels, rng, pool=pool)
    members = []
    for m in range(n_members):
        val = np.sort(np.concatenate([portions[m], portions[(m + 1) % n_members]]))
        members.append(MemberSplit(_complement(n_total, val), val.astype(np.intp)))
    pairs = [(m, (m + 1) % n_members, portions[(m + 1) % n_members])
             for m in range(n_members)]
    return SplitPlan(OVERLAPPING, n_total, members, joint_pairs=pairs, rng_seed=rng_seed)


def joint_eval_sets(plan: SplitPlan) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Member subsets that can be evaluated jointly, with their clean indices.

    Shared plans yield one entry covering all members; overlapping plans yield
    one entry per cyclic pair on the portion both share; disjoint plans yield
    nothing, since every validation point is trained on by the other members.
    """
    if plan.strategy == SHARED:
        return [(tuple(range(plan.n_members)), plan.members[0].val_idx)]
    if plan.strategy == OVERLAPPING:
        return [((a, b), idx) for a, b, idx in plan.joint_pairs]
    if plan.strategy == DISJOINT:
        return []
    raise SplitError(f"unknown strategy {plan.strategy!r}")
