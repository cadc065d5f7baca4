import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posauction import stats
from posauction.stats import (PairRelation, bonferroni, bootstrap_compare,
                              classify_pair, point_intervals)

from oracles import classify_pair_reference, stars_reference


def test_constant_diffs_fully_significant():
    res = bootstrap_compare([0.1] * 12, resamples=2000,
                            rng=np.random.default_rng(0))
    assert res.mean_of_means == pytest.approx(0.1)
    assert res.significant_at == {0.05, 0.01}


def test_single_positive_diff_significant():
    res = bootstrap_compare([0.3], resamples=500, rng=np.random.default_rng(1))
    assert res.mean_of_means == pytest.approx(0.3)
    assert 0.05 in res.significant_at


def test_symmetric_diffs_not_significant():
    diffs = [0.4, -0.4] * 25
    res = bootstrap_compare(diffs, resamples=20_000,
                            rng=np.random.default_rng(2))
    # the 5% quantile of a mean of 50 signed coin flips is clearly below 0:
    # P(mean >= 0) is about one half, far above 5%
    assert 0.05 not in res.significant_at
    assert abs(res.mean_of_means) < 0.05


def test_quantile_uses_ceiling_order_statistic():
    # with 100 resamples of a single diff the sorted means are constant, and
    # the alpha quantile is the ceil(alpha * 100)-th smallest
    res = bootstrap_compare([2.0], resamples=100, rng=np.random.default_rng(3),
                            alphas=(0.05,))
    assert res.quantiles[0.05] == 2.0


def test_bootstrap_mean_converges_to_sample_mean():
    rng = np.random.default_rng(4)
    diffs = rng.normal(0.3, 1.0, size=200)
    res = bootstrap_compare(diffs, resamples=20_000, rng=rng)
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(res.mean_of_means - diffs.mean()) < 3 * se


def test_empty_diffs_rejected():
    with pytest.raises(ValueError):
        bootstrap_compare([], rng=np.random.default_rng(0))


def test_bonferroni():
    assert bonferroni(0.05, 10) == pytest.approx(0.005)
    assert bonferroni(0.01, 1) == pytest.approx(0.01)
    assert bonferroni(0.05, 24) == pytest.approx(0.05 / 24)
    with pytest.raises(ValueError):
        bonferroni(0.05, 0)


def _triples(base, spread):
    return np.stack([base - spread, base, base + spread], axis=1)


def test_robust_relation_when_ranges_separate():
    rng = np.random.default_rng(5)
    n = 80
    low = _triples(0.970 + 0.012 * rng.standard_normal(n), 0.001)
    high = _triples(np.ones(n), 0.0)
    rel = classify_pair(point_intervals(low), point_intervals(high),
                        alphas=(0.05 / 48, 0.01 / 48), resamples=4000,
                        rng=np.random.default_rng(6))
    assert rel.kind == "robust"
    assert rel.direction == -1
    assert rel.stars == 2
    assert rel.pretty() == "≤†★★"


def test_selection_relation_when_aligned_but_overlapping():
    rng = np.random.default_rng(7)
    n = 100
    shared = 0.05 * rng.standard_normal(n)
    a = np.stack([0.190 + shared, 0.362 + shared, 0.558 + shared], axis=1)
    b = np.stack([0.172 + shared, 0.328 + shared, 0.489 + shared], axis=1)
    a += 0.005 * rng.standard_normal((n, 3))
    b += 0.005 * rng.standard_normal((n, 3))
    rel = classify_pair(point_intervals(a), point_intervals(b),
                        alphas=(0.05 / 48, 0.01 / 48), resamples=4000,
                        rng=np.random.default_rng(8))
    assert rel.kind == "selection"
    assert rel.direction == 1
    assert rel.stars == 2


def test_spanning_relation():
    rng = np.random.default_rng(9)
    n = 80
    base = 0.4 + 0.1 * rng.standard_normal(n)
    narrow = np.stack([base + 0.05, base + 0.10, base + 0.15], axis=1)
    wide = np.stack([base - 0.10, base + 0.10, base + 0.40], axis=1)
    rel = classify_pair(point_intervals(narrow), point_intervals(wide),
                        alphas=(0.05, 0.01), resamples=4000,
                        rng=np.random.default_rng(10))
    assert rel.kind == "spans"
    assert rel.direction == -1  # narrow nested inside wide
    assert rel.pretty().startswith("⊆")


def test_identical_data_is_incomparable():
    rng = np.random.default_rng(11)
    a = np.sort(rng.random((60, 3)), axis=1)
    rel = classify_pair(point_intervals(a), point_intervals(a),
                        alphas=(0.05, 0.01), resamples=2000,
                        rng=np.random.default_rng(12))
    assert rel == PairRelation("incomparable", 0, 0)
    assert rel.pretty() == "~"


@given(seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_classification_is_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    n = 40
    a = np.sort(rng.random((n, 3)), axis=1)
    b = np.sort(rng.random((n, 3)) * 1.2, axis=1)
    ab = classify_pair(point_intervals(a), point_intervals(b),
                       alphas=(0.05, 0.01), resamples=1000,
                       rng=np.random.default_rng(seed + 1))
    ba = classify_pair(point_intervals(b), point_intervals(a),
                       alphas=(0.05, 0.01), resamples=1000,
                       rng=np.random.default_rng(seed + 1))
    assert ba == PairRelation(ab.kind, -ab.direction, ab.stars)


def test_bound_substitution_blocks_overreaching_claims():
    # a is better on solved instances, but half its games are unsolved with
    # vacuous bounds: under worst-case assignment nothing is claimable
    n = 40
    solved = np.full((n, 3, 2), 0.9)
    a = solved.copy()
    a[::2, :, 0] = 0.0  # lower bound collapses to 0 on unsolved games
    a[::2, :, 1] = 1.0
    b = np.full((n, 3, 2), 0.5)
    rel = classify_pair(a, b, alphas=(0.05, 0.01), resamples=2000,
                        rng=np.random.default_rng(13))
    assert rel.kind == "incomparable"
    # with everything solved the claim is robust
    rel2 = classify_pair(solved, b, alphas=(0.05, 0.01), resamples=2000,
                         rng=np.random.default_rng(14))
    assert rel2.kind == "robust" and rel2.direction == 1


def test_resamples_below_one_rejected():
    a = point_intervals(np.ones((4, 3)))
    for resamples in (0, -1):
        with pytest.raises(ValueError, match="resamples"):
            classify_pair(a, a, resamples=resamples, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_compare([0.1, 0.2], resamples=resamples,
                              rng=np.random.default_rng(0))


# --------------------------------------------------------------------------
# sign counting against the sorting reference

def _check_stars(diffs, rows, alphas, expected):
    """Stars of hand-built resample rows, by sign counting and by sorting."""
    diffs = np.asarray(diffs, dtype=float)
    idx = np.asarray(rows)
    orders = [stats._order_index(a, len(idx)) for a in alphas]
    assert stats._stars_for(diffs, idx, orders) == expected
    assert stars_reference(diffs, idx, alphas) == expected


def test_quantile_exactly_zero_is_significant():
    # (-1 - 1 + 2) / 3 is exactly 0.0
    diffs = [2.0, -1.0, 5.0]
    rows = [[1, 1, 0]] * 3 + [[0, 2, 2]] * 7
    _check_stars(diffs, rows, (0.3, 0.1), 2)
    means = np.sort(np.asarray(diffs)[np.asarray(rows)].mean(axis=1))
    assert means[0] == 0.0 and not np.signbit(means[0])


def test_quantile_exactly_negative_zero_is_significant():
    # -5e-324 / 3 underflows to -0.0, which is not below zero
    diffs = [-5e-324, 0.0, 1.0]
    rows = [[0, 1, 1]] * 4 + [[2, 2, 2]] * 6
    _check_stars(diffs, rows, (0.3, 0.1), 2)
    means = np.sort(np.asarray(diffs)[np.asarray(rows)].mean(axis=1))
    assert means[0] == 0.0 and np.signbit(means[0])


def test_exactly_q_negative_resamples_keep_the_star():
    # alphas (0.3, 0.1) over 10 resamples: the 3rd and the 1st smallest
    diffs = [2.0, -1.0, 5.0]
    negative, positive = [1, 1, 1], [0, 2, 2]
    for count, expected in ((0, 2), (1, 1), (2, 1), (3, 0)):
        rows = [negative] * count + [positive] * (10 - count)
        _check_stars(diffs, rows, (0.3, 0.1), expected)


def test_early_rows_boundary():
    # 3000 resamples at alphas (0.05, 0.01) allow 149 negative means at the
    # first level; the first stats._EARLY_ROWS rows are counted on their own
    diffs = [2.0, -1.0, 5.0]
    negative, positive = [1, 1, 1], [0, 2, 2]
    head = stats._EARLY_ROWS
    for in_head, in_tail, expected in ((149, 0, 1), (150, 0, 0), (100, 49, 1),
                                       (100, 50, 0), (0, 150, 0), (0, 29, 2)):
        rows = ([negative] * in_head + [positive] * (head - in_head)
                + [negative] * in_tail + [positive] * (3000 - head - in_tail))
        _check_stars(diffs, rows, (0.05, 0.01), expected)


KINDS = ("robust", "selection", "spans")


def _diffs(family: str, n: int, z: float, rng) -> np.ndarray:
    """Per-instance differences of one family.  Half of them are moved so
    that the mean lies z bootstrap standard errors above zero (for the
    families of special values, about z/4 of them by one unit), so that
    their stars vary; the other half keep their exact zeros and pairs."""
    if family in ("normal", "zeros", "pairs"):
        x = rng.standard_normal(n)
        if family == "zeros":
            x[rng.random(n) < 0.5] = 0.0
        if family == "pairs":
            x[1::2] = -x[0:n - 1:2]
        bumped = rng.permutation(n) < (n + 1) // 2
        target = z * max(float(x.std()), 1e-3) / math.sqrt(n)
        x[bumped] += (target - x.mean()) * n / bumped.sum()
        return x
    unit, values = {"big": (1.0, (1e16, -1e16, 1.0, -1.0, 0.0)),
                    "subnormal": (5e-324, (5e-324, -5e-324, 1e-323, -1e-323, 0.0)),
                    "huge": (1.0, (1e308, -1e308, 1.0, -1.0)),
                    "inf": (1.0, (np.inf, -np.inf))}[family]
    x = rng.choice(values, size=n)
    if family == "inf":
        x = np.where(rng.random(n) < 0.8, rng.standard_normal(n), x)
    return np.where(rng.random(n) < min(1.0, abs(z) / 4), x + math.copysign(unit, z), x)


def _intervals(kind: str, d: np.ndarray):
    """(a, b) interval arrays whose earliest stage that can fire is ``kind``,
    with component tests on the differences d (exactly, except selection's
    best case)."""
    n = d.size
    a = np.zeros((n, 3, 2))
    b = np.zeros((n, 3, 2))
    if kind == "robust":
        # a is d everywhere, b is 0: every test is on d or -d
        a[:] = d[:, None, None]
    elif kind == "selection":
        # per criterion a sits d above b, but b's best case is far above
        # a's worst case
        big = 4.0 * (1.0 + float(np.abs(d[np.isfinite(d)]).max(initial=0.0)))
        a[:] = d[:, None, None]
        a[:, 2, :] += big
        b[:, 2, :] = big
    else:
        # a spans (-d, 0, d) around b's 0: both spans tests are on d
        a[:, 0, :] = -d[:, None]
        a[:, 2, :] = d[:, None]
    return a, b


def _relation_cases():
    """Deterministic (a, b, alphas, resamples, seed) cases over every size
    and level set, with fewer cases where a case costs more.  Shifts are
    drawn either far from or near the boundaries of the levels, so that
    every kind comes with one star as well as two."""
    rng = np.random.default_rng(2014)
    shifted = ("normal", "zeros", "pairs")
    special = ("big", "subnormal", "huge", "inf")
    far = (-1.0, 0.0, 1.0, 6.0)
    near = {(0.05, 0.01): (1.7, 1.9, 2.1, 2.3),
            (0.05 / 33, 0.01 / 33): (2.9, 3.1, 3.3, 3.5)}
    for n in (1, 2, 3, 8, 13, 50, 200):
        for resamples in (1, 7, 1000, 20_000):
            for alphas, shifts in near.items():
                for case in range(int(np.clip(2e6 // (n * resamples), 1, 16))):
                    kind = KINDS[rng.integers(len(KINDS))]
                    if case % 2:
                        family, z = rng.choice(shifted), rng.choice(shifts)
                    else:
                        family, z = rng.choice(shifted + special), rng.choice(far)
                    a, b = _intervals(kind, _diffs(str(family), n, float(z), rng))
                    yield a, b, alphas, resamples, int(rng.integers(2**32))


def test_sign_counts_match_exact_means():
    # every row's sign, not just the stars: the rounding bound must hold
    # for cancelling 1e16s, underflowing subnormals and overflowing sums
    rng = np.random.default_rng(7)
    with np.errstate(all="ignore"):
        for family in ("normal", "zeros", "pairs", "big", "subnormal", "huge", "inf"):
            for n in (1, 2, 3, 8, 13, 50, 200):
                d = _diffs(family, n, 1.0, rng)
                idx = rng.integers(0, n, size=(3000, n))
                means = d[idx].mean(axis=1)
                counts = stats._sign_counts(d, idx, stats._sum_tolerance(d))
                assert counts == (np.count_nonzero(means < 0.0),
                                  np.count_nonzero(np.isnan(means))), (family, n)


def test_classify_pair_matches_sorting_reference():
    seen = Counter()
    with np.errstate(all="ignore"):
        for a, b, alphas, resamples, seed in _relation_cases():
            for x, y in ((a, b), (b, a)):
                got = classify_pair(x, y, alphas=alphas, resamples=resamples,
                                    rng=np.random.default_rng(seed))
                want = classify_pair_reference(x, y, alphas=alphas,
                                               resamples=resamples,
                                               rng=np.random.default_rng(seed))
                assert got == want, (x, y, alphas, resamples, seed)
                seen[want.kind, want.stars] += 1
    strata = {(k, s) for k in KINDS for s in (1, 2)} | {("incomparable", 0)}
    assert seen.keys() == strata and min(seen.values()) >= 10, seen
