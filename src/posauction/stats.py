"""Blocked means-of-means bootstrap tests and pairwise relation classing.

A directed claim "A beats B" is tested on per-instance differences of
normalized metric values: resample the difference set with replacement,
average, repeat, and call the claim significant at level alpha when the
alpha-quantile of the resampled means is weakly above zero.  Unsolved games
enter as (lower, upper) bound intervals; a claim about A against B always
uses A's lower and B's upper bound, so no claim survives that would not
hold under the worst-case bound assignment.

Pairs are classed, strongest first, as: robustly superior (A's worst case
beats B's best case, printed with a dagger), superior up to equilibrium
selection (best vs best, median vs median, worst vs worst, all in the same
direction), spanning (one range strictly inside the other), or incomparable.

The classing never sorts.  Over R resample means, the q-th smallest
(q = ceil(alpha * R) - 1) is >= 0 exactly when at most q means are negative
and fewer than R - q are NaN, so only the signs of the means are needed.
They come from row sums added in whatever order is fastest: adding n terms
in any order lands within gamma_n * n * max|d| of the exact sum, with
gamma_n = n*u / (1 - n*u), so a sum farther than twice that from zero (plus
n * tiny, for the division by n underflowing to -0.0) has the sign that
``d[idx].mean(axis=1)`` gives; the rows inside that band, and any whose sum
could overflow, are recomputed with that expression.  Differences that are
all >= 0 have no negative mean at all.  Stars are therefore exactly those
of sorting the means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BootstrapResult:
    mean_of_means: float
    quantiles: dict[float, float]
    resamples: int
    significant_at: frozenset[float]


@dataclass(frozen=True)
class PairRelation:
    """Classed comparison of mechanisms A and B on one metric.

    ``direction`` is numeric: +1 means A's metric values sit above B's
    (for robust/selection), or A's range contains B's (for spans); -1 the
    opposite; 0 for incomparable.  ``stars`` is the strongest significance
    level that survived (1 = the first alpha, 2 = the second), already
    Bonferroni-adjusted by the caller.
    """

    kind: str
    direction: int
    stars: int

    def pretty(self) -> str:
        if self.kind == "incomparable":
            return "~"
        mark = {"robust": ("≥†", "≤†"),
                "selection": ("≥", "≤"),
                "spans": ("⊇", "⊆")}
        up, down = mark[self.kind]
        sym = up if self.direction > 0 else down
        return sym + "★" * self.stars


def bonferroni(alpha: float, num_tests: int) -> float:
    """Multiple-testing correction: divide the level by the test count."""
    if num_tests < 1:
        raise ValueError("need at least one test")
    return alpha / num_tests


def _order_index(alpha: float, resamples: int) -> int:
    """0-based index of the alpha-quantile: the ceiling of alpha * resamples
    (1-based), at least the smallest."""
    return max(math.ceil(alpha * resamples), 1) - 1


def _quantile(sorted_means: np.ndarray, alpha: float) -> float:
    """Order statistic at the ceiling index of alpha * resamples (1-based)."""
    return float(sorted_means[_order_index(alpha, len(sorted_means))])


def _check_resamples(resamples: int) -> None:
    if resamples < 1:
        raise ValueError(f"resamples must be at least 1, got {resamples}")


def bootstrap_compare(diffs, resamples: int = 20_000, rng=None,
                      alphas=(0.05, 0.01)) -> BootstrapResult:
    """Means-of-means bootstrap over a per-instance difference set."""
    diffs = np.asarray(diffs, dtype=float)
    if diffs.size == 0:
        raise ValueError("empty difference set")
    _check_resamples(resamples)
    if rng is None or not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    idx = rng.integers(0, diffs.size, size=(resamples, diffs.size))
    means = np.sort(diffs[idx].mean(axis=1))
    quantiles = {a: _quantile(means, a) for a in alphas}
    significant = frozenset(a for a, q in quantiles.items() if q >= 0.0)
    return BootstrapResult(float(means.mean()), quantiles, resamples, significant)


#: resample rows counted before a test may stop early: once more rows than
#: the loosest level allows are negative, no level can be significant
_EARLY_ROWS = 2048

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny
# while n * max|d| stays below this, no partial sum of n terms overflows
_SAFE_TOTAL = np.finfo(float).max / 4


def _sum_tolerance(diffs: np.ndarray) -> float:
    """How far a resample's row sum, added in any order, may lie from zero
    and still not fix the sign of ``diffs[row].mean()``.

    Any summation order of n terms errs by at most gamma_n * sum|x| with
    gamma_n = n*u / (1 - n*u) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2), so two orders differ by at most twice that, and
    sum|x| <= n * max|diffs|.  ``n * tiny`` covers the division by n, which
    can underflow a tiny negative sum to -0.0.  (gamma_n, not gamma_(n-1),
    leaves room for the rounding of this product.)  Infinite when a partial
    sum could overflow, or a difference is infinite, so that every row is
    then decided by the exact expression.
    """
    n = diffs.size
    total = n * float(np.abs(diffs).max())
    if not total < _SAFE_TOTAL:
        return math.inf
    gamma = n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
    return 2 * gamma * total + n * _TINY


def _sign_counts(diffs: np.ndarray, idx: np.ndarray, tol: float) -> tuple[int, int]:
    """Numbers of rows of ``idx`` whose resample mean
    ``diffs[idx].mean(axis=1)`` is negative and NaN.

    Row sums come from ``einsum``, which calls no BLAS.  A row whose sum
    lies beyond ``tol`` has the sign of its sum; the rest, including
    non-finite sums, are recomputed with the exact expression."""
    sums = np.einsum("ij->i", diffs[idx])
    negative = int(np.count_nonzero(sums < -tol))
    unsure = ~(np.abs(sums) > tol)
    nan = 0
    if unsure.any():
        means = diffs[idx[unsure]].mean(axis=1)
        negative += int(np.count_nonzero(means < 0.0))
        nan = int(np.count_nonzero(np.isnan(means)))
    return negative, nan


def _stars_for(diffs: np.ndarray, idx: np.ndarray, orders: list[int]) -> int:
    """0 if not significant at the first level; else 1 + (significant at
    each further level), where ``orders`` holds each level's order-statistic
    index (``_order_index``).  The caller has checked that the estimated
    difference is strictly positive.

    A level with index q is significant when the q-th smallest resample mean
    is >= 0 (-0.0 included).  Sorted, the means are the negatives, then the
    rest, then any NaN, so that holds exactly when at most q means are
    negative and fewer than R - q are NaN: only the signs are needed, and
    ``_sign_counts`` finds them exactly within the bound of
    ``_sum_tolerance``.
    """
    negative = nan = 0
    # a mean of differences that are all >= 0 is neither negative nor NaN
    if not diffs.min() >= 0.0:
        tol = _sum_tolerance(diffs)
        negative, nan = _sign_counts(diffs, idx[:_EARLY_ROWS], tol)
        if negative > orders[0]:
            return 0
        if len(idx) > _EARLY_ROWS:
            more_negative, more_nan = _sign_counts(diffs, idx[_EARLY_ROWS:], tol)
            negative += more_negative
            nan += more_nan
    stars = 0
    for q in orders:
        if negative <= q and nan < len(idx) - q:
            stars += 1
        else:
            break
    return stars


def classify_pair(a, b, alphas=(0.05, 0.01), resamples: int = 20_000,
                  rng=None) -> PairRelation:
    """Class one ordered mechanism pair on one metric.

    ``a`` and ``b`` are (N, 3, 2) arrays: per instance, the min/median/max
    selection values as (lower, upper) intervals (equal bounds when the
    game was solved).  ``alphas`` must be ordered loosest first and already
    Bonferroni-adjusted.  One instance-index resample matrix is shared by
    every component test, which keeps the classification antisymmetric
    under swapping A and B.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 3 or a.shape[1:] != (3, 2):
        raise ValueError("expected aligned (N, 3, 2) interval arrays")
    _check_resamples(resamples)
    if rng is None or not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = a.shape[0]
    idx = rng.integers(0, n, size=(resamples, n))
    orders = [_order_index(alpha, resamples) for alpha in alphas]

    def beats(*claims) -> int:
        """Stars of the weakest claim x_lo > y_hi.  The tests are pure given
        ``idx``, so the cheap positive-mean guards all go first, and the
        stars of later tests matter only up to the weakest so far."""
        diffs = [x_lo - y_hi for x_lo, y_hi in claims]
        if not all(d.mean() > 0.0 for d in diffs):
            return 0
        stars = len(orders)
        for d in diffs:
            if not stars:
                break
            stars = _stars_for(d, idx, orders[:stars])
        return stars

    MIN, MED, MAX = 0, 1, 2
    LO, HI = 0, 1

    for direction, hi_side, lo_side in ((+1, a, b), (-1, b, a)):
        stars = beats((hi_side[:, MIN, LO], lo_side[:, MAX, HI]))
        if stars:
            return PairRelation("robust", direction, stars)
    for direction, hi_side, lo_side in ((+1, a, b), (-1, b, a)):
        stars = beats(*((hi_side[:, c, LO], lo_side[:, c, HI])
                        for c in (MIN, MED, MAX)))
        if stars:
            return PairRelation("selection", direction, stars)
    # spans: narrow side has the better worst case, wide side the better best
    for direction, wide, narrow in ((+1, a, b), (-1, b, a)):
        stars = beats((narrow[:, MIN, LO], wide[:, MIN, HI]),
                      (wide[:, MAX, LO], narrow[:, MAX, HI]))
        if stars:
            return PairRelation("spans", direction, stars)
    return PairRelation("incomparable", 0, 0)


def point_intervals(values: np.ndarray) -> np.ndarray:
    """Lift an (N, 3) min/median/max value array to solved (N, 3, 2)
    intervals."""
    values = np.asarray(values, dtype=float)
    return np.stack([values, values], axis=-1)
