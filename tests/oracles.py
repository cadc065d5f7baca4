"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the payoff kernel (and, for the
equilibrium oracle, the solver): payoffs come from the direct simulator and
search is exhaustive.  The externality tables have a scalar reference too:
:func:`gim_reference_tables` fills them one cell and one lottery term at a
time.  Bootstrap relations have one in :func:`classify_pair_reference`,
which sorts every test's resample means and reads the quantiles.  The
kernel's index arithmetic has one in :func:`table_payoffs_reference`, which
works out each bidder's table configuration one rival at a time.  VCG on
externality settings has one in :func:`gim_vcg_reference`, which enumerates
the orderings afresh for every bidder it leaves out.
"""

import itertools
import math

import numpy as np

from posauction.agg import ActionGraphGame
from posauction.encoders import effective_bid_index
from posauction.mechanisms import (MechanismSpec, apply_weight_rule, rounded_price,
                                   simulate_outcome)
from posauction.models import AuctionSetting, GimSetting
from posauction.stats import PairRelation


def normal_form(setting, mech, allowed):
    """Per-bidder payoff tensors over the allowed-bid grid, via the
    simulator only."""
    shape = tuple(len(a) for a in allowed)
    tensors = [np.zeros(shape) for _ in range(setting.n)]
    for idx in itertools.product(*(range(s) for s in shape)):
        bids = [allowed[i][idx[i]] for i in range(setting.n)]
        u = simulate_outcome(setting, mech, bids).expected_utility
        for i in range(setting.n):
            tensors[i][idx] = u[i]
    return tensors


def brute_force_psne(setting, mech, allowed, tol=1e-9):
    """All pure equilibria by exhaustive deviation checking on the
    simulator-built normal form."""
    tensors = normal_form(setting, mech, allowed)
    out = []
    shape = tuple(len(a) for a in allowed)
    for idx in itertools.product(*(range(s) for s in shape)):
        ok = True
        for i in range(setting.n):
            line = tensors[i][idx[:i] + (slice(None),) + idx[i + 1:]]
            if line.max() > tensors[i][idx] + tol:
                ok = False
                break
        if ok:
            out.append(tuple(allowed[i][idx[i]] for i in range(setting.n)))
    return out


def brute_force_assignment_welfare(setting: AuctionSetting):
    """Max welfare over all injective bidder-to-position assignments,
    including partial ones."""
    n = setting.n
    best = 0.0
    gain = setting.clicks * setting.values
    positions = list(range(n))
    for size in range(n + 1):
        for agents in itertools.combinations(range(n), size):
            for slots in itertools.permutations(positions, size):
                best = max(best, sum(gain[a, s] for a, s in zip(agents, slots)))
    return best


def gim_vcg_reference(setting: GimSetting, reports):
    """Welfare-maximizing ordering, its welfare and the Clarke payments of an
    externality setting under ``reports``, with one fresh enumeration of
    every ordered subset of at most m bidders per question: one for the
    allocation and one per placed bidder for the welfare of the others.
    Returns ``(ordering, welfare, payments)``."""
    n = setting.n

    def welfares(skip=None):
        for size in range(min(n, setting.m) + 1):
            for ordering in itertools.permutations(range(n), size):
                if skip in ordering:
                    continue
                out = np.zeros(n)
                for pos, i in enumerate(ordering):
                    out[i] = (setting.qualities[i]
                              * setting.externality_factor(i, ordering[:pos])
                              * reports[i])
                yield ordering, out

    best, best_out, best_w = (), np.zeros(n), 0.0
    for ordering, out in welfares():
        if float(out.sum()) > best_w + 1e-15:
            best, best_out, best_w = ordering, out, float(out.sum())
    payments = np.zeros(n)
    for i in best:
        others = max([0.0] + [float(out.sum()) for _, out in welfares(skip=i)])
        payments[i] = others - (best_w - best_out[i])
    return best, best_w, payments


def gim_cell(setting: GimSetting, i: int, k: int, tied: int, above: int,
             bottom_price: float, mech: MechanismSpec, lex: bool) -> float:
    """Expected utility of bidder i bidding k with the given rival masks,
    one lottery term at a time."""
    rivals = setting.rivals(i)
    tied_ranks = [r for r in range(len(rivals)) if tied >> r & 1]
    ell = len(tied_ranks)
    q = float(setting.qualities[i])
    v = float(setting.values[i])
    f = setting.externality[i]

    def term(sub_mask: int, prob: float, is_bottom: bool) -> float:
        full = above | sub_mask
        pos = bin(full).count("1") + 1
        clicks = q * float(f[full]) if pos <= setting.m else 0.0
        price = bottom_price if is_bottom else float(k)
        return prob * clicks * (v - price)

    if lex:
        sub = 0
        for r in tied_ranks:
            if rivals[r] < i:
                sub |= 1 << r
        is_bottom = all(rivals[r] < i for r in tied_ranks)
        return term(sub, 1.0, is_bottom)

    total = 0.0
    if mech.gim_tie_lottery == "independent":
        base = 1.0 / (1 << ell)
        for choice in range(1 << ell):
            sub = 0
            for b, r in enumerate(tied_ranks):
                if choice >> b & 1:
                    sub |= 1 << r
            total += term(sub, base, choice == (1 << ell) - 1)
    else:
        for choice in range(1 << ell):
            s = bin(choice).count("1")
            prob = (math.factorial(s) * math.factorial(ell - s)
                    / math.factorial(ell + 1))
            sub = 0
            for b, r in enumerate(tied_ranks):
                if choice >> b & 1:
                    sub |= 1 << r
            total += term(sub, prob, choice == (1 << ell) - 1)
    return total


def gim_reference_tables(setting: GimSetting, mech: MechanismSpec):
    """Per (bidder, positive bid) the (dims, data) of the externality
    encoder's utility table, filled one cell at a time with
    :func:`gim_cell`.  Each rival is one base-3 axis in rank order (0
    below, 1 tied, 2 above), then the price index under GSP."""
    n, k_max = setting.n, mech.k_max
    w = apply_weight_rule(setting, mech)
    ebi = effective_bid_index(w, k_max)
    gsp = mech.family == "gsp"
    lex = mech.tie_rule == "lexicographic"
    r_count = n - 1
    out = {}
    for i in range(n):
        for k in range(1, k_max + 1):
            t = int(ebi.index[i, k])
            prices = [rounded_price(float(ebi.values[r]), float(w[i]), mech.rounding)
                      for r in range(t)]
            dims = (3,) * r_count + ((t,) if gsp else ())
            data = np.full(dims, np.nan)
            for digits in itertools.product(range(3), repeat=r_count):
                tied = sum(1 << r for r, d in enumerate(digits) if d == 1)
                above = sum(1 << r for r, d in enumerate(digits) if d == 2)
                if gsp:
                    for r in range(t):
                        data[digits + (r,)] = gim_cell(setting, i, k, tied, above,
                                                       float(prices[r]), mech, lex)
                else:
                    data[digits] = gim_cell(setting, i, k, tied, above, float(k),
                                            mech, lex)
            out[i, k] = dims, data
    return out


def table_payoffs_reference(game: ActionGraphGame, setting, mech: MechanismSpec,
                            profile) -> np.ndarray:
    """Per-bidder payoffs of one pure profile, read by hand from
    ``game.tables``.  Each bidder's configuration comes straight from the
    effective-bid slots: the rivals tied (counting itself) and above under
    uniform ties; tied rivals of smaller id, of larger id, and rivals above
    under lexicographic ties; one rank digit per rival (0 below, 1 tied, 2
    above) in externality settings; then under GSP the slot of the next
    lower bid (0 when none is)."""
    ebi = effective_bid_index(apply_weight_rule(setting, mech), mech.k_max)
    slot = [int(ebi.index[i, b]) for i, b in enumerate(profile)]
    payoffs = np.zeros(len(profile))
    for i, t in enumerate(slot):
        rivals = [j for j in range(len(profile)) if j != i]
        if isinstance(setting, GimSetting):
            config = [(slot[j] >= t) + (slot[j] > t) for j in rivals]
        elif mech.tie_rule == "lexicographic":
            config = [sum(slot[j] == t for j in rivals if j < i),
                      sum(slot[j] == t for j in rivals if j > i),
                      sum(slot[j] > t for j in rivals)]
        else:
            config = [1 + sum(slot[j] == t for j in rivals), sum(slot[j] > t for j in rivals)]
        if mech.family == "gsp":
            config.append(max([slot[j] for j in rivals if slot[j] < t], default=0))
        table = game.tables[game.agents[i][profile[i]]]
        config = config if profile[i] else []  # bid 0: one constant entry
        payoffs[i] = table.data[tuple(c - lo for c, lo in zip(config, table.lo))]
    return payoffs


def _reference_quantile(sorted_means: np.ndarray, alpha: float) -> float:
    """Order statistic at the ceiling index of alpha * resamples (1-based)."""
    r = len(sorted_means)
    idx = max(math.ceil(alpha * r), 1) - 1
    return float(sorted_means[idx])


def stars_reference(diffs: np.ndarray, idx: np.ndarray, alphas) -> int:
    """0 if not significant at alphas[0]; else 1 + (significant at each
    further, stricter level).  A directed claim needs a strictly positive
    estimated difference: all-zero differences support no direction."""
    if not diffs.mean() > 0.0:
        return 0
    means = np.sort(diffs[idx].mean(axis=1))
    stars = 0
    for a in alphas:
        if _reference_quantile(means, a) >= 0.0:
            stars += 1
        else:
            break
    return stars


def classify_pair_reference(a, b, alphas=(0.05, 0.01), resamples: int = 20_000,
                            rng=None) -> PairRelation:
    """``posauction.stats.classify_pair`` as it reads the quantiles: every
    component test gathers and sorts all its resample means, in the order
    robust, selection (min of three), spans (min of two)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 3 or a.shape[1:] != (3, 2):
        raise ValueError("expected aligned (N, 3, 2) interval arrays")
    if rng is None or not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = a.shape[0]
    idx = rng.integers(0, n, size=(resamples, n))

    def beats(x_lo: np.ndarray, y_hi: np.ndarray) -> int:
        return stars_reference(x_lo - y_hi, idx, alphas)

    MIN, MED, MAX = 0, 1, 2
    LO, HI = 0, 1

    for direction, hi_side, lo_side in ((+1, a, b), (-1, b, a)):
        stars = beats(hi_side[:, MIN, LO], lo_side[:, MAX, HI])
        if stars:
            return PairRelation("robust", direction, stars)
    for direction, hi_side, lo_side in ((+1, a, b), (-1, b, a)):
        stars = min(beats(hi_side[:, c, LO], lo_side[:, c, HI])
                    for c in (MIN, MED, MAX))
        if stars:
            return PairRelation("selection", direction, stars)
    # spans: narrow side has the better worst case, wide side the better best
    for direction, wide, narrow in ((+1, a, b), (-1, b, a)):
        stars = min(beats(narrow[:, MIN, LO], wide[:, MIN, HI]),
                    beats(wide[:, MAX, LO], narrow[:, MAX, HI]))
        if stars:
            return PairRelation("spans", direction, stars)
    return PairRelation("incomparable", 0, 0)
