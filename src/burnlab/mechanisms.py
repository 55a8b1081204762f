"""The mechanisms of the money-burning setting, each rule written once.

Residual surplus is total allocated value minus all payments; payments here
are burnt, not collected, so every mechanism tries to allocate well while
charging as little as incentives allow.

Each closed-form mechanism is one rowwise marginal rule
rule(V, k, ...) -> (X, P): rows of V are bid profiles, X holds the win
probabilities and P the interim expected payments, coin flips integrated
out. The rules: the lottery at price p (_lottery_rule), the top-share rule
(Vickrey is top-share(k, k), the price ladder the mean of its rungs, the
two-agent mixture Vickrey/3 + 1/3) and the two-price lottery (_two_price,
sure winners paying _blended_price), whose rows are _pq_rule's and the
bridged rows of the prior-optimal _bayes_rule.

MECHANISMS, at the end, maps each mechanism name to the Params it reads
(p, q, the ironed prior iv) and its views: each row's exact value (which
RSOL's estimate averages over drawn profiles), one profile's for `burnlab
eval` and evaluate, the run for run, the rule for the identity checks, the
interim (_tiled) for the audits and a rank rule's exact value under a prior
for the estimator. A rule's values are its row residual (_residual), and its
run is its row, or with an rng one draw of it (_run); the ladder draws its
round first, and Bayes checks the profile against the prior's support.
evaluate(name, profile, k, **params), run(name, profile, k, rng, **params)
and the audits read the table through _entry, the prior side through unpriced.

RSOL (random-sampling optimal lottery: learn a price on a random half of the
agents, apply it or Vickrey to the other half) has no rowwise rule. Given a
halving, the price is one kernel, _learned_price, and the realized run draws
either branch's rule row on the serving half. Vickrey on a random half is a
closed form on the odds of each rank (_rank_odds): a mean (_vickrey_half)
and an audit interim. The lottery alone needs the halvings: the MC value
(_rsol_values) draws them, and the exact value, at every unit count asked,
is one pass over the agents in descending order (_rsol_exact), a Pascal
step each: a run of c equal values gives c + 1 classes of halvings, weighted
C(c, m), so a profile costs prod(c + 1) states, 2^n if distinct. The audit
interim sums the opponents' halvings (_rsol_halving_sums) for every agent of
a profile in one call on one shared row, a bid per region that 0 and the
values cut out (_rsol_table), and reads each bid's answer (_rsol_interim).

Under an i.i.d. prior the lottery, Vickrey, Bayes, the ladder and the
two-agent mixture are rank rules: an agent's interim win probability xbar
depends only on its quantile. Each one's xbar is derived from its rule
(_rank_xbar) but Bayes's, whose rule reads the prior (_bayes_xbar), and its
prior view integrates the payment identity over xbar once on the ironing
grid, with no profile drawn (_rank_prior); the lottery's is the closed form
min(k, n) * mean. The estimator and expected_under_prior read the prior
view, the ironing-dominance check xbar itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .common import (_PASS_CELLS, MIN_REPLICATES, MechanismEval, mc_blocks,
                     mc_eval, substream)
from .distributions import _require_in_support, as_profile
from .ironing import IronedVirtual, check_ironed_for, iron

COST_AGENT_CAP = 20
RSOL_EXACT_CAP = 20
_K_MAX = int(np.iinfo(np.intp).max)  # the most units numpy can index


@dataclass(frozen=True)
class Outcome:
    """Result of one mechanism run.

    In realized mode allocation holds win indicators; in marginal mode it
    holds win probabilities and payments are interim expected payments, so
    residual_surplus is the exact expected residual for the profile, and
    in either mode allocation.sum() is the units used.
    """

    allocation: np.ndarray
    payments: np.ndarray
    utilities: np.ndarray
    residual_surplus: float
    mode: str


def _outcome(values: np.ndarray, alloc: np.ndarray, pay: np.ndarray,
             mode: str) -> Outcome:
    util = values * alloc - pay
    return Outcome(alloc, pay, util, float(util.sum()), mode)


def _require_k(k: int):
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k: need an integer number of units, got {k!r}")
    if k < 1:
        raise ValueError("need at least one unit")
    if k > _K_MAX:
        raise ValueError(f"at most {_K_MAX} units supported, got {k}")


def _require_agents(i, n: int):
    a = np.asarray(i).reshape(-1)
    bad = a[(a < 0) | (a >= n)] if a.dtype.kind in "iu" else a
    if bad.size:
        raise ValueError(f"agent must be an integer in 0..{n - 1}, got {bad[0].item()!r}")


# ---------------------------------------------------------------------------
# views shared by every rule


def _residual(V: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Residual surplus sum(v*x - p) of each row of a rule's output."""
    return (V * X - P).sum(axis=1)


def _expected(rule, profile, *args) -> float:
    """Exact expected residual of one profile: the residual of its rule row."""
    V = as_profile(profile).values[None, :]
    return float(_residual(V, *rule(V, *args))[0])


def _tiled(rule):
    """A marginal rule's interim: one row per bid, the bid in the column of
    its agent, i (an int, or an int array aligned with the bids), in blocks
    of at most _PASS_CELLS cells; with no bids the rule runs once, on none."""
    def interim(values, i, bids):
        v = np.asarray(values, dtype=float)
        _require_agents(i, v.size)
        b, agent = np.broadcast_arrays(np.asarray(bids, dtype=float).reshape(-1), i)
        rows = max(1, _PASS_CELLS // max(v.size, 1))
        x, pay = np.empty((2, b.size))
        for s in range(0, max(b.size, 1), rows):
            V = np.tile(v, (b[s:s + rows].size, 1))
            # each row's bid cell in the flattened rows; cheaper than 2-D indexing
            cell = np.arange(0, V.size, v.size) + agent[s:s + rows]
            V.reshape(-1)[cell] = b[s:s + rows]
            X, P = rule(V)
            x[s:s + rows], pay[s:s + rows] = X.reshape(-1)[cell], P.reshape(-1)[cell]
        return x, pay
    return interim


def _run(v: np.ndarray, X: np.ndarray, P: np.ndarray, rng) -> Outcome:
    """The marginal outcome of a one-row rule output (X, P), or with an rng
    one draw of it in which each agent wins with probability exactly x: the
    sure winners (x = 1) win, and the band (0 < x < 1) shares round(sum x)
    units by systematic sampling, its x laid end to end in a uniformly random
    order and hit by the points u, u + 1, ... for one uniform u, so an equal-x
    band wins as a uniform random subset. Band winners pay p/x."""
    x, p = X[0], P[0]
    if rng is None:
        return _outcome(v, x, p, "marginal")
    sure = x == 1.0
    band = np.flatnonzero(~sure & (x > 0))
    alloc = sure * 1.0
    pay = np.where(sure, p, 0.0)
    if band.size:
        order = rng.permutation(band)
        ends = np.cumsum(x[order])
        points = rng.random() + np.arange(round(ends[-1]))
        # the last end may round below the last point: clip to the band
        win = order[np.minimum(np.searchsorted(ends, points, side="right"),
                               band.size - 1)]
        alloc[win] = 1.0
        pay[win] = p[win] / x[win]
    return _outcome(v, alloc, pay, "realized")


# ---------------------------------------------------------------------------
# single-price lotteries


def _lottery_rule(V: np.ndarray, k: int, p: float | np.ndarray,
                  strict: bool = False):
    """k units shared uniformly among the m agents with v >= p (v > p when
    strict), each winning with probability min(k, m)/m; winners pay p, one
    price or a column of per-row prices."""
    _require_k(k)
    # written so that NaN and infinite prices fail
    if not np.all((p >= 0) & (p < np.inf)):
        raise ValueError("price must be a finite nonnegative number")
    elig = V > p if strict else V >= p
    m = elig.sum(axis=1, keepdims=True)
    X = elig * (np.minimum(k, m) / np.maximum(m, 1))
    return X, X * p


def _lottery_value(profile, k: int, p: float) -> float:
    # the row residual with the common win probability factored out of the
    # sum, which keeps the values of small profiles exact
    v = as_profile(profile).values
    x = _lottery_rule(v[None, :], k, p)[0][0]
    return float(x.max(initial=0.0) * (v[x > 0] - p).sum())


def _price_runs(V_desc: np.ndarray, pool):
    """Each row's prices, its values and then 0, with the count m and sum
    (added in descending order) of the pool agents above each, those ahead
    of its run of equal prices, and a mask of each run's first. V_desc
    (nonnegative, sorted descending along the last axis) and pool broadcast."""
    column = V_desc.shape[:-1] + (1,)
    prices = np.concatenate((V_desc, np.zeros(column)), axis=-1)
    run_start = prices != np.concatenate((np.full(column, -1.0), V_desc), axis=-1)
    w = np.where(pool, V_desc, 0.0)
    ahead = np.concatenate((np.zeros(w.shape[:-1] + (1,)), w), axis=-1)
    # ahead > 0 counts the pool, as pool agents at 0 are above no price; both
    # prefixes only grow along the row, so a running max holds each run's start
    counts, sums = np.cumsum(ahead > 0, axis=-1), np.cumsum(ahead, axis=-1)
    m = np.maximum.accumulate(np.where(run_start, counts, 0), axis=-1)
    tops = np.maximum.accumulate(np.where(run_start, sums, 0.0), axis=-1)
    return prices, m, tops, run_start


def _learned_price(V_desc: np.ndarray, pool, k: int):
    """Best (value, price) of the strict lottery on each row's pool, smallest
    price on ties, over _price_runs: between pool values the lottery value
    falls in p, so a value outside the pool never beats the next lower one."""
    prices, m, tops, _ = _price_runs(V_desc, pool)
    # with no pool agent above a price (m = 0) its sum is 0 and so is its value
    vals = np.minimum(k, m) / np.maximum(m, 1) * (tops - m * prices)
    best = vals.max(axis=-1)
    return best, np.where(vals == best[..., None], prices, np.inf).min(axis=-1)


# ---------------------------------------------------------------------------
# two-price lotteries


def _blended_price(k, s, t, lo, hi):
    """Price of the s sure winners above hi when the t agents in (lo, hi]
    share the other k - s units at lo: by the payment identity, bidding into
    the band would still win with probability (k - s + 1)/(t + 1)."""
    return ((k - s + 1) * lo + (s + t - k) * hi) / (t + 1)


def _two_price(top: np.ndarray, band: np.ndarray, k: int, lo, hi):
    """Two-price lottery, rowwise, on masks of its s top and t band agents at
    prices lo <= hi, scalars or per-row columns: the top share k units at hi
    if s > k, all win at lo if s + t <= k, else the top win surely at
    _blended_price and the band shares the other k - s units at lo."""
    s = top.sum(axis=1, keepdims=True)
    t = band.sum(axis=1, keepdims=True)
    crowded = s > k
    fits = ~crowded & (s + t <= k)
    X = np.where(crowded, top * (k / np.maximum(s, 1)),
                 np.where(fits, top | band,
                          top + band * ((k - s) / np.maximum(t, 1))))
    price = np.where(crowded, hi,
                     np.where(top & ~fits, _blended_price(k, s, t, lo, hi), lo))
    return X, X * price


def _pq_rule(V: np.ndarray, k: int, p: float, q: float):
    """_two_price with the values above p on top and those in (q, p] in the
    band."""
    _require_k(k)
    if not 0 <= q <= p < math.inf:
        raise ValueError("prices must be finite and satisfy 0 <= q <= p")
    top = V > p
    return _two_price(top, (V > q) & ~top, k, q, p)


# ---------------------------------------------------------------------------
# Vickrey and the other top-share rules


def _top_share_rule(V: np.ndarray, V_asc: np.ndarray, tops, units: int):
    """For each size L in tops, the top L agents share `units` units at the
    L+1-st value (0 if there is none), ties there broken uniformly. V_asc is
    V sorted along rows; X and P have shape (rows, len(tops), n)."""
    n = V.shape[1]
    tau = (V_asc[:, [max(n - L - 1, 0) for L in tops]] if n
           else np.zeros((V.shape[0], len(tops))))
    tau[:, [L >= n for L in tops]] = 0.0
    tau = tau[..., None]
    above = V[:, None, :] > tau
    at = V[:, None, :] == tau
    seats = np.array([[min(L, n)] for L in tops])
    share = np.array([[min(units, L) / L] for L in tops])
    in_top = ((seats - above.sum(axis=2, keepdims=True))
              / np.maximum(at.sum(axis=2, keepdims=True), 1))
    X = share * (above + at * in_top)
    return X, X * tau


def _vickrey_rule(V: np.ndarray, k: int, V_asc: np.ndarray | None = None):
    """k-unit Vickrey: the top k win and pay the k+1-st value."""
    _require_k(k)
    X, P = _top_share_rule(V, np.sort(V, axis=1) if V_asc is None else V_asc,
                           [k], k)
    return X[:, 0], P[:, 0]


# ---------------------------------------------------------------------------
# prior-dependent optimal mechanism


def _bayes_rule(iv: IronedVirtual, V: np.ndarray, k: int):
    """Marginal allocation and payments of the optimal mechanism, rowwise.

    V is (rows, n); returns (X, P) of the same shape. Rows are independent
    profiles. When the k+1-st value sits on a bridged hull segment, the row
    is _two_price at the segment's anchors, the agents above its ironed level
    on top and those at it, [v_lo, v_hi) in value, in the band. Otherwise
    equal ironed levels are refined by value, which reduces the row to a
    Vickrey auction; refining this way keeps the interim rule a step function
    at exact profile values, so the payment identity holds to float precision
    instead of grid precision. No support validation: off-support bids get
    the clipped-grid ironed value, as the mechanism itself treats them.
    """
    _require_k(k)
    n = V.shape[1]
    if n <= k:
        return _vickrey_rule(V, k)
    V_asc = np.sort(V, axis=1)
    seg = iv.segment_of(V_asc[:, n - k - 1])
    bridged = ~np.isnan(iv.segment_anchors[0][seg])
    if not bridged.any():
        return _vickrey_rule(V, k, V_asc)
    if bridged.all():
        return _bridged_rows(iv, V, k, seg)
    # each branch runs on its own rows only: rows are independent
    X, P = np.empty(V.shape), np.empty(V.shape)
    b, u = np.flatnonzero(bridged), np.flatnonzero(~bridged)
    X[u], P[u] = _vickrey_rule(V[u], k, V_asc[u])
    X[b], P[b] = _bridged_rows(iv, V[b], k, seg[b])
    return X, P


def _bridged_rows(iv: IronedVirtual, V: np.ndarray, k: int, seg):
    """_bayes_rule's rows whose k+1-st value sits on bridged hull segment seg
    (one per row): _two_price at the segment's anchors on the ironed levels."""
    c = iv.slopes[seg][:, None]
    lo, hi = (anchor[seg][:, None] for anchor in iv.segment_anchors)
    levels = iv.value(V)
    return _two_price(levels > c, levels == c, k, lo, hi)


def _bayes_run(profile, k: int, iv: IronedVirtual, rng) -> Outcome:
    """Bayes's run view: the optimal mechanism for the prior behind iv
    (_bayes_rule) on one profile, which must lie in the prior's support:
    _run of its rule row."""
    _require_k(k)
    v = as_profile(profile).values
    _require_in_support(iv.dist, v)
    return _run(v, *_bayes_rule(iv, v[None, :], k), rng)


# ---------------------------------------------------------------------------
# general costs


@dataclass(frozen=True)
class CostProblem:
    """Per-agent virtual value functions plus a subset service cost."""

    virtuals: tuple[Callable[[float], float], ...]
    cost: Callable[[frozenset[int]], float]

    def __post_init__(self):
        if len(self.virtuals) > COST_AGENT_CAP:
            raise ValueError(f"at most {COST_AGENT_CAP} agents supported")
        if not math.isfinite(self.cost(frozenset())):
            raise ValueError("cost of the empty set must be finite")


@dataclass(frozen=True)
class CostOutcome:
    chosen: frozenset[int]
    virtual_surplus: float
    tie_count: int


def _subsets(agents) -> list[frozenset[int]]:
    """Every subset of agents, the j-th holding agents[b] for each bit b of j."""
    sets = [frozenset()]
    for i in agents:
        sets += [s | {i} for s in sets]
    return sets


def bayes_optimal_with_costs(prob: CostProblem, profile, rng=None) -> CostOutcome:
    """Exhaustively maximize total virtual value minus subset cost.

    Enumerates all 2^n subsets in mask order, in blocks that share the high
    agents: the subsets of the low 8 agents are built once, each block calls
    cost on their unions with one high subset and scans the finite values.
    Infinite costs exclude a subset. Ties within 1e-12 relative tolerance
    break uniformly when rng is given, else the smallest mask wins.
    """
    v = as_profile(profile).values
    n = v.size
    if n != len(prob.virtuals):
        raise ValueError("profile size must match the number of virtual functions")
    phi = np.array([prob.virtuals[i](float(v[i])) for i in range(n)])
    sums = np.zeros(1)
    for i in range(n):
        sums = np.concatenate((sums, sums + phi[i]))
    low = _subsets(range(min(n, 8)))
    best = 0.0
    best_masks: list[int] = []
    for h, high in enumerate(_subsets(range(8, n))):
        start = h * len(low)
        # no dtype: a cost that is not a number fails here, as in float math
        values = sums[start:start + len(low)] - np.array(
            [prob.cost(s | high) for s in low])
        finite = np.flatnonzero(np.isfinite(values))
        for mask, value in zip((finite + start).tolist(), values[finite].tolist()):
            if not best_masks or value > best + 1e-12 * (1.0 + abs(best)):
                best = value
                best_masks = [mask]
            elif abs(value - best) <= 1e-12 * (1.0 + abs(best)):
                best_masks.append(mask)
    if not best_masks:
        raise ValueError("no subset has finite cost")
    pick = best_masks[0] if rng is None else best_masks[rng.integers(len(best_masks))]
    chosen = frozenset(i for i in range(n) if pick >> i & 1)
    return CostOutcome(chosen, best, len(best_masks))


# ---------------------------------------------------------------------------
# RSOL


@functools.lru_cache(maxsize=64)
def _rank_odds(n: int, k: int) -> np.ndarray:
    """P(Bin(j, 1/2) < k) and P(Bin(j, 1/2) = k), j < n: the chances that fewer
    than k and exactly k of the j agents above one serve, by Pascal's rule
    halved row by row, exact while C(j, i) fits 53 bits, up to j = 56."""
    odds, out = np.eye(1, min(k, n) + 2)[0], np.empty((2, n))
    for j in range(n):
        out[:, j] = odds[:k].sum(), odds[min(k, n + 1)]
        odds = 0.5 * (odds + np.append(0.0, odds[:-1]))
    out.flags.writeable = False
    return out


def _vickrey_half(V_desc: np.ndarray, k: int, halvings: int = 1) -> np.ndarray:
    """Vickrey's residual on a random half of each row of V_desc (descending),
    summed over `halvings` equally likely ones: a value serves with chance
    1/2, wins if fewer than k above it serve, is the price if k do."""
    wins, sets = _rank_odds(V_desc.shape[-1], k)
    return (V_desc * ((wins - k * sets) * (0.5 * halvings))).sum(axis=-1)


def _vickrey_half_interim(k: int, o_desc: np.ndarray, b: np.ndarray):
    """Vickrey's half as an interim (x, pay) at bids b (..., B) of a serving
    bidder against opponents o_desc (..., m) sorted descending. Ties break
    uniformly: the bidder takes a slot r drawn uniformly from the opponents
    not at or below the bid (all, at NaN) to those not below it, wins when
    fewer than k of the r above serve, and pays the one below that serves
    with k - 1 serving above it."""
    o, bid, r = o_desc[..., None, :], b[..., None], np.arange(o_desc.shape[-1] + 1)
    slots = (((~(o <= bid)).sum(axis=-1, keepdims=True) <= r)
             & (r <= (~(o < bid)).sum(axis=-1, keepdims=True)))
    count = slots.sum(axis=-1)
    # the opponent of rank j sets the price at the slots r <= j
    wins, sets = _rank_odds(r.size, k)[0], _rank_odds(r.size, k - 1)[1, :-1]
    price = o * (0.5 * sets) * np.cumsum(slots, axis=-1)[..., :-1]
    return (slots * wins).sum(axis=-1) / count, price.sum(axis=-1) / count


def _rsol_values(V_desc: np.ndarray, member: np.ndarray, k: int) -> np.ndarray:
    """Each (profile, halving) row's expected residual: a fair coin between
    the strict lottery on the serving half at the price learned on the other
    and Vickrey's half, exact. V_desc (descending) and member broadcast."""
    S = V_desc * member
    p2 = _learned_price(V_desc, ~member, k)[1][:, None]
    return 0.5 * (_residual(S, *_lottery_rule(S, k, p2, strict=True))
                  + _vickrey_half(V_desc, k))


def _rsol_expand(F, s: int, V_desc: np.ndarray, first: list, agents: range,
                 coefs: list, pool: np.ndarray) -> int:
    """One Pascal step per agent j, in descending order of value, for every
    unit count at once. Where a run of equal values starts, the s states are
    offered its value v as a price: the m pool agents so far are those above
    it and give its strict-lottery value (coef[m], a 1-D row per count, is
    each winner's share, min(k, m)/m), and a state whose best value so far is
    at most that takes it (so the smallest price wins ties) with the lottery
    the j - m serving agents so far would run at v. The i = j - first[j]
    agents of j's run passed so far split the states into i + 1 blocks, block
    t where t of them serve: j joins the pool in place, and a copy of the last
    block, where j serves, follows, so m is a state's final count (pool) less
    the agents from j on. Halvings that differ only in which agents of a run
    serve meet the same prices and add the same sums, so block t stands for
    C(c, t) of them after a run of c, and a lone agent doubles the states."""
    (ps, ss), offers = F[:2], list(zip(coefs, F[2::2], F[3::2]))
    for j in agents:
        v = V_desc[:, j:j + 1]
        if 0 < j == first[j]:  # the top price, with no pool above, is worth 0
            m, sr = pool[:s] - (agents.stop - j), agents.stop - pool[:s]
            pool_less, serve_less = ps[:, :s] - m * v, ss[:, :s] - sr * v
            for coef, best, lot in offers:
                val = coef[m] * pool_less
                up = val >= best[:, :s]
                np.copyto(best[:, :s], val, where=up)
                np.copyto(lot[:, :s], coef[sr] * serve_less, where=up)
        base = s // (j - first[j] + 1)
        F[:, :, s:s + base] = F[:, :, s - base:s]
        ps[:, :s] += v
        ss[:, s:s + base] += v
        s += base
    return s


@functools.lru_cache(maxsize=64)
def _rsol_plan(n: int, key: int):
    """The pass over n agents whose runs of equal values start at key's set
    bits: each agent's run start; the agents a block of rows steps, all while
    the leaves fit in _PASS_CELLS, else the runs whose states do; the halvings
    each of those states and tails stands for, the first run's block fastest;
    whether a run has two agents; and their pool counts, c - t in block t."""
    starts = [j for j in range(n) if key >> j & 1]
    runs = np.diff(starts + [n])
    states = np.cumprod(runs + 1)
    cut = (runs.size if states[-1] <= _PASS_CELLS
           else int(np.searchsorted(states[:-1], _PASS_CELLS, "right")))
    w, pool = [np.ones(1), np.ones(1)], [np.zeros(1, dtype=np.intp)] * 2
    for i, c in enumerate(runs):
        w[i >= cut] = np.outer([math.comb(c, t) for t in range(c + 1)], w[i >= cut]).ravel()
        pool[i >= cut] = np.add.outer(c - np.arange(c + 1), pool[i >= cut]).ravel()
    for a in w + pool:
        a.flags.writeable = False
    return np.repeat(starts, runs).tolist(), (starts + [n])[cut], *w, runs.max() > 1, *pool


def _rsol_exact(V: np.ndarray, k) -> np.ndarray:
    """Exact expected RSOL residual of each profile row of V: (rows,) at k
    units, or (rows, len(k)) at each count of a tuple k, in one pass over the
    agents in descending order of value, a Pascal step each (_rsol_expand):
    the mean over all 2^n halvings in prod(c + 1) states for runs of c equal
    values, 2^n for distinct ones, rows whose runs start alike together
    (_rsol_plan). A state is a class of halvings: its pool count (the plan's)
    and, in one (2 + 2K, rows, cells) block F, the pool's and the serving
    half's sums, shared by the counts, then per count the best strict-lottery
    value offered so far (the prices are 0 and the row's values, as in
    _learned_price) and the lottery the serving agents above its price run
    at it. Sums add in descending order; Vickrey's half, in whole weights,
    joins them before the one scaling by 0.5 / 2^n, so a subnormal row stays
    exact. Beyond _PASS_CELLS leaves a row is split: groups of the states of
    its first runs step the rest in turn in a second block G, so no field
    exceeds _PASS_CELLS cells."""
    ks = k if isinstance(k, tuple) else (k,)
    for kk in ks or (0,):  # an empty tuple is refused as k = 0 is
        _require_k(kk)
    rows, n = V.shape
    if not 1 <= n <= RSOL_EXACT_CAP:
        raise ValueError(f"exact mode needs 1 to {RSOL_EXACT_CAP} agents")
    V_desc = np.sort(V, axis=1)[:, ::-1]
    # bit j of a row's key is set where a run of equal values starts
    keys = 1 + np.left_shift(V_desc[:, 1:] != V_desc[:, :-1], np.arange(1, n)).sum(axis=1)
    coefs = [np.minimum(kk, np.arange(n + 1)) / np.maximum(np.arange(n + 1), 1) for kk in ks]
    total = np.zeros((len(ks), rows))
    for key in sorted(set(keys.tolist())):
        at = np.flatnonzero(keys == key)
        first, head, w_head, w_tail, tied, pool_head, pool_tail = _rsol_plan(n, key)
        step = max(1, _PASS_CELLS // (w_head.size * w_tail.size))
        F = np.empty((2 + 2 * len(ks), min(at.size, step), w_head.size))
        # split, the tails of groups of the block's states in turn, in G
        group = _PASS_CELLS // w_tail.size
        G = np.empty((F.shape[0], 1, _PASS_CELLS)) if w_tail.size > 1 else F
        for r in range(0, at.size, step):
            rb = at[r:r + step]
            Vb, F[:, :, 0] = V_desc[rb], 0.0
            s = _rsol_expand(F[:, :rb.size], 1, Vb, first, range(head), coefs, pool_head)
            for h in range(0, s, group):
                g = min(group, s - h)
                if G is not F:
                    G[:, :, :g] = F[:, :, h:h + g]
                m = pool_head if G is F else np.add.outer(pool_tail, pool_head[h:h + g]).ravel()
                t = _rsol_expand(G[:, :rb.size], g, Vb, first, range(head, n), coefs, m)
                leaf = G[:, :rb.size, :t]
                ps, ss, rest = leaf[0], leaf[1], n - m
                weights = np.outer(w_tail, w_head[h:h + g]).ravel() if tied else None
                for coef, best, lot, tot in zip(coefs, leaf[2::2], leaf[3::2], total):
                    # each leaf is offered the last price, 0, where the row has no 0
                    take = (coef[m] * ps >= best) & (Vb[:, -1:] != 0)
                    np.copyto(lot, coef[rest] * ss, where=take)
                    if tied:
                        lot *= weights
                    tot[rb] += lot.sum(axis=1)
    total = (total + np.array([_vickrey_half(V_desc, kk, 1 << n) for kk in ks])) * (0.5 / (1 << n))
    return total.T if isinstance(k, tuple) else total[0]


def _rsol_run(profile, k: int, rng) -> Outcome:
    """RSOL's run view, realized only, as it has no marginal rule row.

    Each agent lands in the serving half independently with probability 1/2;
    the other half only sets the price. A fair coin then picks the strict
    lottery at the learned price or Vickrey, and one draw of its rule row on
    the serving half (_run) decides the winners.
    """
    if rng is None:
        raise ValueError("rsol has no marginal run: pass an rng")
    _require_k(k)
    v = as_profile(profile).values
    n = v.size
    if n == 0:
        raise ValueError("need at least one agent")
    serve = rng.random(n) < 0.5
    p2 = float(_learned_price(np.sort(v[~serve])[::-1], True, k)[1])
    S = v[serve][None, :]
    X, P = np.zeros((2, 1, n))
    X[:, serve], P[:, serve] = (_lottery_rule(S, k, p2, strict=True)
                                if rng.random() < 0.5 else _vickrey_rule(S, k))
    return _run(v, X, P, rng)


@functools.lru_cache(maxsize=1)
def _rsol_table(k: int, values: bytes):
    """The region table of the last profile audited, keyed by its values'
    bytes, so an array changed in place keys afresh: the cuts with NaN last
    and every agent's (n, regions) answers x and pay, read-only."""
    v = np.frombuffer(values)
    n, c = v.size, np.unique(np.append(v, 0.0))
    # one bid per region, in order: -inf, each cut, each gap's midpoint (in a
    # form that cannot overflow), +inf and NaN, which sorts last
    row = np.sort(np.concatenate(([-np.inf, np.inf, np.nan], c, c[:-1] + 0.5 * np.diff(c))))
    o = np.broadcast_to(v, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    x, pay = _rsol_halving_sums(k, o, np.broadcast_to(row, (n, row.size)))
    u = np.append(c, np.nan)
    u.flags.writeable = x.flags.writeable = pay.flags.writeable = False
    return u, x, pay


def _rsol_interim(k: int, values, i, bids):
    """RSOL's exact interim rule, agent i (an int, or an int array aligned
    with the bids) against the others' values.

    _rsol_halving_sums compares a bid only with prices and thresholds that
    are 0 or an opponent's value, and its payments do not read the bid. So
    the rule is constant on each region that the cuts c, 0 and every value,
    cut out: below c, at each cut, in each gap, above c, and NaN, where
    every comparison is False; an agent's own cuts are among c, so its
    regions are unions of these. One kernel call asks every agent the same
    row, one bid per region (_rsol_table), even when a call asks for one
    agent. A bid's region is the count of u, c with NaN last, below it plus
    the count at or below it. The kernel adds the halvings of two or more
    bid columns in order, and the row has at least four, so a bid's answer
    is bit for bit the kernel's on any two or more bids that hold it. The
    table is kept for the last profile only, and a call that asks for no
    agent leaves it as is."""
    _require_k(k)
    v = np.asarray(values, dtype=float)
    if v.size > RSOL_EXACT_CAP:
        raise ValueError(f"rsol audits take at most {RSOL_EXACT_CAP} agents")
    _require_agents(i, v.size)
    b = np.asarray(bids, dtype=float).ravel()
    agents = np.broadcast_to(i, b.shape)
    if not b.size:
        return np.empty(0), np.empty(0)
    u, x, pay = _rsol_table(k, v.tobytes())
    key = np.searchsorted(u, b) + np.searchsorted(u, b, "right")
    return x[agents, key], pay[agents, key]


def _rsol_halving_sums(k: int, o: np.ndarray, b: np.ndarray):
    """RSOL's interim at each bid b against the opponents' values o; the
    bidder serves with probability 1/2. o is (..., m) and b (..., B), one
    row of each per agent; the audit's table broadcasts one bid row to all.
    Every halving of the opponents (bit j of its number serves the j-th
    highest; summed in order) meets every bid, in chunks of about
    _PASS_CELLS cells over all the agents: a bid above the price p the
    kernel learns outside the serving half joins the lottery of the M
    serving opponents above p; Vickrey's half is added once, in closed form.
    numpy adds the halvings of two or more bid columns one row after
    another, in order, but a single column's pairwise."""
    o_desc = np.sort(o, axis=-1)[..., ::-1]
    bc, halvings, rank = b[..., None, :], 1 << o.shape[-1], np.arange(o.shape[-1])
    per = max(1, _PASS_CELLS // max(b.size, o.size, 1))
    x = pay = 0.0
    for h in range(0, halvings, per):
        serve = np.arange(h, min(h + per, halvings))[:, None] >> rank & 1 > 0
        p = _learned_price(o_desc[..., None, :], ~serve, k)[1][..., None]
        m = (serve & (o_desc[..., None, :] > p)).sum(axis=-1, keepdims=True) + 1
        xs = np.where(bc > p, np.minimum(k, m) / m, 0.0)
        ps = xs * p
        # the running sums enter each chunk's first row: chunking keeps the order
        xs[..., 0, :], ps[..., 0, :] = xs[..., 0, :] + x, ps[..., 0, :] + pay
        x, pay = xs.sum(axis=-2), ps.sum(axis=-2)
    xv, pv = _vickrey_half_interim(k, o_desc, b)
    return 0.25 * (x / halvings + xv), 0.25 * (pay / halvings + pv)


def expected_rsol(profile, k: int, mode: str = "exact", reps: int | None = None,
                  seed: int | None = None) -> MechanismEval:
    """Expected residual surplus of RSOL over halves, coin, and lotteries.

    Exact mode averages all 2^n halvings (n <= 20), both branches weighted
    1/2, in one pass over the agents (_rsol_exact, <= 2^n states; replicates
    records the 2^n halvings) and takes no reps or seed. MC mode needs both:
    it samples reps >= 30 halvings on seed's stream, each agent serving with
    probability 1/2, for the lottery alone, whose expectation given the
    halving is exact, as Vickrey's half is (_rsol_values), on blocks of at
    most 2^13 (common.mc_blocks), so only the reps values are whole:
    mc_eval's mean and interval are those of one (reps, n) draw."""
    _require_k(k)
    prof = as_profile(profile)
    n = prof.n
    if n == 0:
        raise ValueError("need at least one agent")
    if mode == "exact":
        if reps is not None or seed is not None:
            raise ValueError("exact mode takes no reps or seed")
        return MechanismEval(float(_rsol_exact(prof.values[None, :], k)[0]),
                             0.0, "exact", 1 << n, None)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if reps is None or seed is None:
        raise ValueError("mc mode needs reps and seed")
    if reps < MIN_REPLICATES:
        raise ValueError(f"reps: need at least {MIN_REPLICATES} replicates, "
                         f"got {reps}")
    rng = substream(seed, "rsol", n, k)
    return mc_eval(mc_blocks(lambda shape: rng.random(shape) < 0.5, reps, n,
                             lambda member: _rsol_values(prof.sorted, member, k)),
                   seed)


# ---------------------------------------------------------------------------
# two-agent mixture


def _mix_rule(V: np.ndarray, k: int = 1):
    """1/3 Vickrey, 2/3 free lottery for exactly two agents and one unit."""
    if V.shape[1] != 2 or k != 1:
        raise ValueError("the mixture mechanism is defined for n=2, k=1")
    X, P = _vickrey_rule(V, 1)
    return X / 3.0 + 1.0 / 3.0, P / 3.0


# ---------------------------------------------------------------------------
# logarithmic price ladder


def _ladder_sizes(n: int, k: int) -> list[int]:
    """Serving-set sizes 2^j for the price ladder, clipped to n.

    k rounds down and n rounds up to powers of two to fix the j range; each
    round serves min(2^j, n) agents.
    """
    lo = int(math.floor(math.log2(k)))
    hi = int(math.ceil(math.log2(n)))
    lo = min(lo, hi)
    return [min(1 << j, n) for j in range(lo, hi + 1)]


def _ladder_rule(V: np.ndarray, k: int):
    """Price ladder: a round size L drawn uniformly from the ladder, then
    top-share(L, k), so the top L agents share min(k, L) units at the L+1-st
    value (0 past the end of the profile). No agents, no round: an empty
    profile's rows are empty."""
    _require_k(k)
    if not V.shape[1]:
        return np.zeros(V.shape), np.zeros(V.shape)
    sizes = _ladder_sizes(V.shape[1], k)
    X, P = _top_share_rule(V, np.sort(V, axis=1), sizes, k)
    return X.mean(axis=1), P.mean(axis=1)


def expected_log_price(profile, k: int) -> float:
    """Exact expectation of the price-ladder mechanism (see _ladder_rule)."""
    return _expected(_ladder_rule, profile, k)


def _ladder_run(profile, k: int, rng) -> Outcome:
    """The ladder's run view: its rule row, or with an rng one realized
    round, the round size L drawn and then one draw of the top-share(L, k)
    rule row (see _run)."""
    _require_k(k)
    v = as_profile(profile).values
    if rng is None or not v.size:
        return _run(v, *_ladder_rule(v[None, :], k), rng)
    sizes = _ladder_sizes(v.size, k)
    L = sizes[rng.integers(len(sizes))]
    X, P = _top_share_rule(v[None, :], np.sort(v)[None, :], [L], k)
    return _run(v, X[:, 0], P[:, 0], rng)


# ---------------------------------------------------------------------------
# exact expectations under an i.i.d. prior


def _binom_pmfs(m: int, js: range, p):
    """P(Bin(m, p) = j) for each j in js and p in [0, 1], through logs taken
    once, so large m neither overflows the binomial nor underflows early."""
    with np.errstate(divide="ignore"):
        lp, lq = np.log(p) if js[-1] else None, np.log1p(-p)
    for j in js:
        log = math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
        if j:
            log = log + j * lp
        if m - j:
            log = log + (m - j) * lq
        yield np.exp(log)


def _rank_win(q: np.ndarray, n: int, L: int) -> np.ndarray:
    """Chance that an agent at quantile q is among the top L of n i.i.d.
    agents, P(Bin(n - 1, 1 - q) <= L - 1): fewer than L others lie above."""
    if L >= n:
        return np.ones_like(q)
    return functools.reduce(np.add, _binom_pmfs(n - 1, range(L), 1.0 - q))


def _rank_win_integral(q: float, n: int, k: int) -> float:
    """Integral of _rank_win(s, n, k) over s in [0, q]: E[(B - c)^+] / n for
    B ~ Bin(n, q) and c = max(n - k, 0), because integrating a Bin(n - 1, s)
    term in s gives a Bin(n, q) tail over n."""
    tail = _binom_pmfs(n, range(max(n - k, 0) + 1, n + 1), q)
    return sum(i * float(x) for i, x in enumerate(tail, 1)) / n


def _check_prior(d, n: int, k: int, iv) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    check_ironed_for(d, iv)


def _lottery_prior(d, n: int, k: int, iv) -> tuple[MechanismEval, float]:
    """The free lottery's prior view, a closed form: it sells min(k, n)
    units at the prior mean; its bottom term is min(k, n) * lo, since each
    agent wins min(k, n)/n whatever they bid."""
    _check_prior(d, n, k, iv)
    units = min(k, n)
    return (MechanismEval(units * d.mean, 0.0, "exact", 1, None),
            units * float(d.support[0]))


def _rank_prior(xbar, d, n: int, k: int, iv) -> tuple[MechanismEval, float]:
    """Exact expected residual of a rank rule on n values drawn i.i.d. from
    d, k units, with no profile drawn, and its bottom term n lo xbar(0).

    xbar(q, n, k, iv) returns the rule's interim win probability at the left
    and right end of each cell between the quantile nodes q, and its limit
    xbar(1) at the top. Let lo be the bottom of the support. Nobody pays at
    lo, so the payment identity gives
        n * (lo xbar(0) + xbar(1) (mean - lo) - int (1 - q)(xbar(1) - xbar(q)) dv(q)).
    d.mean carries the tail, and the integrand vanishes at the top. The
    integral is the trapezoid rule on the quantile grid of iv (iron(d) if
    None), with a node (0, lo) in front for the strip below the grid; the
    record's replicate count is that grid. The bottom term is the utility
    the strip of bids below lo earns, which the virtual side of the utility
    identity lacks.
    """
    _check_prior(d, n, k, iv)
    iv = iron(d) if iv is None else iv
    lo = float(d.support[0])
    q = np.concatenate(([0.0], iv.q))
    v = np.concatenate(([lo], iv.v))
    left, right, top = xbar(q, n, k, iv)
    g_left, g_right = (1.0 - q[:-1]) * (top - left), (1.0 - q[1:]) * (top - right)
    # the top cell spans 1 - q from the grid step down to eps, so v can grow
    # by orders of magnitude across it: take its right end, where the
    # integrand has all but vanished
    g_left[-1] = g_right[-1]
    integral = 0.5 * float(((g_left + g_right) * np.diff(v)).sum())
    return (MechanismEval(float(n * (lo * left[0] + top * (d.mean - lo) - integral)),
                          0.0, "exact", iv.grid, None),
            float(n * lo * left[0]))


def _rank_xbar(rule, q, n: int, k: int):
    """A rank rule's xbar from its rule (V, k, a) at Params' defaults: with x_r
    rank r's allocation on n distinct values, x_n + sum_r (x_r - x_{r+1}) *
    _rank_win(q, n, r); a step of 1 is not multiplied, an x_n of 0 not added."""
    x = rule(np.arange(n, 0, -1.0)[None, :], k, Params())[0][0]
    xbar = np.full(q.shape, x[-1]) if x[-1] or not x.any() else None
    for r in np.flatnonzero(x[:-1] != x[1:]).tolist():
        w = _rank_win(q, n, r + 1)
        if x[r] - x[r + 1] != 1.0:
            w *= x[r] - x[r + 1]
        xbar = w if xbar is None else np.add(xbar, w, out=xbar)
    return xbar[:-1], xbar[1:], float(x[0])


def _bayes_xbar(q, n: int, k: int, iv):
    """Bayes's xbar: Vickrey's, averaged exactly over each ironed interval.
    An interval at an end of the grid reaches q = 0 or 1, as the clipped
    lookups do. The trapezoid is taken on each side of a jump."""
    x, top = _rank_win(q, n, k), 1.0
    left, right = x[:-1].copy(), x[1:].copy()
    if n > k:
        for itv in iv.intervals:
            lo = 0.0 if itv.at_bottom else itv.q_lo
            hi = 1.0 if itv.at_top else itv.q_hi
            mean = ((_rank_win_integral(hi, n, k) - _rank_win_integral(lo, n, k))
                    / (hi - lo))
            i0 = 0 if itv.at_bottom else int(np.searchsorted(iv.q, itv.q_lo)) + 1
            i1 = int(np.searchsorted(iv.q, itv.q_hi)) + 1
            left[i0:i1] = right[i0:i1] = mean
            if itv.at_top:
                top = mean
    return left, right, top


def expected_under_prior(name: str, d, n: int, k: int,
                         iv: IronedVirtual | None = None) -> float:
    """Exact expected residual of a rank rule (lottery, plottery0, vickrey,
    bayes, mix or logprice) on n values drawn i.i.d. from d, k units: the
    mean of its table entry's prior view, integrated on the quantile grid of
    iv (iron(d) if None; see _rank_prior), or the free lottery's closed form
    min(k, n) * mean."""
    return unpriced(name, "prior").prior(d, n, k, iv)[0].mean


# ---------------------------------------------------------------------------
# the mechanism table


@dataclass(frozen=True)
class Params:
    """What an entry may read besides k: prices p >= q, Bayes's ironed prior iv."""

    p: float = 0.0
    q: float = 0.0
    iv: IronedVirtual | None = None


@dataclass(frozen=True)
class Mechanism:
    """A MECHANISMS entry: the Params fields it reads and its views, each
    taking the Params as a: its marginal rule (V, k, a) -> (X, P) on profile
    rows (RSOL's raises), each row's exact value (V, k, a), one profile's
    (profile, k, a) for evaluate, its run (profile, k, a, rng) -> Outcome for
    run, its audit interim (k, a) -> (values, i, bids) -> (x, p) and
    edges(a), the bids besides the opponents' where that interim may jump;
    mc(profile, k, reps, seed) estimates profiles above cap agents.
    A rank rule's xbar(q, n, k, iv) -> (left, right, top) is its interim win
    probability at Params' defaults on the quantile nodes q (see
    _rank_prior), derived from its rule (_rank_xbar) but for Bayes's, and
    its prior(d, n, k, iv) -> (MechanismEval, bottom) is its exact expected
    residual on n values drawn i.i.d. from d, integrated on iv, d's ironing
    (built when None), and the part of it earned by bids below the support's
    bottom lo, n lo xbar(0). Both are None for RSOL, no rank rule, and for
    the two-price lottery, whose integral is not written."""

    reads: tuple[str, ...]
    rule: Callable
    value: Callable
    one: Callable
    interim: Callable
    run: Callable
    edges: Callable = lambda a: ()
    cap: float = math.inf
    mc: Callable | None = None
    xbar: Callable | None = None
    prior: Callable | None = None


def _ruled(reads, rule, rank=False, **views) -> Mechanism:
    """An entry whose views are its rule's: the row residual, unless given
    the same for one profile and the profile's rule row as its run (_run),
    the tiled interim and, for a rank rule, its xbar (_rank_xbar) and the
    prior view _rank_prior integrates from it, each unless given."""
    def row_run(prof, k, a, rng):
        v = as_profile(prof).values
        return _run(v, *rule(v[None, :], k, a), rng)

    views.setdefault("one", lambda prof, k, a: _expected(rule, prof, k, a))
    views.setdefault("run", row_run)
    if rank:
        xbar = views.setdefault("xbar", lambda q, n, k, iv: _rank_xbar(rule, q, n, k))
        views.setdefault("prior", lambda d, n, k, iv: _rank_prior(xbar, d, n, k, iv))
    return Mechanism(reads, rule, lambda V, k, a: _residual(V, *rule(V, k, a)),
                     interim=lambda k, a: _tiled(lambda V: rule(V, k, a)), **views)


def _no_rule(V, k, a):
    raise ValueError("rsol has no rowwise marginal rule")


# name -> entry, in the CLI's order. Each entry calls its kernels by their
# module-global names, so a kernel replaced in the module is the one it runs.
MECHANISMS = {
    # one profile: the factored lottery value, exact on small profiles
    "plottery": _ruled(("p",), lambda V, k, a: _lottery_rule(V, k, a.p),
                       one=lambda prof, k, a: _lottery_value(prof, k, a.p),
                       edges=lambda a: (a.p,), rank=True,
                       prior=lambda d, n, k, iv: _lottery_prior(d, n, k, iv)),
    "pqlottery": _ruled(("p", "q"), lambda V, k, a: _pq_rule(V, k, a.p, a.q),
                        edges=lambda a: (a.q, a.p)),
    "vickrey": _ruled((), lambda V, k, a: _vickrey_rule(V, k), rank=True),
    # one profile: checked against the prior's support
    "bayes": _ruled(("iv",), lambda V, k, a: _bayes_rule(a.iv, V, k),
                    one=lambda prof, k, a: _bayes_run(
                        prof, k, a.iv, None).residual_surplus,
                    run=lambda prof, k, a, rng: _bayes_run(prof, k, a.iv, rng),
                    edges=lambda a: tuple(e for i in a.iv.intervals
                                          for e in (i.v_lo, i.v_hi)),
                    rank=True, xbar=lambda q, n, k, iv: _bayes_xbar(q, n, k, iv)),
    "rsol": Mechanism((), _no_rule, lambda V, k, a: _rsol_exact(V, k),
                      lambda prof, k, a: expected_rsol(prof, k).mean,
                      lambda k, a: functools.partial(_rsol_interim, k),
                      lambda prof, k, a, rng: _rsol_run(prof, k, rng),
                      cap=RSOL_EXACT_CAP, mc=lambda prof, k, reps, seed:
                      expected_rsol(prof, k, "mc", reps, seed)),
    "mix": _ruled((), lambda V, k, a: _mix_rule(V, k), rank=True),
    "logprice": _ruled((), lambda V, k, a: _ladder_rule(V, k), rank=True,
                       run=lambda prof, k, a, rng: _ladder_run(prof, k, rng)),
}
# plottery at p = 0, Params' default, as the estimator and identity checks
# name the free lottery
ALIASES = {"lottery": "plottery", "plottery0": "plottery"}
PRIOR_OPTIMAL = "bayes"


def unpriced(name: str, view: str | None = None) -> Mechanism:
    """The prior side's door to the table, read at call time: the entry of an
    alias or of a name whose entry reads no price, as a caller that passes
    none may take; given a view ("prior" or "xbar"), only one that has it."""
    entry = MECHANISMS.get(ALIASES.get(name, name))
    if entry is None:
        raise ValueError(f"unknown mechanism {name!r}")
    if name in MECHANISMS and {"p", "q"} & set(entry.reads):
        raise ValueError(f"{name!r} reads a price, which the prior side does not set")
    if view is not None and getattr(entry, view) is None:
        raise ValueError(f"{name!r} is no rank rule and has no {view} view")
    return entry


def _entry(name: str, params: dict, table: dict | None = None):
    """The profile side's door to table, MECHANISMS read at call time if None:
    the (entry, Params) of a name and the keywords given, each a field the
    entry reads; an entry that reads iv needs it."""
    entry = (MECHANISMS if table is None else table).get(name)
    if entry is None:
        raise ValueError(f"unknown mechanism {name!r}")
    for field in params:
        if field not in entry.reads:
            raise ValueError(f"{field}: {name} does not read it")
    if "iv" in entry.reads and params.get("iv") is None:
        raise ValueError(f"iv: {name} needs an ironed virtual value")
    return entry, Params(**params)


def evaluate(name: str, profile, k: int, **params) -> float:
    """Exact expected residual surplus of a table mechanism on one profile
    with k units, its entry's one view; params are the Params fields it
    reads (p, q, iv), each defaulting as in Params but iv."""
    entry, a = _entry(name, params)
    return entry.one(profile, k, a)


def run(name: str, profile, k: int, rng=None, **params) -> Outcome:
    """One run of a table mechanism on one profile, its entry's run view:
    without an rng the marginal outcome (win probabilities and interim
    expected payments, so residual_surplus is the expected residual), with
    one a realized draw. RSOL's run is realized only. params as for evaluate."""
    entry, a = _entry(name, params)
    return entry.run(profile, k, a, rng)
