"""The mechanisms of the money-burning setting, each rule written once.

Residual surplus is total allocated value minus all payments; payments here
are burnt, not collected, so every mechanism tries to allocate well while
charging as little as incentives allow.

Each closed-form mechanism is one rowwise marginal rule
rule(V, k, ...) -> (X, P): rows of V are bid profiles, X holds the win
probabilities and P the interim expected payments, coin flips integrated
out. The rules: the lottery at price p (_lottery_rule), the two-price lottery
(_pq_rule, sure winners paying _blended_price), the top-share rule (Vickrey
is top-share(k, k), the price ladder the mean of its rungs, the two-agent
mixture Vickrey/3 + 1/3) and the prior-optimal _bayes_rule. The other views
derive from the rule: expected_* values are its row residual (_residual),
runs return its row or with an rng draw from it (_run), and the audit
interims (audit.py) and the estimator (simlab.py) evaluate it on many rows.

Two closed forms stay on purpose. expected_pq_lottery keeps its scalar
formula: it is the inner call of the two-price benchmark's O(n^2) pair
sweep, where the rule-derived value measured three times slower per call
(n = 8 to 512, 2-core Xeon). RSOL (random-sampling optimal lottery: learn a
price on a random half of the agents, apply it or Vickrey to the other half)
has no rowwise rule; its exact value enumerates every halving
(_rsol_branch_values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .common import MechanismEval, mc_eval, substream
from .distributions import as_profile
from .ironing import IronedVirtual

COST_AGENT_CAP = 20
RSOL_EXACT_CAP = 20


@dataclass(frozen=True)
class Outcome:
    """Result of one mechanism run.

    In realized mode allocation holds win indicators; in marginal mode it
    holds win probabilities and payments are interim expected payments, so
    residual_surplus is the exact expected residual for the profile.
    """

    allocation: np.ndarray
    payments: np.ndarray
    utilities: np.ndarray
    residual_surplus: float
    k_used: float
    mode: str


def _outcome(values: np.ndarray, alloc: np.ndarray, pay: np.ndarray,
             mode: str) -> Outcome:
    util = values * alloc - pay
    return Outcome(alloc, pay, util, float(util.sum()), float(alloc.sum()), mode)


def _require_k(k: int):
    if k < 1:
        raise ValueError("need at least one unit")


# ---------------------------------------------------------------------------
# views shared by every rule


def _residual(V: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Residual surplus sum(v*x - p) of each row of a rule's output."""
    return (V * X - P).sum(axis=1)


def _expected(rule, profile, *args) -> float:
    """Exact expected residual of one profile: the residual of its rule row."""
    V = as_profile(profile).values[None, :]
    return float(_residual(V, *rule(V, *args))[0])


def _run(v: np.ndarray, X: np.ndarray, P: np.ndarray, k: int, rng) -> Outcome:
    """The marginal outcome of a one-row rule output (X, P), or with an rng
    one draw of it: the sure winners (x = 1) win, the leftover units go to a
    uniform random part of the lottery band (0 < x < 1), whose winners pay p/x.
    """
    x, p = X[0], P[0]
    if rng is None:
        return _outcome(v, x, p, "marginal")
    sure = x == 1.0
    band = ~sure & (x > 0)
    alloc = sure * 1.0
    pay = np.where(sure, p, 0.0)
    slots = k - int(sure.sum())
    if slots and band.any():
        win = rng.choice(np.flatnonzero(band), size=min(slots, int(band.sum())),
                         replace=False)
        alloc[win] = 1.0
        pay[win] = p[win] / x[win]
    return _outcome(v, alloc, pay, "realized")


# ---------------------------------------------------------------------------
# single-price lotteries


def _lottery_rule(V: np.ndarray, k: int, p: float, strict: bool = False):
    """k units shared uniformly among the m agents with v >= p (v > p when
    strict), each winning with probability min(k, m)/m; winners pay p."""
    _require_k(k)
    if p < 0:
        raise ValueError("price must be nonnegative")
    elig = V > p if strict else V >= p
    m = elig.sum(axis=1, keepdims=True)
    X = elig * (np.minimum(k, m) / np.maximum(m, 1))
    return X, X * p


def _lottery_value(profile, k: int, p: float, strict: bool) -> float:
    # the row residual with the common win probability factored out of the
    # sum, which keeps the values of small profiles exact
    v = as_profile(profile).values
    x = _lottery_rule(v[None, :], k, p, strict)[0][0]
    return float(x.max(initial=0.0) * (v[x > 0] - p).sum())


def expected_p_lottery(profile, k: int, p: float) -> float:
    """Exact residual surplus of a k-unit lottery at price p, eligibility v >= p.

    Each of the m eligible agents wins with probability min(k, m)/m and pays p.
    """
    return _lottery_value(profile, k, p, False)


def expected_strict_p_lottery(profile, k: int, p: float) -> float:
    """Lottery value with strict eligibility v > p.

    Agents priced exactly at their value are excluded instead of diluting the
    lottery at zero utility; this is the variant whose optimum over p is
    within a factor two of the two-price benchmark.
    """
    return _lottery_value(profile, k, p, True)


def _optimal_strict_price(values: np.ndarray, k: int) -> tuple[float, float]:
    """Best (value, price) of a strict-eligibility lottery, smallest price on ties.

    Candidates 0 and the values themselves suffice: between consecutive values
    the lottery value is strictly decreasing in p wherever it is positive.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        return 0.0, 0.0
    cands = np.concatenate(([0.0], v))
    m = n - np.searchsorted(v, cands, side="right")
    tail = np.concatenate(([0.0], np.cumsum(v[::-1])))
    tops = tail[m]
    vals = np.where(m > 0,
                    np.minimum(k, m) / np.maximum(m, 1) * (tops - m * cands),
                    0.0)
    j = int(np.argmax(vals))
    return float(vals[j]), float(cands[j])


# ---------------------------------------------------------------------------
# two-price lotteries


def _pq_split(v: np.ndarray, p: float, q: float):
    if q > p:
        raise ValueError("need q <= p")
    if q < 0:
        raise ValueError("prices must be nonnegative")
    top = v > p
    band = (v > q) & ~top
    return top, band


def _blended_price(k, s, t, lo, hi):
    """Price of the s sure winners above hi when the t agents in (lo, hi]
    share the other k - s units at lo: by the payment identity, bidding into
    the band would still win with probability (k - s + 1)/(t + 1)."""
    return ((k - s + 1) * lo + (s + t - k) * hi) / (t + 1)


def _pq_rule(V: np.ndarray, k: int, p: float, q: float):
    """Two-price lottery, rowwise; expected_pq_lottery states the cases."""
    _require_k(k)
    top, band = _pq_split(V, p, q)
    s = top.sum(axis=1, keepdims=True)
    t = band.sum(axis=1, keepdims=True)
    crowded = s > k
    fits = ~crowded & (s + t <= k)
    X = np.where(crowded, top * (k / np.maximum(s, 1)),
                 np.where(fits, top | band,
                          top + band * ((k - s) / np.maximum(t, 1))))
    price = np.where(crowded, p,
                     np.where(top & ~fits, _blended_price(k, s, t, q, p), q))
    return X, X * price


def expected_pq_lottery(profile, k: int, p: float, q: float) -> float:
    """Exact residual surplus of the k-unit two-price lottery.

    With s agents strictly above p and t agents in (q, p]:
    - s > k: lottery among the top s at price p;
    - s + t <= k: everyone above q wins at price q;
    - otherwise the top s win surely at the blended price
      ((k-s+1)q + (s+t-k)p)/(t+1) and the band shares the remaining k-s units
      at price q.

    A scalar form of _pq_rule, kept for the two-price benchmark's pair sweep.
    """
    _require_k(k)
    v = as_profile(profile).values
    top, band = _pq_split(v, p, q)
    s = int(top.sum())
    t = int(band.sum())
    if s > k:
        return k / s * float((v[top] - p).sum())
    if s + t <= k:
        return float((v[top] - q).sum() + (v[band] - q).sum())
    blended = _blended_price(k, s, t, q, p)
    return float((v[top] - blended).sum()) + (k - s) / t * float((v[band] - q).sum())


def run_pq_lottery(profile, k: int, p: float, q: float, rng=None) -> Outcome:
    """Two-price lottery outcome; realized with rng, marginal without."""
    v = as_profile(profile).values
    return _run(v, *_pq_rule(v[None, :], k, p, q), k, rng)


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


def vickrey(profile, k: int, rng=None) -> Outcome:
    """k-unit Vickrey auction: top k win and pay the k+1-st value.

    Ties at the margin break uniformly; marginal mode (rng=None) reports the
    tie-averaged win probabilities and interim payments.
    """
    v = as_profile(profile).values
    return _run(v, *_vickrey_rule(v[None, :], k), k, rng)


# ---------------------------------------------------------------------------
# prior-dependent optimal mechanism


def _segment_anchors(iv: IronedVirtual):
    """Per-hull-segment price anchors (lo, hi) and an is-bridged flag.

    Bridged segments anchor payments at their value-space endpoints, with lo
    forced to 0 when the bridge starts at the bottom of the grid (there is no
    losing bid region, so the identity integrates from 0). Unbridged segments
    get NaN and callers substitute the threshold value itself.
    """
    nseg = iv.slopes.size
    lo = np.full(nseg, np.nan)
    hi = np.full(nseg, np.nan)
    hull_q = iv.q[iv.hull_idx]
    for interval in iv.intervals:
        j = int(np.searchsorted(hull_q, interval.q_lo))
        lo[j] = 0.0 if interval.at_bottom else interval.v_lo
        hi[j] = interval.v_hi
    return lo, hi


def _bayes_rule(iv: IronedVirtual, V: np.ndarray, k: int):
    """Marginal allocation and payments of the optimal mechanism, rowwise.

    V is (rows, n); returns (X, P) of the same shape. Rows are independent
    profiles. When the k+1-st value sits on a bridged hull segment, all agents
    at that ironed level share the leftover units uniformly and payments
    anchor at the segment's value-space endpoints. Otherwise equal ironed
    levels are refined by value, which reduces the row to a Vickrey auction;
    refining this way keeps the interim rule a step function at exact profile
    values, so the payment identity holds to float precision instead of grid
    precision. No support validation: off-support bids get the clipped-grid
    ironed value, which is how the mechanism itself treats them.
    """
    _require_k(k)
    n = V.shape[1]
    if n <= k:
        return _vickrey_rule(V, k)
    V_asc = np.sort(V, axis=1)
    Xv, Pv = _vickrey_rule(V, k, V_asc)
    seg = iv.segment_of(V_asc[:, n - k - 1])
    lo_seg, hi_seg = _segment_anchors(iv)
    lo = lo_seg[seg]
    hi = hi_seg[seg]
    bridged = ~np.isnan(lo)
    if not bridged.any():
        return Xv, Pv
    c = iv.slopes[seg]
    levels = np.asarray(iv.value(V), dtype=float)
    above = levels > c[:, None]
    tie = levels == c[:, None]
    s = above.sum(axis=1)
    t = np.maximum(tie.sum(axis=1), 1)
    r = (k - s) / t
    blended = _blended_price(k, s, t, lo, hi)
    Xb = above * 1.0 + tie * r[:, None]
    Pb = above * blended[:, None] + tie * (r * lo)[:, None]
    return (np.where(bridged[:, None], Xb, Xv),
            np.where(bridged[:, None], Pb, Pv))


def bayes_optimal_outcome(iv: IronedVirtual, profile, k: int, rng=None) -> Outcome:
    """Optimal mechanism for the prior behind iv, evaluated on one profile.

    Allocates k units to maximize total ironed virtual value and charges the
    payment-identity prices. If the marginal agent's level lies on a bridged
    segment, everyone at that level shares the leftover units uniformly: sure
    winners pay a blend of the segment's endpoints and lottery winners pay its
    lower endpoint (zero when the bridge reaches the bottom of the support).
    Away from bridges the rule is the k-unit Vickrey auction.
    """
    _require_k(k)
    prof = as_profile(profile)
    v = prof.values
    lo_sup, hi_sup = iv.dist.support
    if prof.n and (v.min() < lo_sup or v.max() > hi_sup):
        raise ValueError(
            f"profile values outside the support {iv.dist.support} of {iv.dist.name}")
    return _run(v, *_bayes_rule(iv, v[None, :], k), k, rng)


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


def bayes_optimal_with_costs(prob: CostProblem, profile, rng=None) -> CostOutcome:
    """Exhaustively maximize total virtual value minus subset cost.

    Enumerates all 2^n subsets; infinite costs exclude a subset. Ties within
    1e-12 relative tolerance break uniformly when rng is given, else the
    smallest subset in enumeration order wins.
    """
    v = as_profile(profile).values
    n = v.size
    if n != len(prob.virtuals):
        raise ValueError("profile size must match the number of virtual functions")
    if n > COST_AGENT_CAP:
        raise ValueError(f"at most {COST_AGENT_CAP} agents supported")
    phi = np.array([prob.virtuals[i](float(v[i])) for i in range(n)])
    sums = np.zeros(1)
    for i in range(n):
        sums = np.concatenate((sums, sums + phi[i]))
    best = 0.0
    best_masks: list[int] = []
    for mask in range(1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        value = float(sums[mask]) - prob.cost(members)
        if not math.isfinite(value):
            continue
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


def _rsol_branch_values(v_desc: np.ndarray, member: np.ndarray, k: int):
    """Lottery-branch and Vickrey-branch values for each membership row.

    v_desc is the profile sorted descending; member is (rows, n) boolean with
    True marking the serving half. The learned price per row is the optimal
    strict-lottery price of the complement half.
    """
    rows, n = member.shape
    asc = v_desc[::-1]
    cands = np.concatenate(([0.0], asc))
    other = ~member
    vals2 = np.empty((rows, n + 1))
    for j, c in enumerate(cands):
        elig = other & (v_desc[None, :] > c)
        m2 = elig.sum(axis=1)
        sum2 = elig @ v_desc
        vals2[:, j] = np.where(
            m2 > 0, np.minimum(k, m2) / np.maximum(m2, 1) * (sum2 - m2 * c), 0.0)
    p2 = cands[np.argmax(vals2, axis=1)]
    elig1 = member & (v_desc[None, :] > p2[:, None])
    m1 = elig1.sum(axis=1)
    sum1 = (elig1 * v_desc[None, :]).sum(axis=1)
    lottery = np.where(
        m1 > 0, np.minimum(k, m1) / np.maximum(m1, 1) * (sum1 - m1 * p2), 0.0)
    rank = np.cumsum(member, axis=1)
    top = member & (rank <= k)
    sum_top = (top * v_desc[None, :]).sum(axis=1)
    marginal = member & (rank == k + 1)
    w = (marginal * v_desc[None, :]).sum(axis=1)
    vick = sum_top - np.minimum(rank[:, -1], k) * w
    return lottery, vick


def rsol(profile, k: int, rng) -> Outcome:
    """One realized run of the random-sampling optimal lottery.

    Each agent lands in the serving half independently with probability 1/2;
    the other half only sets the price. A fair coin then picks the strict
    lottery at the learned price or Vickrey, run on the serving half.
    """
    _require_k(k)
    prof = as_profile(profile)
    v = prof.values
    n = prof.n
    if n == 0:
        raise ValueError("need at least one agent")
    serve = rng.random(n) < 0.5
    _, p2 = _optimal_strict_price(v[~serve], k)
    alloc = np.zeros(n)
    pay = np.zeros(n)
    if rng.random() < 0.5:
        elig = serve & (v > p2)
        m = int(elig.sum())
        if m:
            win = rng.choice(np.flatnonzero(elig), size=min(k, m), replace=False)
            alloc[win] = 1.0
            pay[win] = p2
    else:
        inner = vickrey(v[serve], k, rng)
        alloc[serve] = inner.allocation
        pay[serve] = inner.payments
    return _outcome(v, alloc, pay, "realized")


def expected_rsol(profile, k: int, mode: str = "exact",
                  reps: int = 10_000, seed: int = 0) -> MechanismEval:
    """Expected residual surplus of RSOL over halves, coin, and lotteries.

    Exact mode enumerates all 2^n halvings (n <= 20) with both branches
    weighted 1/2. MC mode samples halvings but keeps the branch expectations
    exact, so only the halving is estimated.
    """
    _require_k(k)
    prof = as_profile(profile)
    v = np.sort(prof.values)[::-1]
    n = prof.n
    if n == 0:
        raise ValueError("need at least one agent")
    if mode == "exact":
        if n > RSOL_EXACT_CAP:
            raise ValueError(f"exact mode supports at most {RSOL_EXACT_CAP} agents")
        total = 0.0
        chunk = 1 << min(n, 16)
        for start in range(0, 1 << n, chunk):
            masks = np.arange(start, start + chunk, dtype=np.uint32)
            member = (masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1 > 0
            lottery, vick = _rsol_branch_values(v, member, k)
            total += float((0.5 * lottery + 0.5 * vick).sum())
        return MechanismEval(total / (1 << n), 0.0, "exact", 1 << n, None)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    rng = substream(seed, "rsol", n, k)
    member = rng.random((reps, n)) < 0.5
    lottery, vick = _rsol_branch_values(v, member, k)
    return mc_eval(0.5 * lottery + 0.5 * vick, seed)


# ---------------------------------------------------------------------------
# two-agent mixture


def _mix_rule(V: np.ndarray, k: int = 1):
    """1/3 Vickrey, 2/3 free lottery for exactly two agents and one unit."""
    if V.shape[1] != 2 or k != 1:
        raise ValueError("the mixture mechanism is defined for n=2, k=1")
    X, P = _vickrey_rule(V, 1)
    return X / 3.0 + 1.0 / 3.0, P / 3.0


def mixed_vickrey_lottery(profile) -> MechanismEval:
    """1/3 Vickrey, 2/3 free lottery for exactly two agents, one unit.

    The expectation telescopes to (2/3) of the higher value.
    """
    return MechanismEval(_expected(_mix_rule, profile), 0.0, "exact", 1, None)


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
    value (0 past the end of the profile)."""
    _require_k(k)
    sizes = _ladder_sizes(V.shape[1], k)
    X, P = _top_share_rule(V, np.sort(V, axis=1), sizes, k)
    return X.mean(axis=1), P.mean(axis=1)


def expected_log_price(profile, k: int) -> float:
    """Exact expectation of the price-ladder mechanism (see _ladder_rule)."""
    _require_k(k)
    prof = as_profile(profile)
    return _expected(_ladder_rule, prof, k) if prof.n else 0.0


def run_log_price(profile, k: int, rng) -> Outcome:
    """One realized round of the price ladder."""
    _require_k(k)
    prof = as_profile(profile)
    v = prof.values
    n = prof.n
    alloc = np.zeros(n)
    pay = np.zeros(n)
    if n == 0:
        return _outcome(v, alloc, pay, "realized")
    sizes = _ladder_sizes(n, k)
    L = sizes[rng.integers(len(sizes))]
    price = prof.nth_highest(L + 1)
    order = np.lexsort((rng.permutation(n), -v))
    win = rng.choice(order[:L], size=min(k, L), replace=False)
    alloc[win] = 1.0
    pay[win] = price
    return _outcome(v, alloc, pay, "realized")
