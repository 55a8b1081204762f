"""Incentive and identity audits for the shipped mechanisms.

An auditable mechanism exposes its exact interim rule: the win probability
and expected payment of one agent as a function of their bid, with all
opponent bids fixed and all mechanism randomness integrated out in closed
form. AuditableMechanism derives it from the mechanism's marginal rule
(mechanisms.py): one profile row per bid, the bid in its agent's column, so
one call can serve several agents. The interim rule may jump at the
opponents' bids and at the rule's fixed edges, the lottery prices or the
ironed-interval ends. RSOL has no marginal rule: a kernel sums every halving
of the opponents against each bid. A bid meets those halvings only in
comparisons with 0 and the opponents' values, so the kernel runs on one bid
per region those values cut out and the others copy its answer, bit for bit
what the kernel gives on every bid.

On top of the interim rule sit:

- a deviation scan (no bid may beat truthful bidding),
- a payment-identity check p(b) = b*x(b) - integral of x from 0 to b,
  evaluated exactly for step rules by midpoint sampling between grid points,
- Monte Carlo verification that expected utility equals the expected utility
  virtual value of winners, and that ironing only raises the virtual-value
  objective for monotone rules, on the same batched rules,
- the split-balance probe: the exact chance, counted in O(n^2), that a uniform
  random half missing the top agent stays under 3/4 of every prefix.

A deliberately non-truthful first-price variant is included as a control; the
deviation scan must flag it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .common import MechanismEval, mc_eval, substream
from .distributions import (ValueDistribution, ValuationProfile, as_profile,
                            sample_profile, virtual_value_utility)
from .ironing import IronedVirtual, check_ironed_for, iron
from .mechanisms import (RSOL_EXACT_CAP, _bayes_rule, _halvings,
                         _ladder_rule, _learned_price, _lottery_rule, _mix_rule,
                         _pq_rule, _require_k, _residual, _vickrey_rule)

DSIC_TOL = 1e-9
MIN_IDENTITY_GRID = 256
# cells per chunk of the RSOL interim's halvings; bounds its scratch memory
_CHUNK_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# interim adapters


@dataclass
class AuditableMechanism:
    """Exact interim view of a mechanism: interim(values, i, bids) -> (x, p),
    agent i's win probability and expected payment per bid, where i is an
    agent or an array of agents aligned with the bids; edges are the bids
    besides the opponents' where it may jump."""

    name: str
    interim: Callable
    edges: tuple = ()

    def breakpoints(self, values: np.ndarray, i: int) -> np.ndarray:
        """Bids where the interim allocation may jump."""
        return np.unique(np.concatenate(
            (np.delete(np.asarray(values, dtype=float), i), self.edges)))


def _tiled(rule):
    """A marginal rule's interim: one row per bid, the bid in the column of
    its agent, i (an int, or an int array aligned with the bids)."""
    def interim(values, i, bids):
        b = np.asarray(bids, dtype=float)
        v = np.asarray(values, dtype=float)
        V = np.tile(v, (b.size, 1))
        # each row's bid cell in the flattened rows; cheaper than 2-D indexing
        cell = np.arange(0, V.size, v.size) + i
        V.reshape(-1)[cell] = b
        X, P = rule(V)
        return X.reshape(-1)[cell], P.reshape(-1)[cell]
    return interim


def _rsol_interim(k: int, values, i, bids):
    """RSOL's exact interim rule, agent i (an int, or an int array aligned
    with the bids) against the others' values.

    _rsol_halving_sums compares a bid only with prices and thresholds that
    are 0 or an opponent's value, and its payments do not read the bid. So
    the rule is constant on each region that u cuts out: u holds 0, the
    opponents' values and NaN (where every comparison is False), sorted with
    NaN last, and a bid's region key counts the u below it plus the u at or
    below it. The kernel runs once per agent on one bid from each region
    present, with a second copy of a lone region's bid when there are
    several bids, since numpy adds the halvings of a single column pairwise
    and of wider arrays one row after another. Each bid then reads its
    region's answer, bit for bit the kernel's on all the bids."""
    _require_k(k)
    v = np.asarray(values, dtype=float)
    if v.size > RSOL_EXACT_CAP:
        raise ValueError(f"rsol audits take at most {RSOL_EXACT_CAP} agents")
    b = np.asarray(bids, dtype=float)
    agents = np.broadcast_to(i, b.shape)
    x, pay = np.empty(b.size), np.empty(b.size)
    for a in np.unique(agents):
        at = agents == a
        o, ba = np.delete(v, a), b[at]
        u = np.sort(np.append(o, (0.0, np.nan)))
        key = np.searchsorted(u, ba) + np.searchsorted(u, ba, "right")
        _, first, region = np.unique(key, return_index=True, return_inverse=True)
        first = np.resize(first, min(ba.size, max(first.size, 2)))
        rx, rp = _rsol_halving_sums(k, o, ba[first])
        x[at], pay[at] = rx[region], rp[region]
    return x, pay


def _rsol_halving_sums(k: int, o: np.ndarray, b: np.ndarray):
    """RSOL's interim at each bid b against the opponents' values o; the
    bidder serves with probability 1/2. Every halving of the opponents
    (numbered and summed in submission order) meets every bid, in chunks of
    about _CHUNK_CELLS cells: a bid above the price p the kernel learns
    outside the serving half joins the lottery of the M serving opponents
    above p. Vickrey stays a closed form, as tiling _vickrey_rule over
    (halving, bid) rows measured 5-6 times slower at n = 8: against the k-th
    highest serving opponent t, a bid above t wins, a bid at t shares the
    seats the a serving opponents above t leave with the c tied at t, and
    winners pay t."""
    order = np.argsort(-o, kind="stable")
    o_desc, halvings = o[order], 1 << o.size
    per = max(1, _CHUNK_CELLS // max(b.size, o.size, 1))
    x, pay = np.zeros(b.size), np.zeros(b.size)
    for h in range(0, halvings, per):
        serve = _halvings(o.size, h, h + per)[:, order]
        p = _learned_price(o_desc, ~serve, k)[1][:, None]
        m = (serve & (o_desc > p)).sum(axis=1, keepdims=True) + 1
        xl = np.where(b > p, np.minimum(k, m) / m, 0.0)
        few = serve.sum(axis=1, keepdims=True) < k
        t = ((serve & (np.cumsum(serve, axis=1) == k)) * o_desc).sum(axis=1, keepdims=True)
        a = (serve & (o_desc > t)).sum(axis=1, keepdims=True)
        c = (serve & (o_desc == t)).sum(axis=1, keepdims=True)
        xv = np.where(few | (b > t), 1.0, np.where(b == t, (k - a) / (c + 1), 0.0))
        xs, ps = 0.5 * (xl + xv), 0.5 * (xl * p + xv * np.where(few, 0.0, t))
        # the running sums enter each chunk's first row: chunking keeps the order
        xs[0], ps[0] = xs[0] + x, ps[0] + pay
        x, pay = xs.sum(axis=0), ps.sum(axis=0)
    return x * (0.5 / halvings), pay * (0.5 / halvings)


def _first_price_rule(V: np.ndarray, k: int):
    """Vickrey's allocation, but winners burn their own bid. Not truthful."""
    X, _ = _vickrey_rule(V, k)
    return X, X * V


def audit_mechanism(name: str, k: int = 1, *, p: float = 0.0, q: float = 0.0,
                    iv: IronedVirtual | None = None) -> AuditableMechanism:
    """Build the interim adapter for a mechanism name.

    Names match the CLI: plottery, pqlottery, vickrey, bayes, rsol, mix,
    logprice, plus the non-truthful firstprice control. Bad parameters are
    rejected here, before any interim is evaluated.
    """
    if name == "bayes" and iv is None:
        raise ValueError("bayes audit needs an ironed virtual value")
    ends = () if iv is None else tuple(e for interval in iv.intervals
                                       for e in (interval.v_lo, interval.v_hi))
    interims = {
        "plottery": (_tiled(lambda V: _lottery_rule(V, k, p)), (p,)),
        "pqlottery": (_tiled(lambda V: _pq_rule(V, k, p, q)), (q, p)),
        "vickrey": (_tiled(lambda V: _vickrey_rule(V, k)), ()),
        "bayes": (_tiled(lambda V: _bayes_rule(iv, V, k)), ends),
        "mix": (_tiled(lambda V: _mix_rule(V, k)), ()),
        "logprice": (_tiled(lambda V: _ladder_rule(V, k)), ()),
        "rsol": (functools.partial(_rsol_interim, k), ()),
        "firstprice": (_tiled(lambda V: _first_price_rule(V, k)), ()),
    }
    if name not in interims:
        raise ValueError(f"unknown mechanism {name!r}")
    interim, edges = interims[name]
    # each rule checks its own parameters; with no bids it does nothing else
    interim(np.zeros(2), 0, [])
    return AuditableMechanism(name, interim, edges)


# ---------------------------------------------------------------------------
# deviation scan and payment identity


@dataclass(frozen=True)
class DeviationReport:
    mechanism: str
    passed: bool
    max_gain: float
    agent: int
    bid: float
    tol: float


@dataclass(frozen=True)
class InterimRule:
    """One agent's interim rule tabulated on a bid grid starting at 0.

    x_mid holds win probabilities at cell midpoints; for step rules whose
    jumps all lie on grid points this makes the running integral of x exact.
    """

    agent: int
    bids: np.ndarray
    x: np.ndarray
    p: np.ndarray
    x_mid: np.ndarray


@dataclass(frozen=True)
class PaymentIdentityReport:
    passed: bool
    monotone: bool
    max_error: float
    agent: int


def check_dsic(mech: AuditableMechanism, profile, bid_grid,
               tol: float = DSIC_TOL) -> DeviationReport:
    """Scan every agent and grid bid for a profitable deviation: one interim
    call on every agent's bids (the grid and the agent's value), then the
    agents in order, keeping the first strictly largest gain."""
    values = as_profile(profile).values
    grid = np.asarray(bid_grid, dtype=float)
    worst = -np.inf
    arg = (0, 0.0)
    if values.size == 0:  # some rules reject an empty profile
        return DeviationReport(mech.name, True, worst, *arg, tol)
    scans = [np.unique(np.append(grid, v)) for v in values]
    sizes = [bids.size for bids in scans]
    x, pay = mech.interim(values, np.repeat(np.arange(values.size), sizes),
                          np.concatenate(scans))
    for i, (bids, end) in enumerate(zip(scans, np.cumsum(sizes))):
        part = slice(end - bids.size, end)
        utility = values[i] * x[part] - pay[part]
        truth = int(np.searchsorted(bids, values[i]))
        gain = utility - utility[truth]
        j = int(np.argmax(gain))
        if gain[j] > worst:
            worst = float(gain[j])
            arg = (i, float(bids[j]))
    return DeviationReport(mech.name, worst <= tol, worst, arg[0], arg[1], tol)


def extract_interim_rule(mech: AuditableMechanism, profile, i: int,
                         bid_grid) -> InterimRule:
    """Tabulate agent i's interim rule on the grid plus known breakpoints."""
    values = as_profile(profile).values
    bids = np.unique(np.concatenate(
        ([0.0], np.asarray(bid_grid, dtype=float), mech.breakpoints(values, i))))
    mids = 0.5 * (bids[1:] + bids[:-1])
    # rows are independent, so one call serves the grid and its midpoints
    x, p = mech.interim(values, i, np.concatenate((bids, mids)))
    m = bids.size
    return InterimRule(i, bids, x[:m], p[:m], x[m:])


def check_payment_identity(rule: InterimRule,
                           tol: float = DSIC_TOL) -> PaymentIdentityReport:
    """Verify p(b) = b*x(b) - integral of x on the tabulated rule.

    A non-monotone win probability fails before the identity is evaluated.
    """
    if rule.bids.size < MIN_IDENTITY_GRID:
        raise ValueError(f"need at least {MIN_IDENTITY_GRID} grid bids")
    if rule.bids[0] != 0.0:
        raise ValueError("bid grid must start at 0 for the identity integral")
    eps = 1e-12
    monotone = (np.all(np.diff(rule.x) >= -eps)
                and np.all(rule.x_mid >= rule.x[:-1] - eps)
                and np.all(rule.x_mid <= rule.x[1:] + eps))
    if not monotone:
        return PaymentIdentityReport(False, False, np.inf, rule.agent)
    integral = np.concatenate(
        ([0.0], np.cumsum(rule.x_mid * np.diff(rule.bids))))
    predicted = rule.bids * rule.x - integral
    err = float(np.max(np.abs(rule.p - predicted)))
    return PaymentIdentityReport(err <= tol, True, err, rule.agent)


def audit_profiles(seed: int, count: int = 100,
                   n_range: tuple[int, int] = (2, 8),
                   dist: ValueDistribution | None = None) -> list[ValuationProfile]:
    """Random audit corpus; injects exact ties to stress tie-breaking.

    With a distribution the profiles are prior draws (as the prior-dependent
    mechanism requires); otherwise values are uniform on a random scale.
    """
    profiles = []
    for idx in range(count):
        rng = substream(seed, "audit-corpus", idx)
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        if dist is not None:
            prof = sample_profile(dist, n, rng)
            values = prof.values.copy()
        else:
            values = 10.0 ** rng.uniform(-1, 1) * rng.random(n)
        if n >= 2 and rng.random() < 0.3:
            a, b = rng.choice(n, size=2, replace=False)
            values[a] = values[b]
        profiles.append(ValuationProfile(values))
    return profiles


# ---------------------------------------------------------------------------
# virtual-value identities


def _batch_rule(name: str, d: ValueDistribution, V: np.ndarray, k: int,
                iv: IronedVirtual | None):
    if name == "lottery":
        return _lottery_rule(V, k, 0.0)
    if name == "vickrey":
        return _vickrey_rule(V, k)
    if name == "bayes":
        return _bayes_rule(iv if iv is not None else iron(d), V, k)
    raise ValueError(f"unknown batch rule {name!r}")


@dataclass(frozen=True)
class IdentityReport:
    """Paired MC estimates of expected utility and expected virtual value."""

    utility: MechanismEval
    virtual: MechanismEval
    passed: bool


def _overlap(a: MechanismEval, b: MechanismEval) -> bool:
    return max(a.ci[0], b.ci[0]) <= min(a.ci[1], b.ci[1])


def verify_utility_identity(d: ValueDistribution, mechanism: str, k: int,
                            n: int, reps: int, seed: int,
                            iv: IronedVirtual | None = None) -> IdentityReport:
    """Check E[sum of utilities] = E[sum of theta(v)*x] by CI overlap.

    The bare identity assumes the support starts at 0. When it starts at
    a > 0 the interim win probability below the support still accumulates
    utility, contributing a * x_i(a) per agent; that term is added to the
    virtual side (the rules here are constant in the bid below a, so
    evaluating at the support bottom is exact).
    """
    check_ironed_for(d, iv)
    rng = substream(seed, "utility-identity", mechanism, n, k)
    V = np.asarray(d.quantile(rng.random((reps, n))), dtype=float)
    X, P = _batch_rule(mechanism, d, V, k, iv)
    theta = np.asarray(virtual_value_utility(d, V), dtype=float)
    virtual_samples = (theta * X).sum(axis=1)
    bottom = d.support[0]
    if bottom > 0.0:
        for i in range(n):
            W = V.copy()
            W[:, i] = bottom
            Xa, _ = _batch_rule(mechanism, d, W, k, iv)
            virtual_samples = virtual_samples + bottom * Xa[:, i]
    utility = mc_eval(_residual(V, X, P), seed)
    virtual = mc_eval(virtual_samples, seed)
    return IdentityReport(utility, virtual, _overlap(utility, virtual))


@dataclass(frozen=True)
class DominanceReport:
    """Paired MC difference E[sum (phibar - theta) x] for a monotone rule.

    slack absorbs the grid discretization of phibar; inequality_passed is the
    one-sided test, equality the two-sided one, strict the significantly
    positive case.
    """

    diff_mean: float
    diff_se: float
    slack: float
    inequality_passed: bool
    equality: bool
    strict: bool


def _cell_virtual(iv: IronedVirtual, cell: np.ndarray) -> np.ndarray:
    """Utility virtual value averaged over each grid cell (iv._cell of a
    value).

    Uses the same integral H that the hull slopes come from, so the
    dominance comparison is free of quadrature bias: with no ironing the
    hull keeps every node and the two sides agree exactly.
    """
    slopes = np.diff(iv.H) / np.diff(iv.q)
    # slopes has one entry per cell but the top one: clip sends it down
    return slopes.take(cell, mode="clip")


def verify_ironing_dominance(d: ValueDistribution, monotone_rule: str,
                             reps: int, seed: int, k: int = 1, n: int = 8,
                             iv: IronedVirtual | None = None,
                             slack: float | None = None) -> DominanceReport:
    """Check that ironing never lowers the virtual-value objective.

    Both sides are evaluated on the ironing grid's cell averages; see
    _cell_virtual for why. Each value's cell is looked up once for both.
    """
    check_ironed_for(d, iv)
    if iv is None:
        iv = iron(d)
    slack = float(1e-3 * min(k, n) * (1.0 + d.mean) if slack is None else slack)
    rng = substream(seed, "dominance", monotone_rule, n, k)
    V = np.asarray(d.quantile(rng.random((reps, n))), dtype=float)
    X, _ = _batch_rule(monotone_rule, d, V, k, iv)
    cell = iv._cell(V)
    diff = ((iv.phibar[cell] - _cell_virtual(iv, cell)) * X).sum(axis=1)
    mean = float(diff.mean())
    se = float(diff.std(ddof=1)) / math.sqrt(diff.size)
    band = 3.0 * se + slack
    return DominanceReport(mean, se, slack, mean >= -band,
                           abs(mean) <= band, mean > band)


# ---------------------------------------------------------------------------
# split-balance probe


def balanced_sampling_probe(n: int, *, trials: int | None = None,
                            seed: int | None = None) -> float:
    """P(every prefix count n_i <= (3/4)i | top agent not sampled), exact.

    The probabilities of each sampled count among ranks 2..i are carried one
    rank at a time and cut at the limit (3i)//4: O(n^2) operations in O(n)
    memory, in two buffers that swap each rank. A buffer is only written
    below its limit, which never falls, so what lies above it is still zero.
    trials and seed are deprecated and ignored.
    """
    if trials is not None or seed is not None:
        warnings.warn("balanced_sampling_probe is exact: trials and seed are "
                      "ignored", DeprecationWarning, stacklevel=2)
    if n < 1:
        raise ValueError("need at least one agent")
    # counts kept after rank i, written once: the last also sizes w
    tops = [3 * i // 4 + 1 for i in range(2, n + 1)]
    w = np.zeros(max(tops, default=1))
    u = np.zeros_like(w)
    w[0] = 1.0
    for top in tops:
        u[0] = w[0]
        np.add(w[1:top], w[:top - 1], out=u[1:top])
        u[:top] /= 2
        w, u = u, w
    return float(w.sum())
