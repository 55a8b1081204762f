"""Incentive and identity audits for the shipped mechanisms.

An auditable mechanism exposes its exact interim rule: the win probability
and expected payment of one agent as a function of their bid, with all
opponent bids fixed and all mechanism randomness integrated out in closed
form. audit_mechanism reads it from the mechanism table (mechanisms.py),
with the bids besides the opponents' where it may jump.

On top of the interim rule sit:

- a deviation scan (no bid may beat truthful bidding),
- a payment-identity check p(b) = b*x(b) - integral of x from 0 to b,
  evaluated exactly for step rules by midpoint sampling between grid points,
- Monte Carlo verification that expected utility equals the exact prior
  value of a rank rule, through the utility virtual value of winners as a
  control variate,
- the exact gain of ironing in a rank rule's virtual-value objective, which
  is never negative, integrated on the ironing grid,
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

from .common import (MechanismEval, check_draws, mc_blocks, mc_eval,
                     quantile_draw, substream)
from .distributions import (ValueDistribution, ValuationProfile, as_profile,
                            sample_profile, virtual_value_utility)
from .ironing import IronedVirtual, check_ironed_for, iron
from .mechanisms import (MECHANISMS, Params, _entry, _require_k, _residual,
                         _ruled, _vickrey_rule, unpriced)

DSIC_TOL = 1e-9
MIN_IDENTITY_GRID = 256


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


def _first_price_rule(V: np.ndarray, k: int):
    """Vickrey's allocation, but winners burn their own bid. Not truthful."""
    X, _ = _vickrey_rule(V, k)
    return X, X * V


# the non-truthful control, audited beside the table's mechanisms
CONTROLS = {"firstprice": _ruled((), lambda V, k, a: _first_price_rule(V, k))}


def audit_mechanism(name: str, k: int = 1, **params) -> AuditableMechanism:
    """Build the interim adapter for a mechanism name.

    Names match the CLI: the mechanism table's, plus the non-truthful
    firstprice control. params are the Params fields the entry reads, as
    for mechanisms.evaluate. An unread field and bad values are rejected
    here, before any interim is evaluated. The interim refuses values that
    as_profile refuses and a bid that is not finite and at least 0 (_bids)."""
    entry, a = _entry(name, params, {**MECHANISMS, **CONTROLS})
    rule = entry.interim(k, a)
    mech = AuditableMechanism(name, lambda values, i, bids: rule(
        as_profile(values).values, i, _bids(bids, "bids")), entry.edges(a))
    # each rule checks its own parameters; with no bids it does nothing else
    mech.interim(np.zeros(2), 0, [])
    return mech


# ---------------------------------------------------------------------------
# deviation scan and payment identity


@dataclass(frozen=True)
class DeviationReport:
    mechanism: str
    passed: bool
    max_gain: float
    agent: int
    bid: float


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
    """bid is the witness: the bid of the largest identity error, or the
    first bid where a non-monotone win probability falls."""

    passed: bool
    monotone: bool
    max_error: float
    agent: int
    bid: float


def check_dsic(mech: AuditableMechanism, profile, bid_grid) -> DeviationReport:
    """Scan every agent at the same bids, the grid, the values and the edges,
    in one interim call, for the first strictly largest gain over bidding
    truthfully, agents in order and then bids. It passes when that gain is at
    most DSIC_TOL; a NaN gain is the witness and fails."""
    values, grid = as_profile(profile).values, _bids(bid_grid, "bid grid")
    if values.size == 0:  # some rules reject an empty profile
        return DeviationReport(mech.name, True, -np.inf, 0, 0.0)
    bids = np.unique(np.concatenate((grid, values, mech.edges)))
    x, pay = _scan(mech, values, bids)
    utility = values[:, None] * x - pay
    gain = utility - utility[np.arange(values.size), np.searchsorted(bids, values), None]
    i, j = np.unravel_index(np.argmax(gain), gain.shape)
    return DeviationReport(mech.name, bool(gain[i, j] <= DSIC_TOL), float(gain[i, j]),
                           int(i), float(bids[j]))


def _bids(bids, what: str) -> np.ndarray:
    """Bids as floats; one that is not finite and at least 0 gets no verdict."""
    b = np.asarray(bids, dtype=float)
    bad = b[~((b >= 0) & (b < np.inf))]
    if bad.size:
        need = "at least 0" if np.isfinite(bad[0]) else "finite"
        raise ValueError(f"{what} must be {need}, got {bad[0].item()!r}")
    return b


def _scan(mech: AuditableMechanism, values: np.ndarray, bids: np.ndarray) -> tuple:
    """One interim call asking every agent the same bids: (x, pay), each (agents, bids)."""
    n = values.size
    x, pay = mech.interim(values, np.repeat(np.arange(n), bids.size), np.tile(bids, n))
    return x.reshape(n, -1), pay.reshape(n, -1)


@functools.lru_cache(maxsize=1)
def _identity_table(interim, edges: tuple, values: bytes, grid: bytes) -> list:
    """The last profile's rules, by bytes, so an array changed in place keys afresh."""
    return []


def extract_interim_rule(mech: AuditableMechanism, profile, i: int,
                         bid_grid) -> InterimRule:
    """Tabulate agent i's interim rule on 0, the grid, the edges and the
    values, its own included. Callers ask for every agent of a profile in
    turn, so one interim call, every agent at the same bids, fills the table
    of the last profile and grid (_identity_table) with every agent's rule,
    read-only; rows are independent, so each is bit for bit agent i's."""
    values = as_profile(profile).values
    if isinstance(i, bool) or not (isinstance(i, (int, np.integer)) and 0 <= i < values.size):
        raise ValueError(f"agent must be an integer in 0..{values.size - 1}, got {i!r}")
    grid = np.asarray(bid_grid, dtype=float)
    table = _identity_table(mech.interim, mech.edges, values.tobytes(), grid.tobytes())
    if not table:
        b = np.unique(np.concatenate(([0.0], _bids(grid, "bid grid"), mech.edges, values)))
        x, p = _scan(mech, values, np.concatenate((b, 0.5 * (b[1:] + b[:-1]))))
        b.flags.writeable = x.flags.writeable = p.flags.writeable = False
        table += [InterimRule(a, b, x[a, :b.size], p[a, :b.size], x[a, b.size:])
                  for a in range(values.size)]
    return table[i]


def check_payment_identity(rule: InterimRule) -> PaymentIdentityReport:
    """Verify p(b) = b*x(b) - integral of x on the tabulated rule, up to
    DSIC_TOL at every bid.

    A non-monotone win probability fails before the identity is evaluated.
    """
    if rule.bids.size < MIN_IDENTITY_GRID:
        raise ValueError(f"need at least {MIN_IDENTITY_GRID} grid bids")
    if rule.bids[0] != 0.0:
        raise ValueError("bid grid must start at 0 for the identity integral")
    eps = 1e-12
    # per cell, written so that NaN fails: x falls by the midpoint, by the
    # next bid, or from one bid to the next
    by_mid = ~(rule.x_mid >= rule.x[:-1] - eps)
    falls = by_mid | ~(rule.x_mid <= rule.x[1:] + eps) | ~(np.diff(rule.x) >= -eps)
    if falls.any():
        j = int(np.argmax(falls))
        bid = 0.5 * (rule.bids[j] + rule.bids[j + 1]) if by_mid[j] else rule.bids[j + 1]
        return PaymentIdentityReport(False, False, np.inf, rule.agent, float(bid))
    integral = np.concatenate(
        ([0.0], np.cumsum(rule.x_mid * np.diff(rule.bids))))
    err = np.abs(rule.p - (rule.bids * rule.x - integral))
    j = int(np.argmax(err))
    return PaymentIdentityReport(bool(err[j] <= DSIC_TOL), True, float(err[j]),
                                 rule.agent, float(rule.bids[j]))


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
            values = sample_profile(dist, n, rng).values.copy()
        else:
            values = 10.0 ** rng.uniform(-1, 1) * rng.random(n)
        if n >= 2 and rng.random() < 0.3:
            a, b = rng.choice(n, size=2, replace=False)
            values[a] = values[b]
        profiles.append(ValuationProfile(values))
    return profiles


# ---------------------------------------------------------------------------
# virtual-value identities


@dataclass(frozen=True)
class IdentityReport:
    """The utility identity on one draw: utility, the MC estimate of expected
    utility; virtual, its exact value under the prior; controlled, the
    control-variate estimate of expected utility that the verdict tests
    against virtual."""

    utility: MechanismEval
    virtual: MechanismEval
    controlled: MechanismEval
    passed: bool


def verify_utility_identity(d: ValueDistribution, mechanism: str, k: int,
                            n: int, reps: int, seed: int,
                            iv: IronedVirtual | None = None) -> IdentityReport:
    """Check E[sum of utilities] = E[sum of theta(v)*x] + B against the exact
    prior value T of a rank rule.

    When the support starts at a, bids below a still earn utility, the
    bottom term B = n*a*xbar(0); T and B are the mechanism's prior view. One
    rule call per block of rows gives each row's utility u and its control
    c, the row's sum of theta(v)*x, whose exact mean is T - B. With beta =
    cov(u, c)/var(c) (0 when c is constant, as under exp(1) where theta is
    1), Z = u - beta*(c - (T - B)) has mean T and cancels the tail u and c
    share: on pareto(1, 2) both have infinite variance, Z does not. The check
    passes iff |mean Z - T| <= Z99*sd(Z)/sqrt(reps) + n*h^1.5, the last term
    the grid error of T on its grid of 1/h + 1 quantiles; for a closed form
    it is 1e-12*(1 + |T|), rounding alone.

    The draws run on blocks of at most 2^13 values (common.mc_blocks),
    whose float temporaries fit under glibc's mmap threshold; u and c are
    joined from the blocks, as beta reads them whole, so the report is that
    of one (reps, n) draw. reps below MIN_REPLICATES and n below 1 are
    rejected, and so is a mechanism without a prior view.
    """
    entry = unpriced(mechanism, "prior")
    check_draws(reps, n)
    iv = iron(d) if iv is None and "iv" in entry.reads else iv
    virtual, bottom = entry.prior(d, n, k, iv)
    a = Params(iv=iv)

    def sides(V):
        X, P = entry.rule(V, k, a)
        theta = np.asarray(virtual_value_utility(d, V), dtype=float)
        return _residual(V, X, P), (theta * X).sum(axis=1)

    rng = substream(seed, "utility-identity", mechanism, n, k)
    blocks = mc_blocks(quantile_draw(d, rng), reps, n, sides)
    u, c = map(np.concatenate, zip(*blocks))
    controlled = mc_eval(_controlled(u, c, virtual.mean - bottom), seed)
    # T's grid error, or the rounding of a closed form
    cells = virtual.replicates - 1
    tol = controlled.ci_halfwidth + (n * cells ** -1.5 if cells
                                     else 1e-12 * (1.0 + abs(virtual.mean)))
    return IdentityReport(mc_eval(u, seed), virtual, controlled,
                          abs(controlled.mean - virtual.mean) <= tol)


def _controlled(u: np.ndarray, c: np.ndarray, mean_c: float) -> np.ndarray:
    """u less beta times c's deviation from its exact mean, beta the
    least-squares slope of u on c; beta is 0 when c's sample sd is below
    1e-12 * (1 + |mean c|). It works in place in two arrays, as each
    reps-long temporary is mapped afresh; (-beta) * t is -(beta * t)
    exactly, so the result is u - beta * t bit for bit."""
    dc = c - c.mean()
    z = dc * dc
    scale = float(z.sum())
    if math.sqrt(scale / (c.size - 1)) < 1e-12 * (1.0 + abs(float(c.mean()))):
        return u
    np.subtract(u, u.mean(), out=z)
    z *= dc
    beta = float(z.sum()) / scale
    np.subtract(c, mean_c, out=z)
    z *= -beta
    z += u
    return z


@dataclass(frozen=True)
class DominanceReport:
    """The exact gain E[sum (phibar - theta) x] of ironing for a rank rule.

    diff_se is 0, since no profile is drawn. slack absorbs the grid
    discretization of phibar; inequality_passed is the one-sided test,
    equality the two-sided one, strict the significantly positive case, each
    against slack plus the gain's rounding allowance.
    """

    diff_mean: float
    diff_se: float
    slack: float
    inequality_passed: bool
    equality: bool
    strict: bool


def verify_ironing_dominance(d: ValueDistribution, monotone_rule: str,
                             reps: int, seed: int, k: int = 1, n: int = 8,
                             iv: IronedVirtual | None = None,
                             slack: float | None = None) -> DominanceReport:
    """Check that ironing never lowers the virtual-value objective of a rank
    rule: its exact gain n * sum_c (phibar_c - theta_c) * int_c xbar dq.

    c runs over the cells of iv's grid, theta_c = iv.cell_slopes[c] and xbar
    is the entry's interim win probability; the strips below and above the
    grid take the end cells' weights, as iv._cell clips there. Each piece's
    integral is the trapezoid of xbar's left and right ends, so Bayes's
    jumps at its intervals' ends count on each side. With no ironing the
    gain is 0.0 exactly. The band is slack plus 1e-12 of the two sides the
    gain cancels, n * sum_c (phibar_c + theta_c) * int_c xbar dq, each sum
    an np.add.reduce, as a BLAS dot's bits vary with its threads. No profile
    is drawn, so reps and seed are not read; reps below MIN_REPLICATES, n or
    k below 1, a negative or non-finite slack and a rule with no xbar
    (RSOL) are rejected."""
    check_ironed_for(d, iv)
    entry = unpriced(monotone_rule, "xbar")
    # before the default slack, which scales with min(k, n)
    check_draws(reps, n)
    slack = float(1e-3 * min(k, n) * (1.0 + d.mean) if slack is None else slack)
    if not 0.0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")
    _require_k(k)
    if iv is None:
        iv = iron(d)
    q = np.concatenate(([0.0], iv.q))
    left, right, top = entry.xbar(q, n, k, iv)
    # xbar integrated over the strip below the grid, each cell, the strip above
    pieces = np.append(0.5 * (left + right) * np.diff(q),
                       0.5 * (right[-1] + top) * (1.0 - q[-1]))
    phibar, theta = (np.concatenate((w[:1], w, w[-1:]))
                     for w in (iv.phibar[:-1], iv.cell_slopes))
    gain = n * float(np.add.reduce((phibar - theta) * pieces))
    band = slack + 1e-12 * n * float(np.add.reduce((phibar + theta) * pieces))
    return DominanceReport(gain, 0.0, slack, gain >= -band, abs(gain) <= band,
                           gain > band)


# ---------------------------------------------------------------------------
# split-balance probe


def balanced_sampling_probe(n: int, *, trials: int | None = None,
                            seed: int | None = None) -> float:
    """P(every prefix count n_i <= (3/4)i | top agent not sampled), exact.

    The probabilities of each sampled count among ranks 2..i are carried one
    rank at a time and cut at the limit (3i)//4: O(n^2) operations in O(n)
    memory, in two buffers that swap each rank. A buffer is only written
    below its limit, which never falls, so what lies above it is still zero.
    They are carried scaled by 2^(i-1), as mask counts, so a rank is one
    addition and no halving; the scale comes off 2^256 at a time every 256
    ranks and the rest at the end, so no entry exceeds 2^256. A power of two
    scales a normal number exactly, so each entry is the halving loop's up
    to that power, except where the halving loop's entry is subnormal: that
    tail sits some 10^-300 below the last bit of the sum.
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
    pending = 0  # w holds 2^pending times the probabilities
    for top in tops:
        u[0] = w[0]
        np.add(w[1:top], w[:top - 1], out=u[1:top])
        w, u = u, w
        pending += 1
        if pending == 256:
            w[:top] *= 2.0 ** -256
            pending = 0
    w *= 2.0 ** -pending
    return float(w.sum())
