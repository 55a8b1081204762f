import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnlab import common, mechanisms
from burnlab.audit import (DSIC_TOL, MIN_IDENTITY_GRID, AuditableMechanism,
                           DeviationReport, DominanceReport, IdentityReport,
                           InterimRule, audit_mechanism, audit_profiles,
                           balanced_sampling_probe, check_dsic,
                           check_payment_identity, extract_interim_rule,
                           verify_ironing_dominance, verify_utility_identity)
from burnlab.common import _PASS_CELLS, Z99, MechanismEval, mc_eval, substream
from burnlab.distributions import (ValuationProfile, as_profile, exponential,
                                   pareto, piecewise_inverse_hazard, uniform,
                                   virtual_value_utility)
from burnlab.ironing import iron
from burnlab.mechanisms import (ALIASES, MECHANISMS, Params, _ladder_sizes,
                                _residual, _rsol_halving_sums, _rsol_interim,
                                _rsol_values, evaluate, expected_log_price,
                                expected_rsol, expected_under_prior, run,
                                unpriced)
from burnlab.simlab import estimate

PRIOR_RULES = ("lottery", "vickrey", "bayes")


def interim_total(mech, prof):
    # adding each agent's truthful interim utility reproduces the
    # mechanism's expected residual surplus
    total = 0.0
    for i, v in enumerate(prof.values):
        x, pay = mech.interim(prof.values, i, np.array([v]))
        total += v * float(x[0]) - float(pay[0])
    return total


# ---------------------------------------------------------------------------
# deviation scan and payment identity on a random corpus


def test_vickrey_interim_tie_oracle():
    mech = audit_mechanism("vickrey", 1)
    values = np.array([2.0, 2.0, 1.0])
    x, pay = mech.interim(values, 0, np.array([2.0, 2.5, 0.5]))
    assert list(x) == [0.5, 1.0, 0.0]
    assert list(pay) == [1.0, 2.0, 0.0]


def test_adapters_truthful_on_random_corpus():
    corpus = audit_profiles(5, count=10, n_range=(2, 5))
    assert sum(np.unique(p.values).size < p.n for p in corpus) >= 2
    mechs = [audit_mechanism("vickrey", 1), audit_mechanism("vickrey", 2),
             audit_mechanism("plottery", 1, p=0.2),
             audit_mechanism("pqlottery", 2, p=0.5, q=0.1),
             audit_mechanism("rsol", 1), audit_mechanism("logprice", 2)]
    for prof in corpus:
        hi = 1.25 * max(float(prof.values.max()), 0.5)
        dsic_grid = np.linspace(0.0, hi, 64)
        pay_grid = np.linspace(0.0, hi, 256)
        for mech in mechs:
            report = check_dsic(mech, prof, dsic_grid)
            assert report.passed, (mech.name, prof.values, report)
            for i in range(prof.n):
                rule = extract_interim_rule(mech, prof, i, pay_grid)
                pay = check_payment_identity(rule)
                assert pay.passed, (mech.name, prof.values, i, pay)


def dsic_agent_loop(mech, profile, bid_grid):
    # the deviation scan with one interim call per agent, on the grid, the
    # values and the edges
    values = np.asarray(profile.values, dtype=float)
    bids = np.unique(np.concatenate((bid_grid, values, mech.edges)))
    worst, arg = -np.inf, (0, 0.0)
    for i in range(values.size):
        x, pay = mech.interim(values, i, bids)
        utility = values[i] * x - pay
        gain = utility - utility[int(np.searchsorted(bids, values[i]))]
        j = int(np.argmax(gain))
        if gain[j] > worst:
            worst, arg = float(gain[j]), (i, float(bids[j]))
    return DeviationReport(mech.name, worst <= DSIC_TOL, worst, *arg)


def a8_suites(bridge_dist, iv_bridge):
    # A8's corpora and adapters, plus the firstprice control on the shared
    # corpus, where its witness moves from profile to profile
    shared = audit_profiles(17, count=100, n_range=(2, 8))
    return [
        (audit_mechanism("plottery", 2, p=0.2), shared, 0.2),
        (audit_mechanism("pqlottery", 2, p=0.5, q=0.1), shared, 0.5),
        (audit_mechanism("vickrey", 2), shared, 0.0),
        (audit_mechanism("logprice", 2), shared, 0.0),
        (audit_mechanism("rsol", 1), shared, 0.0),
        (audit_mechanism("firstprice", 1), shared, 0.0),
        (audit_mechanism("bayes", 1, iv=iv_bridge),
         audit_profiles(17, count=100, n_range=(2, 6), dist=bridge_dist), 0.0),
        (audit_mechanism("mix"), audit_profiles(17, count=100, n_range=(2, 2)), 0.0),
    ]


def test_check_dsic_matches_agent_loop(bridge_dist, iv_bridge):
    for mech, corpus, pmax in a8_suites(bridge_dist, iv_bridge):
        for prof in corpus:
            grid = np.linspace(0.0, 1.25 * max(float(prof.values.max()), pmax, 1e-9), 64)
            assert check_dsic(mech, prof, grid) == dsic_agent_loop(mech, prof, grid)
        # no agents, no interim call: the ladder and the mixture reject one
        empty = ValuationProfile([])
        assert check_dsic(mech, empty, grid) == dsic_agent_loop(mech, empty, grid)


def test_mix_truthful_on_two_agent_corpus():
    mech = audit_mechanism("mix")
    for prof in audit_profiles(9, count=8, n_range=(2, 2)):
        hi = 1.25 * max(float(prof.values.max()), 1e-9)
        assert check_dsic(mech, prof, np.linspace(0.0, hi, 64)).passed
        for i in range(2):
            rule = extract_interim_rule(mech, prof, i,
                                        np.linspace(0.0, hi, 256))
            assert check_payment_identity(rule).passed


def test_bayes_truthful_on_prior_corpus(bridge_dist, iv_bridge):
    mech = audit_mechanism("bayes", 1, iv=iv_bridge)
    for prof in audit_profiles(5, count=8, n_range=(2, 4), dist=bridge_dist):
        hi = 1.25 * float(prof.values.max())
        assert check_dsic(mech, prof, np.linspace(0.0, hi, 64)).passed
        for i in range(prof.n):
            rule = extract_interim_rule(mech, prof, i,
                                        np.linspace(0.0, hi, 256))
            assert check_payment_identity(rule).passed


def interval_end_profiles(iv_bridge):
    # values exactly on v_lo or v_hi, where the hull segment (right-continuous
    # in the cdf) and a two-price band (q, p] would place a bid differently;
    # prior draws never land there
    itv = iv_bridge.intervals[0]
    lo, hi = itv.v_lo, itv.v_hi
    return lo, hi, [[hi, hi], [lo, 1.5], [2.5, hi, 1.2], [lo, lo], [hi, 1.5],
                    [lo, hi], [hi, lo, 1.5], [2.5, lo, 1.2], [hi, hi, lo, 1.5]]


def test_bayes_truthful_at_interval_ends(iv_bridge):
    lo, hi, profiles = interval_end_profiles(iv_bridge)
    for k in (1, 2):
        mech = audit_mechanism("bayes", k, iv=iv_bridge)
        for values in profiles:
            top = 1.25 * max(values)
            dsic = check_dsic(mech, values, np.concatenate(
                (np.linspace(0.0, top, 64), [lo, hi])))
            assert dsic.passed, (k, values, dsic)
            for i in range(len(values)):
                rule = extract_interim_rule(mech, values, i,
                                            np.linspace(0.0, top, 256))
                pay = check_payment_identity(rule)
                assert pay.passed, (k, values, i, pay)


def extract_agent_loop(mech, profile, i, bid_grid):
    # one agent's rule from its own interim call, on 0, the grid, the
    # values, its own included, and the edges
    values = as_profile(profile).values
    bids = np.unique(np.concatenate(([0.0], bid_grid, values, mech.edges)))
    mids = 0.5 * (bids[1:] + bids[:-1])
    x, p = mech.interim(values, i, np.concatenate((bids, mids)))
    return InterimRule(i, bids, x[:bids.size], p[:bids.size], x[bids.size:])


def assert_rules_match_agent_loop(mech, profile, grid):
    for i in range(as_profile(profile).n):
        got = extract_interim_rule(mech, profile, i, grid)
        ref = extract_agent_loop(mech, profile, i, grid)
        assert got.agent == i, (mech.name, profile, i)
        for field in ("bids", "x", "p", "x_mid"):
            assert (getattr(got, field).tobytes()
                    == getattr(ref, field).tobytes()), (mech.name, profile, i, field)


def test_extract_interim_rule_matches_agent_loop(bridge_dist, iv_bridge):
    # stale keys first: the same values on another grid, the same profile
    # under another k, and the values changed in place between calls
    values = np.array([0.3, 1.1, 0.0, 1.1, 1.7])
    for k in (1, 2):
        mech = audit_mechanism("vickrey", k)
        for top in (2.5, 3.0):
            assert_rules_match_agent_loop(mech, values, np.linspace(0.0, top, 256))
    values[1] = 1.5
    assert_rules_match_agent_loop(mech, values, np.linspace(0.0, 3.0, 256))
    for mech, corpus, pmax in a8_suites(bridge_dist, iv_bridge):
        for prof in corpus:
            hi = 1.25 * max(float(prof.values.max()), pmax, 1e-9)
            assert_rules_match_agent_loop(mech, prof, np.linspace(0.0, hi, 256))
    lo, hi, profiles = interval_end_profiles(iv_bridge)
    for k in (1, 2):
        mech = audit_mechanism("bayes", k, iv=iv_bridge)
        for values in profiles:
            assert_rules_match_agent_loop(mech, values,
                                          np.linspace(0.0, 1.25 * max(values), 256))


@pytest.mark.parametrize("i", [-1, 3])
def test_extract_interim_rule_rejects_agent_outside_profile(i):
    mech = audit_mechanism("vickrey", 1)
    with pytest.raises(ValueError, match=r"agent must be an integer in 0\.\.2, got"):
        extract_interim_rule(mech, [3.0, 1.0, 2.0], i, np.linspace(0.0, 4.0, 256))


def test_extract_interim_rule_rejects_bool_agent():
    # isinstance(True, int) holds, but True is no agent: the extract refuses
    # it as the interim does, rather than reading agent 1's rule
    mech = audit_mechanism("vickrey", 1)
    grid = np.linspace(0.0, 4.0, 256)
    for call in (lambda: extract_interim_rule(mech, [3.0, 1.0], True, grid),
                 lambda: mech.interim([3.0, 1.0], True, [1.0])):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "agent must be an integer in 0..1, got True"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_audits_reject_non_finite_grid_bid(bad):
    # a NaN grid bid once got a verdict: check_dsic passed on [0, 1, nan],
    # and Vickrey's identity check failed with NaN as its witness bid
    mech = audit_mechanism("vickrey", 1)
    grid = np.append(np.linspace(0.0, 4.0, 256), bad)
    for call in (lambda: check_dsic(mech, [3.0, 1.0], [0.0, 1.0, bad]),
                 lambda: check_dsic(mech, [], [bad]),
                 lambda: extract_interim_rule(mech, [3.0, 1.0], 0, grid)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"bid grid must be finite, got {bad!r}"


def test_audits_reject_negative_grid_bid():
    # a grid bid below 0 once got a verdict, as no value can be one
    mech = audit_mechanism("vickrey", 1)
    grid = np.append(np.linspace(0.0, 4.0, 256), -5.0)
    for call in (lambda: check_dsic(mech, [3.0, 1.0], [-5.0, 0.0, 1.0]),
                 lambda: extract_interim_rule(mech, [3.0, 1.0], 0, grid)):
        assert refusal(call) == "bid grid must be at least 0, got -5.0"


@pytest.mark.parametrize("name", ["plottery", "pqlottery", "vickrey", "logprice", "rsol",
                                  "mix", "bayes", "firstprice"])
@pytest.mark.parametrize("values, bids, message", [
    pytest.param([3.0, -1.0], [1.0], "profile values must be finite and nonnegative",
                 id="negative-value"),
    pytest.param([3.0, np.nan], [1.0], "profile values must be finite and nonnegative",
                 id="nan-value"),
    pytest.param([[3.0, 1.0]], [1.0], "profile must be one-dimensional", id="2-d-values"),
    pytest.param([3.0, 1.0], [1.0, -np.inf], "bids must be finite, got -inf", id="-inf-bid"),
    pytest.param([3.0, 1.0], [np.nan], "bids must be finite, got nan", id="nan-bid"),
    pytest.param([3.0, 1.0], [np.inf], "bids must be finite, got inf", id="inf-bid"),
    pytest.param([3.0, 1.0], [2.0, -1.0], "bids must be at least 0, got -1.0",
                 id="negative-bid")])
def test_interim_refuses_what_no_value_can_be(iv_exp, name, values, bids, message):
    # the audit's interim once answered these: rsol gave x = 0.5 on (3, -1),
    # a bid of -1 won under rsol and mix, and a -inf bid paid NaN under
    # vickrey, logprice and mix
    params = {"plottery": {"p": 0.5}, "pqlottery": {"p": 2.0, "q": 0.5}, "bayes": {"iv": iv_exp}}
    mech = audit_mechanism(name, 1, **params.get(name, {}))
    assert refusal(lambda: mech.interim(values, 0, bids)) == message


@pytest.mark.parametrize("name", ["vickrey", "rsol"])
@pytest.mark.parametrize("i, bad", [(3, "3"), (-1, "-1"), (1.0, "1.0"),
                                    (np.array([0, 1, 2]), None),
                                    (np.array([0, 5, 1]), "5"),
                                    (np.array([2, 1, -2]), "-2"),
                                    (np.array([0.0, 1.0, 2.0]), "0.0")])
def test_interim_rejects_agent_outside_profile(name, i, bad):
    # the tiled interim (vickrey) and RSOL's table refuse alike, for one
    # agent and for an agent array aligned with the bids; -1 no longer
    # answers for the last agent
    mech = audit_mechanism(name, 1)
    values, bids = [3.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    if bad is None:
        x, pay = mech.interim(values, i, bids)
        assert x.shape == pay.shape == (3,)
        return
    with pytest.raises(ValueError) as exc:
        mech.interim(values, i, bids)
    assert str(exc.value) == f"agent must be an integer in 0..2, got {bad}"


def test_firstprice_flagged():
    mech = audit_mechanism("firstprice", 1)
    prof = np.array([3.0, 1.0])
    report = check_dsic(mech, prof, np.linspace(0.0, 4.0, 64))
    assert not report.passed
    assert report.max_gain > 0.5
    rule = extract_interim_rule(mech, prof, 0, np.linspace(0.0, 4.0, 256))
    pay = check_payment_identity(rule)
    assert not pay.passed and pay.max_error > 0.5
    # agent 0 burns its bid b, where the identity charges 1 above 1: the
    # error b - 1 is largest at the top bid
    assert pay.bid == 4.0 and pay.max_error == pytest.approx(3.0, rel=1e-12)


def test_check_dsic_flags_a_tie_only_deviation():
    # Vickrey, but a bid equal to an opponent's value pays nothing: the one
    # profitable deviation is agent 1 bidding agent 0's value 3, a tie no
    # grid point hits, won half the time for free
    vickrey = audit_mechanism("vickrey", 1)

    def interim(values, i, bids):
        x, pay = vickrey.interim(values, i, bids)
        values, bids = np.asarray(values, dtype=float), np.asarray(bids, dtype=float)
        own = np.broadcast_to(i, bids.shape)[:, None] == np.arange(values.size)
        tied = ((bids[:, None] == values) & ~own).any(axis=1)
        return x, np.where(tied, 0.0, pay)

    mech = AuditableMechanism("tie-waiver", interim)
    grid = np.linspace(0.0, 4.0, 64)
    assert not np.isin([1.0, 3.0], grid).any()
    assert check_dsic(mech, [3.0, 1.0], grid) == DeviationReport(
        "tie-waiver", False, 0.5, 1, 3.0)


def test_check_dsic_nan_gain_fails():
    # a NaN payment at bid 4 once hid firstprice's profitable underbid: the
    # scan skipped it and passed with gain -inf; now it is the witness
    firstprice = audit_mechanism("firstprice", 1)

    def interim(values, i, bids):
        x, pay = firstprice.interim(values, i, bids)
        return x, np.where(np.asarray(bids) == 4.0, np.nan, pay)

    report = check_dsic(AuditableMechanism("nan-pay", interim), [3.0, 1.0], [4.0])
    assert not report.passed and np.isnan(report.max_gain)
    assert (report.agent, report.bid) == (0, 4.0)


def test_audits_ask_every_agent_one_bid_row(bridge_dist, iv_bridge):
    # check_dsic and a fresh identity table each make one interim call per
    # profile and grid, with the same bids for every agent: the DSIC row is
    # the grid, the values and the edges; the identity row adds 0 and the
    # midpoints
    for mech, corpus, pmax in a8_suites(bridge_dist, iv_bridge):
        calls = []

        def counted(values, i, bids, interim=mech.interim):
            calls.append((np.asarray(i), np.asarray(bids)))
            return interim(values, i, bids)

        wrapped = AuditableMechanism(mech.name, counted, mech.edges)
        for prof in corpus[:20]:
            hi = 1.25 * max(float(prof.values.max()), pmax, 1e-9)
            dsic_grid, pay_grid = np.linspace(0.0, hi, 64), np.linspace(0.0, hi, 256)
            calls.clear()
            check_dsic(wrapped, prof, dsic_grid)
            for i in range(prof.n):
                extract_interim_rule(wrapped, prof, i, pay_grid)
            assert len(calls) == 2, (mech.name, prof.values)
            b = np.unique(np.concatenate(([0.0], pay_grid, mech.edges, prof.values)))
            rows = [np.unique(np.concatenate((dsic_grid, prof.values, mech.edges))),
                    np.concatenate((b, 0.5 * (b[1:] + b[:-1])))]
            for (agents, bids), row in zip(calls, rows):
                assert np.array_equal(agents, np.repeat(np.arange(prof.n), row.size))
                assert np.array_equal(bids, np.tile(row, prof.n))


def rejects(call):
    # a ValueError, told apart from the AssertionError a mutant must raise
    try:
        call()
    except ValueError:
        return True
    return False


def refusal(call):
    # the one-line message of the ValueError call raises; no error, or
    # another one, fails with the AssertionError a mutant must raise
    try:
        call()
    except ValueError as err:
        assert "\n" not in str(err), err
        return str(err)
    except Exception as err:
        raise AssertionError(f"not a ValueError: {err!r}") from err
    raise AssertionError("not refused")


# plain-Python oracles, each mechanism's expected residual from its
# definition, with no call into the package but the ladder's rung sizes


def lottery_oracle(values, k, p, strict=False):
    # each of the m agents with v >= p (v > p when strict) wins min(k, m)/m
    # and pays p
    elig = [v for v in values if (v > p if strict else v >= p)]
    m = len(elig)
    return min(k, m) / m * sum(v - p for v in elig) if m else 0.0


def two_price_oracle(top, band, k, lo, hi):
    # the top share k units at hi if they are more than k, everyone wins at
    # lo if all fit, else the top win surely at the blended price and the
    # band shares the other k - s units at lo
    s, t = len(top), len(band)
    if s > k:
        return k / s * sum(v - hi for v in top)
    if s + t <= k:
        return sum(v - lo for v in top + band)
    price = ((k - s + 1) * lo + (s + t - k) * hi) / (t + 1)
    return sum(v - price for v in top) + (k - s) / t * sum(v - lo for v in band)


def vickrey_oracle(values, k):
    # the top k win and pay the k+1-st value; agents tied at it gain nothing
    desc = sorted(values, reverse=True)
    price = desc[k] if len(desc) > k else 0.0
    return sum(v - price for v in desc if v > price)


def bayes_oracle(iv, values, k):
    # Vickrey, unless the k+1-st value lies in an interior ironed interval
    # [v_lo, v_hi): then the two-price lottery at its ends, with the values
    # from v_hi up on top and the interval's in the band
    desc = sorted(values, reverse=True)
    for itv in iv.intervals:
        if len(desc) > k and itv.v_lo <= desc[k] < itv.v_hi:
            assert not itv.at_bottom and not itv.at_top
            return two_price_oracle([v for v in desc if v >= itv.v_hi],
                                    [v for v in desc if itv.v_lo <= v < itv.v_hi],
                                    k, itv.v_lo, itv.v_hi)
    return vickrey_oracle(values, k)


def mix_oracle(values, k):
    if len(values) != 2 or k != 1:
        raise ValueError("the mixture takes two agents and one unit")
    return 2.0 * max(values) / 3.0


def strict_scan(values, k):
    # best strict-lottery (value, price) over the prices 0 and the values,
    # the smallest price on ties; each value sums the agents above the price
    # in descending order, as the kernel does
    best = (-1.0, 0.0)
    for c in sorted({0.0, *values}):
        elig = sorted((v for v in values if v > c), reverse=True)
        m = len(elig)
        value = min(k, m) / m * (sum(elig) - m * c) if m else 0.0
        if value > best[0]:
            best = (value, c)
    return best


def rsol_loop(values, k):
    # plain Python: every halving equally likely, then a fair coin between
    # the strict lottery at the price learned on the other half and Vickrey,
    # both on the serving half
    total = 0.0
    for mask in range(1 << len(values)):
        serve = sorted((v for i, v in enumerate(values) if mask >> i & 1),
                       reverse=True)
        pool = [v for i, v in enumerate(values) if not mask >> i & 1]
        price = strict_scan(pool, k)[1]
        elig = [v for v in serve if v > price]
        m = len(elig)
        lottery = min(k, m) / m * sum(v - price for v in elig) if m else 0.0
        tau = serve[k] if len(serve) > k else 0.0
        total += 0.5 * lottery + 0.5 * (sum(serve[:k]) - min(k, len(serve)) * tau)
    return total / (1 << len(values))


# each table name's oracle
ORACLES = {
    "plottery": lambda v, k, a: lottery_oracle(v, k, a.p),
    "pqlottery": lambda v, k, a: two_price_oracle(
        [x for x in v if x > a.p], [x for x in v if a.q < x <= a.p], k, a.q, a.p),
    "vickrey": lambda v, k, a: vickrey_oracle(v, k),
    "bayes": lambda v, k, a: bayes_oracle(a.iv, v, k),
    "rsol": lambda v, k, a: rsol_loop(v, k),
    "mix": lambda v, k, a: mix_oracle(v, k),
    "logprice": lambda v, k, a: ladder_oracle(v, k),
}


def test_interim_totals_match_expectations(iv_bridge):
    # for every table entry, the agents' truthful interim utilities add up
    # to the row value, to the one-profile value, to evaluate's, to the
    # marginal run's (RSOL's run is realized only) and to the oracle; a
    # profile the oracle rejects (the mixture's), all reject. The price
    # p = 2 sits on a value, where the lottery's eligibility shows.
    assert list(ORACLES) == list(MECHANISMS)
    a = Params(p=2.0, q=0.5, iv=iv_bridge)
    for values in ([3.0, 1.0], [5.0, 4.0, 3.0, 2.0], [4.0, 4.0, 2.0]):
        prof = ValuationProfile(values)
        for name, entry in MECHANISMS.items():
            kw = {field: getattr(a, field) for field in entry.reads}
            for k in (1, 2):
                views = [
                    lambda: interim_total(audit_mechanism(name, k, **kw), prof),
                    lambda: float(entry.value(prof.values[None, :], k, a)[0]),
                    lambda: entry.one(prof, k, a),
                    lambda: evaluate(name, prof, k, **kw)]
                if name != "rsol":
                    views.append(lambda: run(name, prof, k, **kw).residual_surplus)
                if rejects(lambda: ORACLES[name](values, k, a)):
                    assert all(map(rejects, views)), (name, values, k)
                    continue
                want = ORACLES[name](values, k, a)
                for view in views:
                    assert view() == pytest.approx(want), (name, values, k)


def test_audit_mechanism_validation(iv_uniform):
    with pytest.raises(ValueError):
        audit_mechanism("nosuch")
    with pytest.raises(ValueError):
        audit_mechanism("bayes", 1)
    with pytest.raises(ValueError):
        audit_mechanism("pqlottery", 1, p=1.0, q=2.0)
    # rejected when built, not when a later interim misbehaves
    for name, k, prices in [("plottery", 1, {"p": -1.0}),
                            ("pqlottery", 1, {"p": 1.0, "q": -1.0}),
                            ("plottery", 1, {"p": np.nan}),
                            ("pqlottery", 1, {"p": np.nan}),
                            ("pqlottery", 1, {"p": 1.0, "q": np.nan}),
                            ("plottery", 1, {"p": np.inf}),
                            ("pqlottery", 1, {"p": np.inf}),
                            ("vickrey", 0, {}), ("logprice", 0, {}),
                            ("plottery", 0, {})]:
        with pytest.raises(ValueError):
            audit_mechanism(name, k, **prices)
    assert audit_mechanism("bayes", 1, iv=iv_uniform).name == "bayes"


def test_audit_refuses_unread_params(iv_uniform):
    # the audits take the fields an entry reads, as evaluate does: an unread
    # price or prior, once dropped in silence, is refused with evaluate's
    # message, and the control is reached through the same door
    for name, k, params, field in [("vickrey", 2, {"p": 0.5}, "p"),
                                   ("plottery", 1, {"p": 0.2, "q": 0.3}, "q"),
                                   ("firstprice", 1, {"iv": iv_uniform}, "iv")]:
        message = refusal(lambda: audit_mechanism(name, k, **params))
        assert message == f"{field}: {name} does not read it", name
        if name in MECHANISMS:
            assert refusal(lambda: evaluate(name, [1.0], k, **params)) == message
    assert audit_mechanism("firstprice", 1).name == "firstprice"


def ladder_oracle(values, k):
    # the ladder from its definition; only the rung sizes come from the
    # package: each rung L serves the top L at the L+1-st value, min(k, L) units
    desc = sorted(values, reverse=True)
    sizes = _ladder_sizes(len(desc), k)
    total = 0.0
    for L in sizes:
        price = desc[L] if L < len(desc) else 0.0
        total += min(k, L) / L * (sum(desc[:L]) - L * price)
    return total / len(sizes)


@given(st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=1,
                max_size=8), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_ladder_matches_independent_oracle(vals, k):
    prof = ValuationProfile(vals)
    ref = ladder_oracle(vals, k)
    assert expected_log_price(prof, k) == pytest.approx(ref, rel=1e-12, abs=0)
    total = interim_total(audit_mechanism("logprice", k), prof)
    assert total == pytest.approx(ref, rel=1e-12, abs=0)


def learned_price_oracle(values, k):
    # the best strict-lottery price over 0 and the values, smallest on ties
    best, price = -1.0, 0.0
    for c in sorted({0.0, *values}):
        elig = [v for v in values if v > c]
        value = min(k, len(elig)) / len(elig) * sum(v - c for v in elig) if elig else 0.0
        if value > best:
            best, price = value, c
    return price


def rsol_interim_oracle(values, i, bids, k):
    # agent i serves with probability 1/2; per halving of the opponents the
    # price is learned on the rest, then a fair coin picks the strict lottery
    # or Vickrey, whose ties at the margin break uniformly
    opp = [v for j, v in enumerate(values) if j != i]
    x = [0.0] * len(bids)
    pay = [0.0] * len(bids)
    for mask in range(1 << len(opp)):
        serve = [v for j, v in enumerate(opp) if mask >> j & 1]
        price = learned_price_oracle(
            [v for j, v in enumerate(opp) if not mask >> j & 1], k)
        for idx, b in enumerate(bids):
            if b > price:
                m = 1 + sum(v > price for v in serve)
                x[idx] += 0.5 * min(k, m) / m
                pay[idx] += 0.5 * min(k, m) / m * price
            # as in the kernel, a NaN bid is at or below no opponent, so it
            # ranks below them all, as -inf does
            above = sum(not v <= b for v in serve)
            tied = sum(v == b for v in serve)
            win = min(1.0, max(0.0, (k - above) / (tied + 1)))
            x[idx] += 0.5 * win
            if win:
                # the k+1-st of the serving half and the bid; one that ranks
                # below every opponent and wins has fewer than k of them above
                everyone = sorted(serve + [b], reverse=True)
                pay[idx] += 0.5 * win * (everyone[k] if len(everyone) > k else 0.0)
    scale = 0.5 / (1 << len(opp))
    return np.array(x) * scale, np.array(pay) * scale


@given(st.lists(st.integers(0, 8).map(lambda j: j / 4), min_size=1, max_size=6),
       st.integers(1, 3), st.lists(st.floats(0.0, 2.5), max_size=4), st.data())
@settings(max_examples=150, deadline=None)
def test_rsol_interim_matches_halving_oracle(vals, k, extra, data):
    # values on a coarse grid, so ties are common; bids at, between and
    # beside the values, -inf, and NaN, at which every comparison fails, so
    # that it answers as a bid below every value. The audit's interim
    # refuses the last two, so the kernel's own door takes them
    i = data.draw(st.integers(0, len(vals) - 1))
    bids = np.array([-np.inf, *sorted({0.0, *vals, *extra, *(v + 0.125 for v in vals)}),
                     np.nan])
    x, pay = _rsol_interim(k, np.array(vals), i, bids)
    ref_x, ref_pay = rsol_interim_oracle(vals, i, bids, k)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pay, ref_pay, rtol=1e-12, atol=1e-12)


@st.composite
def region_cases(draw):
    # tie-heavy eighths or spread floats, zeros; bids at the values, at their
    # nextafter neighbours, between them, below 0, above the top, inf and NaN
    n = draw(st.integers(1, 9))
    value_st = st.one_of(st.integers(0, 16).map(lambda j: j / 8),
                         st.floats(0.0, 100.0), st.just(0.0))
    values = np.array(draw(st.lists(value_st, min_size=n, max_size=n)))
    u = np.unique(np.append(values, 0.0))
    pool = np.concatenate((u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf),
                           0.5 * (u[1:] + u[:-1]),
                           [-1.0, u[-1] + 1.0, np.inf, -np.inf, np.nan]))
    bids = np.array(draw(st.lists(st.sampled_from(list(pool)), max_size=12)))
    return values, draw(st.integers(0, n - 1)), bids


@given(region_cases(), st.integers(1, 3))
# a bid at a value after one in the gap below it; NaN after a bid above the
# top; two bids in one region, against enough halvings that numpy would add a
# lone column pairwise
@example((np.array([1.0, 2.0]), 0, np.array([1.0, 2.0])), 1)
@example((np.array([1.0, 2.0]), 0, np.array([3.0, np.nan])), 1)
@example((np.array([0.3, 0.7, 0.1, 0.9, 0.5, 0.2]), 0, np.array([2.0, 3.0])), 1)
# a single bid against five opponents: 32 halvings, which numpy would add
# pairwise in a lone column
@example((np.array([0.3, 0.7, 0.1, 0.9, 0.5, 0.2]), 0, np.array([2.0])), 1)
# a bid at another agent's value, which is a cut of the shared row
@example((np.array([1.0, 3.0]), 1, np.array([1.0])), 1)
@settings(max_examples=300, deadline=None)
def test_rsol_region_interim_is_bitwise(case, k):
    values, i, bids = case
    x, pay = _rsol_interim(k, values, i, bids)
    # the kernel on one more bid, as it adds a lone bid column's halvings
    # pairwise and two or more columns' in order, as the table's
    ref_x, ref_pay = (r[:bids.size] for r in _rsol_halving_sums(
        k, np.delete(values, i), np.append(bids, 0.0)))
    assert np.array_equal(x, ref_x) and np.array_equal(pay, ref_pay)


def test_rsol_interim_chunking_invariant():
    # thousands of bids split the halvings into many chunks; a handful of
    # bids takes them in one, with the same sums bit for bit
    values = np.round(np.random.default_rng(4).random(10) * 8) / 4
    o = np.delete(values, 3)
    bids = np.unique(np.concatenate((np.linspace(0.0, 2.5, 3000), values)))
    few = np.unique(values)
    # 2^9 halvings: several chunks at 3,000 bids, one at a handful
    assert (1 << o.size) * few.size <= _PASS_CELLS < (1 << o.size) * bids.size
    x, pay = _rsol_halving_sums(2, o, bids)
    pick = np.searchsorted(bids, few)
    x_few, pay_few = _rsol_halving_sums(2, o, few)
    assert np.array_equal(x[pick], x_few) and np.array_equal(pay[pick], pay_few)
    # the interim runs the kernel once on the profile's region table, here
    # in one chunk
    x_all, pay_all = audit_mechanism("rsol", 2).interim(values, 3, bids)
    assert np.array_equal(x_all, x) and np.array_equal(pay_all, pay)


@pytest.mark.parametrize("n, width", [(1, 2), (3, 1), (6, 5), (12, 24)])
def test_rsol_kernel_agent_axis_is_bitwise(n, width):
    # one call over every agent's opponents and bids equals the 1-D call per
    # agent; at n = 12 the 2^11 halvings of 12 agents' 24 bids take many chunks
    rng = np.random.default_rng(n)
    values = np.round(rng.random(n) * 8) / 4
    o = np.array([np.delete(values, a) for a in range(n)])
    bids = rng.choice(np.append(values, (0.0, 0.1, 1.3, 2.5, np.inf, np.nan)),
                      size=(n, width))
    if n == 12:
        assert (1 << o.shape[1]) * bids.size > 8 * _PASS_CELLS
    x, pay = _rsol_halving_sums(2, o, bids)
    for a in range(n):
        ref_x, ref_pay = _rsol_halving_sums(2, o[a], bids[a])
        assert np.array_equal(x[a], ref_x) and np.array_equal(pay[a], ref_pay)


def test_rsol_table_matches_fresh_kernel():
    # one profile at k = 1 then 2, profiles interleaved A, B, A, and A
    # changed in place: every answer is a fresh kernel call's, bit for bit
    rsol_table = mechanisms._rsol_table
    rsol_table.cache_clear()
    A = np.array([0.5, 1.0, 0.0, 1.0, 2.0])
    B = np.array([3.0, 0.25, 0.75])

    def bids_of(values):
        u = np.unique(np.append(values, 0.0))
        return np.concatenate((u, 0.5 * (u[1:] + u[:-1]), np.nextafter(u, np.inf),
                               [-1.0, u[-1] + 1.0, np.inf, -np.inf, np.nan]))

    def check(values, k):
        # every agent in one call, as check_dsic asks, then each agent alone
        bids = bids_of(values)
        every = np.repeat(np.arange(values.size), bids.size)
        x_all, pay_all = _rsol_interim(k, values, every, np.tile(bids, values.size))
        for i in range(values.size):
            ref = _rsol_halving_sums(k, np.delete(values, i), bids)
            for got in ((x_all[every == i], pay_all[every == i]),
                        _rsol_interim(k, values, i, bids)):
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    for values, k in ((A, 1), (A, 2), (B, 2), (A, 2)):
        check(values, k)
    A[1] = 1.5
    check(A, 2)
    assert rsol_table.cache_info().currsize == 1


def test_rsol_check_dsic_makes_one_kernel_call(monkeypatch):
    # check_dsic fills every agent's table in one call; the extracts after it
    # on the same profile read the table, even after audit_mechanism's
    # validation call, which asks for no agent
    calls = []
    kernel = mechanisms._rsol_halving_sums

    def counted(*args):
        calls.append(args[1].shape)
        return kernel(*args)

    monkeypatch.setattr(mechanisms, "_rsol_halving_sums", counted)
    mechanisms._rsol_table.cache_clear()
    mech = audit_mechanism("rsol", 1)
    grid = np.linspace(0.0, 2.5, MIN_IDENTITY_GRID)
    for prof in audit_profiles(5, count=3, n_range=(3, 7)):
        calls.clear()
        assert check_dsic(mech, prof, grid[::4]).passed
        assert calls == [(prof.n, prof.n - 1)]
        audit_mechanism("rsol", 1)
        for i in range(prof.n):
            assert check_payment_identity(
                extract_interim_rule(mech, prof, i, grid)).passed
        assert len(calls) == 1


def test_rsol_single_agent_calls_share_one_kernel_call(monkeypatch):
    # agent 0's call fills the table with every agent's answers, so agent
    # 1's call on the same profile reads it
    calls = []
    kernel = mechanisms._rsol_halving_sums

    def counted(*args):
        calls.append(args[1].shape)
        return kernel(*args)

    monkeypatch.setattr(mechanisms, "_rsol_halving_sums", counted)
    mechanisms._rsol_table.cache_clear()
    mech = audit_mechanism("rsol", 1)
    values, bids = np.array([3.0, 1.0, 2.0]), np.linspace(0.0, 4.0, 9)
    for i in (0, 1):
        mech.interim(values, i, bids)
    assert calls == [(3, 2)]


def test_rsol_interim_memory_is_chunked():
    # 2^13 halvings x 600 bids would be 39 MB per float array
    values = np.random.default_rng(3).random(14)
    mech = audit_mechanism("rsol", 2)
    tracemalloc.start()
    try:
        mech.interim(values, 0, np.linspace(0.0, 1.25, 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_rsol_interim_rejects_more_than_exact_cap():
    mech = audit_mechanism("rsol", 1)
    with pytest.raises(ValueError, match="at most 20 agents"):
        mech.interim(np.linspace(0.1, 2.0, 21), 0, np.array([0.5]))


# ---------------------------------------------------------------------------
# bayes interim structure


def test_bayes_interim_steps_at_interval_edges(iv_bridge):
    mech = audit_mechanism("bayes", 1, iv=iv_bridge)
    values = np.array([1.8, 1.2])
    lo = iv_bridge.intervals[0].v_lo
    hi = iv_bridge.intervals[0].v_hi
    assert lo in mech.edges and hi in mech.edges
    probes = np.array([0.5, lo - 1e-6, lo + 1e-6, 1.2, 1.5, hi - 1e-6,
                       hi + 1e-6, 2.5])
    x, pay = mech.interim(values, 0, probes)
    assert list(x) == [0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
    assert pay[2] == pytest.approx(0.5 * lo, rel=1e-12)
    assert pay[6] == pytest.approx(0.5 * (lo + hi), rel=1e-12)


# ---------------------------------------------------------------------------
# utility identity and ironing dominance


def test_identity_matrix(iv_uniform, iv_exp, iv_pareto, iv_twopiece):
    for iv in (iv_uniform, iv_exp, iv_pareto, iv_twopiece):
        d = iv.dist
        for rule in PRIOR_RULES:
            report = verify_utility_identity(d, rule, 2, 6, 20000, 11, iv=iv)
            assert report.passed, (d.name, rule, report)


def test_identity_boundary_term_positive_support():
    # free lottery on pareto(1,3): E[residual] = mean = 1.5, its closed form;
    # the plain virtual-value side alone has mean - 1 = 0.5, and the bottom
    # term a * min(k, n) = 1 makes up the rest
    d = pareto(1.0, 3.0)
    report = verify_utility_identity(d, "lottery", 1, 3, 40000, 2)
    assert report.passed
    assert report.virtual == MechanismEval(1.5, 0.0, "exact", 1, None)
    assert unpriced("lottery").prior(d, 3, 1, None)[1] == 1.0
    assert report.utility.mean == pytest.approx(
        1.5, abs=2 * report.utility.ci_halfwidth)


def test_dominance_matrix(iv_uniform, iv_exp, iv_pareto, iv_twopiece):
    for iv in (iv_uniform, iv_exp, iv_pareto, iv_twopiece):
        d = iv.dist
        for rule in PRIOR_RULES:
            dom = verify_ironing_dominance(d, rule, 20000, 11, k=2, n=6,
                                           iv=iv)
            assert dom.inequality_passed, (d.name, rule, dom)
            if rule == "lottery":
                assert dom.equality, (d.name, dom)


def test_dominance_exact_cases(iv_exp, iv_pareto):
    # convex integral (pareto) keeps every hull node: both sides identical;
    # constant inverse hazard (exp) differs only by float dust
    dom = verify_ironing_dominance(iv_pareto.dist, "vickrey", 20000, 11,
                                   k=2, n=6, iv=iv_pareto)
    assert dom.diff_mean == 0.0 and dom.diff_se == 0.0 and dom.equality
    dom = verify_ironing_dominance(iv_exp.dist, "vickrey", 20000, 11,
                                   k=2, n=6, iv=iv_exp)
    assert abs(dom.diff_mean) < 1e-12 and dom.equality
    # with no slack the rounding allowance alone keeps the dust equal
    dom = verify_ironing_dominance(iv_exp.dist, "vickrey", 20000, 11,
                                   k=2, n=6, iv=iv_exp, slack=0.0)
    assert dom.diff_mean != 0.0 and dom.equality and dom.inequality_passed


def test_dominance_strict_when_ironing_binds(iv_uniform, iv_twopiece):
    for iv in (iv_uniform, iv_twopiece):
        dom = verify_ironing_dominance(iv.dist, "vickrey", 20000, 11, k=2, n=6,
                                       iv=iv)
        assert dom.strict and not dom.equality, (iv.dist.name, dom)


# the stock priors' dominance reports; with the gain a threaded BLAS dot, 22
# of these 36 read other bits on one thread
DOMINANCE_REPORTS = """
from burnlab.audit import verify_ironing_dominance
from burnlab.distributions import exponential, pareto, two_piece, uniform
print([verify_ironing_dominance(d, rule, 30, 1, k=k, n=n)
       for d in (uniform(0.0, 1.0), exponential(1.0), pareto(1.0, 2.0), two_piece())
       for rule in ("lottery", "vickrey", "bayes") for n, k in ((1, 1), (6, 2), (16, 3))])
"""


def test_dominance_is_independent_of_blas_threads(capsys):
    # the reports' reprs, which round-trip every float, on one BLAS thread in
    # a fresh interpreter and on the default threads here
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(pathlib.Path(mechanisms.__file__).parents[1])}
    one = subprocess.run([sys.executable, "-c", DOMINANCE_REPORTS], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    exec(DOMINANCE_REPORTS, {})
    assert one.stdout == capsys.readouterr().out


@pytest.mark.parametrize("n, k", [(2, 1), (6, 2), (8, 1), (8, 4), (20, 3)])
def test_dominance_uniform_vickrey_closed_form(iv_uniform, n, k):
    # on uniform(0, 1) theta = 1 - q and the hull is one chord, phibar = 1/2:
    # the gain n * int (q - 1/2) xbar dq is the top k's expected quantiles,
    # sum_{j < k} (n - j)/(n + 1), less k/2
    dom = verify_ironing_dominance(iv_uniform.dist, "vickrey", 30, 0, k=k, n=n,
                                   iv=iv_uniform)
    exact = sum((n - j) / (n + 1) for j in range(k)) - k / 2
    assert dom.diff_mean == pytest.approx(exact, abs=n / (iv_uniform.grid - 1) ** 1.5)
    assert dom.strict


def by_parts(iv, rule, k, n):
    # the gain summed by parts. With D = G - H, zero at both grid ends, and xt
    # the mean of xbar over each cell, n * sum_c (phibar_c - theta_c) *
    # int_c xbar = n * sum_c (D_c+1 - D_c) * xt_c is n times the sum over the
    # inner nodes of (H - G) * (xt's step there), plus the strips below and
    # above the grid at the end cells' slopes of D. Every node term is >= 0
    # for a monotone xbar: the ironing step. Returns the sum, the node terms
    # and the scale n * sum_c (|G_c+1 - G_c| + |H_c+1 - H_c|) * xt_c of the
    # two sides the gain cancels
    q = np.concatenate(([0.0], iv.q, [1.0]))
    left, right, top = unpriced(rule).xbar(q[:-1], n, k, iv)
    left, right = np.append(left, right[-1]), np.append(right, top)
    pieces = 0.5 * (left + right) * np.diff(q)
    xt = pieces[1:-1] / np.diff(iv.q)
    terms = n * (iv.H - iv.G)[1:-1] * np.diff(xt)
    strips = (np.diff(iv.G - iv.H) / np.diff(iv.q))[[0, -1]] @ pieces[[0, -1]]
    scale = n * (np.abs(np.diff(iv.G)) + np.abs(np.diff(iv.H))) @ xt
    return terms.sum() + n * strips, terms, scale


def test_dominance_by_parts(iv_uniform, iv_exp, iv_pareto, iv_twopiece,
                            iv_bridge):
    for iv in (iv_uniform, iv_exp, iv_pareto, iv_twopiece, iv_bridge):
        for rule in PRIOR_RULES + ("mix", "logprice"):
            for k, n in [(1, 2)] if rule == "mix" else [(1, 3), (2, 6), (3, 20)]:
                dom = verify_ironing_dominance(iv.dist, rule, 30, 0, k=k, n=n,
                                               iv=iv)
                total, terms, scale = by_parts(iv, rule, k, n)
                assert terms.min() >= 0.0, (iv.dist.name, rule, k, n, terms.min())
                assert abs(dom.diff_mean - total) <= 1e-12 * scale, (
                    iv.dist.name, rule, k, n, dom.diff_mean, total, scale)


def cell_virtual(iv, cell):
    # theta averaged over each value's grid cell (iv._cell), the slope of the
    # integral H the hull is taken of: one slope per cell but the top one,
    # where clip sends a value down
    return iv.cell_slopes.take(cell, mode="clip")


def dominance_report(diff, d, k, n):
    # the paired Monte Carlo report on per-row gains, band 3 se + slack
    slack = 1e-3 * min(k, n) * (1.0 + d.mean)
    mean = float(diff.mean())
    se = float(diff.std(ddof=1)) / np.sqrt(diff.size)
    band = 3.0 * se + slack
    return DominanceReport(mean, se, slack, mean >= -band, abs(mean) <= band,
                           mean > band)


def mc_dominance(d, rule, reps, seed, k, n, iv):
    # the Monte Carlo oracle of the dominance gain, as the check drew it:
    # reps profiles on its stream in blocks, each value's cell looked up once
    # for phibar and theta's cell average
    def gain(V):
        X, _ = unpriced(rule).rule(V, k, Params(iv=iv))
        cell = iv._cell(V)
        return ((iv.phibar[cell] - cell_virtual(iv, cell)) * X).sum(axis=1)

    draw = common.quantile_draw(d, substream(seed, "dominance", rule, n, k))
    diff = np.concatenate(list(common.mc_blocks(draw, reps, n, gain)))
    return dominance_report(diff, d, k, n)


def dominance_two_lookups(d, rule, reps, seed, k, n, iv):
    # mc_dominance from one (reps, n) draw, with phibar and theta's cell
    # average each looking up the grid cells
    V = np.asarray(d.quantile(substream(seed, "dominance", rule, n, k)
                              .random((reps, n))), dtype=float)
    X, _ = unpriced(rule).rule(V, k, Params(iv=iv))
    cell_slopes = np.diff(iv.H) / np.diff(iv.q)
    theta = cell_slopes.take(iv._cell(V), mode="clip")
    diff = ((np.asarray(iv.value(V), dtype=float) - theta) * X).sum(axis=1)
    return dominance_report(diff, d, k, n)


def test_dominance_matches_two_lookups(iv_uniform, iv_exp, iv_pareto,
                                       iv_twopiece, iv_bridge):
    # the exact gain inside the Monte Carlo oracle's 99% interval
    for iv in (iv_uniform, iv_exp, iv_pareto, iv_twopiece, iv_bridge):
        for rule in PRIOR_RULES:
            for k, n in [(1, 3), (2, 6)]:
                dom = verify_ironing_dominance(iv.dist, rule, 20000, 3, k=k,
                                               n=n, iv=iv)
                mc = dominance_two_lookups(iv.dist, rule, 20000, 3, k, n, iv)
                assert (abs(dom.diff_mean - mc.diff_mean)
                        <= Z99 * mc.diff_se + 1e-12), (iv.dist.name, rule, k, n, dom, mc)
                assert dom.diff_se == 0.0 and dom.slack == mc.slack
                # plain Python types, as in IdentityReport
                types = [type(getattr(dom, f))
                         for f in DominanceReport.__dataclass_fields__]
                assert types == [float] * 3 + [bool] * 3, dom


def identity_draw(d, rule, k, n, reps, seed, iv):
    # one (reps, n) draw on the identity check's stream, one rule call on all
    # of it: the draw, the rule's rows and each row's utility and sum of
    # theta(v) * x
    V = np.asarray(d.quantile(substream(seed, "utility-identity", rule, n, k)
                              .random((reps, n))), dtype=float)
    X, P = unpriced(rule).rule(V, k, Params(iv=iv))
    theta = np.asarray(virtual_value_utility(d, V), dtype=float)
    return V, X, _residual(V, X, P), (theta * X).sum(axis=1)


def identity_one_array(d, rule, k, n, reps, seed, iv):
    # the report from one draw: the control-variate statistic of
    # verify_utility_identity written out on whole arrays
    virtual, bottom = unpriced(rule).prior(d, n, k, iv)
    _, _, u, c = identity_draw(d, rule, k, n, reps, seed, iv)
    dc = c - c.mean()
    z = u
    if np.sqrt((dc * dc).sum() / (reps - 1)) >= 1e-12 * (1.0 + abs(c.mean())):
        beta = float((dc * (u - u.mean())).sum()) / float((dc * dc).sum())
        z = u - beta * (c - (virtual.mean - bottom))
    controlled = mc_eval(z, seed)
    slack = (n / (virtual.replicates - 1) ** 1.5 if virtual.replicates > 1
             else 1e-12 * (1.0 + abs(virtual.mean)))
    passed = abs(controlled.mean - virtual.mean) <= controlled.ci_halfwidth + slack
    return IdentityReport(mc_eval(u, seed), virtual, controlled, passed)


def identity_paired_reruns(d, rule, k, n, reps, seed, iv):
    # the paired estimator the identity check used before it read the exact
    # prior value: utility, the virtual side sum theta(v) * x plus the bottom
    # term, and the bottom term alone, all by Monte Carlo on one draw. The
    # bottom term reruns the rule once per agent with that agent's bid at the
    # support's bottom a, and adds a * x_i(a)
    V, X, u, c = identity_draw(d, rule, k, n, reps, seed, iv)
    a = d.support[0]
    rerun = np.zeros(reps)
    for i in range(n):
        W = V.copy()
        W[:, i] = a
        rerun = rerun + a * unpriced(rule).rule(W, k, Params(iv=iv))[0][:, i]
    return mc_eval(u, seed), mc_eval(c + rerun, seed), mc_eval(rerun, seed)


def test_identity_exact_sides_within_rerun_oracle():
    # priors whose support starts above 0: the bottom term from the prior
    # view lies in the reruns' 99% interval, and the exact value in the old
    # paired virtual side's. The last prior irons an interval at its bottom,
    # so a row's rerun term varies with the other bids. A constant rerun
    # term (the lottery's) has a zero interval and leaves rounding
    cells = [(pareto(1.0, 3.0), "lottery"), (pareto(1.0, 2.0), "vickrey"),
             (pareto(1.0, 2.0), "bayes"),
             (piecewise_inverse_hazard([0.5, 1.0, 2.0], [3.0, 1.0, 5.0]), "bayes")]
    for d, rule in cells:
        iv = iron(d)
        virtual, bottom = unpriced(rule).prior(d, 6, 2, iv)
        utility, paired, rerun = identity_paired_reruns(d, rule, 2, 6, 20000, 11, iv)
        assert abs(bottom - rerun.mean) <= rerun.ci_halfwidth + 1e-12, (d.name, rule, rerun)
        assert abs(virtual.mean - paired.mean) <= paired.ci_halfwidth, (d.name, rule, paired)
        report = verify_utility_identity(d, rule, 2, 6, 20000, 11, iv=iv)
        assert report.passed and report.utility == utility, (d.name, rule, report)
        assert report.virtual == virtual


def mc_estimate(name, d, n, k, reps, seed):
    # the Monte Carlo oracle of estimate's exact values, and RSOL's estimate:
    # the mean over reps profiles from d, drawn in blocks on the estimator's
    # stream, of each one's exact value under the table's value view
    entry = unpriced(name)
    a = Params(iv=iron(d) if "iv" in entry.reads else None)
    draw = common.quantile_draw(d, substream(seed, "estimate", name, n, k))
    return mc_eval(common.mc_blocks(draw, reps, n, lambda V: entry.value(V, k, a)),
                   seed)


def estimate_one_array(name, d, n, k, reps, seed):
    # mc_estimate from one (reps, n) draw and one value call on all of it
    entry = unpriced(name)
    V = np.asarray(d.quantile(substream(seed, "estimate", name, n, k)
                              .random((reps, n))), dtype=float)
    a = Params(iv=iron(d) if "iv" in entry.reads else None)
    return mc_eval(entry.value(V, k, a), seed)


def rsol_mc_one_array(values, k, reps, seed):
    # expected_rsol's Monte Carlo from one (reps, n) draw of serving halves
    # and one value call on all of it
    prof = as_profile(values)
    member = substream(seed, "rsol", prof.n, k).random((reps, prof.n)) < 0.5
    return mc_eval(_rsol_values(prof.sorted, member, k), seed)


# profiles for RSOL's Monte Carlo: one agent, ties, and 16 agents, where a
# default block is 512 rows
RSOL_MC_PROFILES = ([1.5], [3.0, 2.0, 2.0, 1.0, 0.5],
                    list(substream(2, "rsol-mc").exponential(1.0, 16)))


# the names that unpriced accepts
UNPRICED = tuple(ALIASES) + tuple(name for name, entry in MECHANISMS.items()
                                  if not {"p", "q"} & set(entry.reads))


# one row per block, the default blocks, one block for everything
@pytest.mark.parametrize("cells", [1, None, 1 << 30])
def test_mc_blocks_are_bitwise(monkeypatch, iv_uniform, iv_exp, iv_pareto,
                               iv_twopiece, iv_bridge, cells):
    # 9001 rows: several default blocks at n = 6 (1365 rows each), at n = 2
    # (4096) and at n = 1 (8192), the last one partial. One-row blocks take
    # 41 rows
    if cells is not None:
        monkeypatch.setattr(common, "_PASS_CELLS", cells)
    reps = 41 if cells == 1 else 9001
    for values in RSOL_MC_PROFILES:
        for k in (1, 2):
            assert (expected_rsol(values, k, "mc", reps, 5)
                    == rsol_mc_one_array(values, k, reps, 5)), (values, k)
    for iv in (iv_uniform, iv_exp, iv_pareto, iv_twopiece, iv_bridge):
        d = iv.dist
        for rule in PRIOR_RULES:
            for k, n in [(1, 1), (2, 6)]:
                assert (verify_utility_identity(d, rule, k, n, reps, 5, iv=iv)
                        == identity_one_array(d, rule, k, n, reps, 5, iv))
                assert (mc_dominance(d, rule, reps, 5, k, n, iv)
                        == dominance_two_lookups(d, rule, reps, 5, k, n, iv))
        for name in UNPRICED:
            # the estimator draws for a mechanism with no prior view (RSOL);
            # the others' Monte Carlo is the oracle's
            blocked = estimate if unpriced(name).prior is None else mc_estimate
            for k, n in [(1, 2)] if name == "mix" else [(1, 1), (2, 6)]:
                assert (blocked(name, d, n, k, reps, 5)
                        == estimate_one_array(name, d, n, k, reps, 5)), name


def traced_peak(call):
    # the traced allocation peak of a second call, the cached per-prior
    # constants built by the first
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_checks_memory_is_blocked(iv_pareto, iv_twopiece):
    # a (30000, 6) float array is 1.4 MB; on one such draw these calls
    # peaked at 10-15 MB. pareto(1, 2) has the widest values and a support
    # bottom above 0; twopiece bridges some rows and not others. The Bayes
    # estimate is exact, on arrays the size of the grid; RSOL's, the
    # estimator's Monte Carlo, is run on one prior
    for iv in (iv_pareto, iv_twopiece):
        d = iv.dist
        checks = [
            lambda: verify_utility_identity(d, "bayes", 2, 6, 30_000, 1, iv=iv),
            lambda: verify_ironing_dominance(d, "bayes", 30_000, 1, k=2, n=6, iv=iv),
            lambda: mc_estimate("bayes", d, 6, 2, 30_000, 1),
            lambda: estimate("bayes", d, 6, 2, 30_000, 1)]
        if iv is iv_pareto:
            checks.append(lambda: estimate("rsol", d, 6, 2, 30_000, 1))
        for check in checks:
            peak = traced_peak(check)
            assert peak < 2e6, (d.name, peak)
    # RSOL's Monte Carlo joins only its 10^4 values (one (10^4, 200) draw
    # peaked at 165 MB)
    values = substream(3, "rsol-mc").exponential(1.0, 200)
    peak = traced_peak(lambda: expected_rsol(values, 2, "mc", 10 ** 4, 1))
    assert peak < 2e6, peak


@pytest.mark.filterwarnings("error")
def test_dominance_rejects_bad_input(iv_exp):
    d = iv_exp.dist
    floor = "need at least 30 replicates, got"
    for kwargs, match in [({"reps": 0}, floor), ({"reps": 1}, floor),
                          ({"reps": 29}, floor), ({"slack": -1.0}, "slack"),
                          ({"slack": np.nan}, "slack"), ({"slack": np.inf}, "slack"),
                          ({"slack": -np.inf}, "slack"),
                          ({"k": 0}, "need at least one unit"),
                          ({"n": 0}, "need at least one agent, got n=0"),
                          ({"n": -1}, "need at least one agent, got n=-1")]:
        args = {"reps": 1000, "seed": 0, "k": 1, "n": 2, "iv": iv_exp, **kwargs}
        with pytest.raises(ValueError, match=match) as err:
            verify_ironing_dominance(d, "vickrey", **args)
        assert "\n" not in str(err.value), kwargs
    # the identity check takes no profile without agents either
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one agent, got n={n}") as err:
            verify_utility_identity(d, "vickrey", 1, n, 1000, 0, iv=iv_exp)
        assert "\n" not in str(err.value), n
    # the identity check's message for the same replicate count
    with pytest.raises(ValueError) as ident:
        verify_utility_identity(d, "vickrey", 1, 2, 1, 0, iv=iv_exp)
    with pytest.raises(ValueError) as dom:
        verify_ironing_dominance(d, "vickrey", 1, 0, k=1, n=2, iv=iv_exp)
    assert str(ident.value) == str(dom.value)
    # a zero slack and the floor itself pass
    assert verify_ironing_dominance(d, "vickrey", 30, 0, k=1, n=2, iv=iv_exp,
                                    slack=0.0).slack == 0.0


def test_mismatched_iv_rejected(iv_uniform, iv_exp):
    # a prior built again with the same parameters is still another prior
    for d in (exponential(1.0), uniform(0.0, 1.0)):
        for check in (
                lambda: verify_ironing_dominance(d, "bayes", 1000, 0, iv=iv_uniform),
                lambda: verify_utility_identity(d, "bayes", 1, 2, 1000, 0,
                                                iv=iv_uniform),
                lambda: verify_utility_identity(d, "vickrey", 1, 2, 1000, 0,
                                                iv=iv_uniform)):
            with pytest.raises(ValueError,
                               match=r"ironed for uniform\(0,1\)") as err:
                check()
            assert "\n" not in str(err.value)
    # the prior's own ironing passes
    assert verify_ironing_dominance(iv_exp.dist, "bayes", 1000, 0, iv=iv_exp).equality


def test_batch_rule_validation():
    # every prior-side check asks unpriced for the view it reads: an unknown
    # name, a table name that reads a price (no check passes one) and RSOL,
    # which has no prior or xbar view, are refused in one line
    d = uniform(0.0, 1.0)
    checks = [
        ("prior", lambda name: verify_utility_identity(d, name, 1, 2, 1000, 0)),
        ("prior", lambda name: expected_under_prior(name, d, 2, 1)),
        ("xbar", lambda name: verify_ironing_dominance(d, name, 1000, 0)),
        (None, lambda name: estimate(name, d, 2, 1, 1000, 0))]
    for view, check in checks:
        assert refusal(lambda: check("nosuch")) == "unknown mechanism 'nosuch'"
        for name in ("plottery", "pqlottery"):
            assert refusal(lambda: check(name)) == (
                f"{name!r} reads a price, which the prior side does not set")
        if view is not None:
            assert refusal(lambda: check("rsol")) == (
                f"'rsol' is no rank rule and has no {view} view")


# ---------------------------------------------------------------------------
# payment-identity input validation


def test_identity_needs_dense_grid():
    bids = np.linspace(0.0, 1.0, 100)
    rule = InterimRule(0, bids, np.zeros(100), np.zeros(100), np.zeros(99))
    with pytest.raises(ValueError):
        check_payment_identity(rule)


def test_identity_needs_zero_anchor():
    bids = np.linspace(0.5, 1.0, 300)
    rule = InterimRule(0, bids, np.zeros(300), np.zeros(300), np.zeros(299))
    with pytest.raises(ValueError):
        check_payment_identity(rule)


def test_nonmonotone_rule_fails_before_identity():
    bids = np.linspace(0.0, 1.0, 300)
    x = np.linspace(1.0, 0.0, 300)
    x_mid = 0.5 * (x[1:] + x[:-1])
    rule = InterimRule(0, bids, x, np.zeros(300), x_mid)
    report = check_payment_identity(rule)
    assert not report.passed and not report.monotone
    assert report.max_error == np.inf
    # x already falls by the first midpoint
    assert report.bid == 0.5 * bids[1]
    # a step down at bid 150, with each midpoint at its cell's left value
    x = np.where(np.arange(300) < 150, 1.0, 0.5)
    report = check_payment_identity(InterimRule(0, bids, x, np.zeros(300), x[:-1]))
    assert not report.monotone and report.bid == bids[150]


# ---------------------------------------------------------------------------
# audit corpus


def test_audit_profiles_deterministic():
    a = audit_profiles(5, count=10, n_range=(2, 5))
    b = audit_profiles(5, count=10, n_range=(2, 5))
    assert len(a) == 10
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)
        assert 2 <= pa.n <= 5


def test_audit_profiles_respect_prior_support():
    corpus = audit_profiles(5, count=8, n_range=(2, 8), dist=pareto(1.0, 2.0))
    assert all(float(p.values.min()) >= 1.0 for p in corpus)


# ---------------------------------------------------------------------------
# split-balance probe


def exact_prefix_probability(n):
    # independent check: count masks by dynamic programming over prefix sums
    m = n - 1
    limits = [int(np.floor(0.75 * j + 1e-9)) for j in range(2, n + 1)]
    ways = {0: 1}
    for j in range(m):
        nxt = {}
        for c, w in ways.items():
            for add in (0, 1):
                if c + add <= limits[j]:
                    nxt[c + add] = nxt.get(c + add, 0) + w
        ways = nxt
    return sum(ways.values()) / 2 ** m


def test_probe_oracles():
    assert balanced_sampling_probe(1) == 1.0
    assert balanced_sampling_probe(2) == 1.0
    assert balanced_sampling_probe(5) == 0.9375
    assert balanced_sampling_probe(20) == 0.91436767578125


def probe_in_place(n):
    # one buffer updated in place; numpy copies the overlapping operand
    tops = [3 * i // 4 + 1 for i in range(2, n + 1)]
    w = np.zeros(max(tops, default=1))
    w[0] = 1.0
    for top in tops:
        w[1:top] += w[:top - 1]
        w[:top] /= 2
    return float(w.sum())


def test_probe_matches_in_place_loop():
    # the probe scales its counts down by 2^-256 once every 256 ranks
    for n in [*range(1, 300), *range(511, 516), *range(767, 771), 1000, 3000,
              5000, 10 ** 4, 12000]:
        assert balanced_sampling_probe(n) == probe_in_place(n), n


def test_probe_matches_dp_enumeration():
    for n in (2, 5, 12, 20):
        assert balanced_sampling_probe(n) == exact_prefix_probability(n)


def test_probe_matches_dp_oracle_beyond_enumeration():
    # dyadic values with at most 53 bits: the float count is exact
    for n in (21, 22, 30, 54):
        assert balanced_sampling_probe(n) == exact_prefix_probability(n)
    for n in (64, 200, 1000):
        target = exact_prefix_probability(n)
        assert abs(balanced_sampling_probe(n) - target) <= 1e-14 * target


@pytest.mark.parametrize("n", [20, 10 ** 4])
def test_probe_memory_is_linear(n):
    # enumerating the 2^19 halvings at n = 20 peaked at 78 MB
    tracemalloc.start()
    try:
        balanced_sampling_probe(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("kwargs", [{"trials": 10}, {"seed": 3},
                                    {"trials": 10, "seed": 3}])
def test_probe_trials_and_seed_deprecated(kwargs):
    with pytest.warns(DeprecationWarning, match="trials and seed"):
        value = balanced_sampling_probe(30, **kwargs)
    assert value == balanced_sampling_probe(30)


def test_probe_validation():
    with pytest.raises(ValueError):
        balanced_sampling_probe(0)
