import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.audit import (InterimRule, audit_mechanism, audit_profiles,
                           balanced_sampling_probe, check_dsic,
                           check_payment_identity, extract_interim_rule,
                           verify_ironing_dominance, verify_utility_identity)
from burnlab.distributions import (ValuationProfile, exponential, pareto,
                                   two_piece, uniform)
from burnlab.ironing import iron
from burnlab.mechanisms import (_ladder_sizes, bayes_optimal_outcome,
                                expected_log_price, expected_p_lottery,
                                expected_pq_lottery, expected_rsol,
                                mixed_vickrey_lottery, vickrey)

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


def test_bayes_truthful_at_interval_ends(iv_bridge):
    # values exactly on v_lo or v_hi, where the hull segment (right-continuous
    # in the cdf) and a two-price band (q, p] would place a bid differently;
    # prior draws never land there
    itv = iv_bridge.intervals[0]
    lo, hi = itv.v_lo, itv.v_hi
    profiles = [[hi, hi], [lo, 1.5], [2.5, hi, 1.2], [lo, lo], [hi, 1.5],
                [lo, hi], [hi, lo, 1.5], [2.5, lo, 1.2], [hi, hi, lo, 1.5]]
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


def test_firstprice_flagged():
    mech = audit_mechanism("firstprice", 1)
    prof = np.array([3.0, 1.0])
    report = check_dsic(mech, prof, np.linspace(0.0, 4.0, 64))
    assert not report.passed
    assert report.max_gain > 0.5
    rule = extract_interim_rule(mech, prof, 0, np.linspace(0.0, 4.0, 256))
    pay = check_payment_identity(rule)
    assert not pay.passed and pay.max_error > 0.5


def test_interim_totals_match_expectations(iv_bridge):
    profs = [np.array([3.0, 1.0]), np.array([5.0, 4.0, 3.0, 2.0]),
             np.array([4.0, 4.0, 2.0])]
    for prof_vals in profs:
        from burnlab.distributions import as_profile
        prof = as_profile(prof_vals)
        pairs = [
            (audit_mechanism("vickrey", 2), vickrey(prof, 2).residual_surplus),
            (audit_mechanism("plottery", 1, p=1.5),
             expected_p_lottery(prof, 1, 1.5)),
            (audit_mechanism("pqlottery", 1, p=2.0, q=0.5),
             expected_pq_lottery(prof, 1, 2.0, 0.5)),
            (audit_mechanism("rsol", 1), expected_rsol(prof, 1).mean),
            (audit_mechanism("logprice", 2), expected_log_price(prof, 2)),
            (audit_mechanism("bayes", 1, iv=iv_bridge),
             bayes_optimal_outcome(iv_bridge, prof, 1).residual_surplus),
        ]
        if prof.n == 2:
            pairs.append((audit_mechanism("mix"),
                          mixed_vickrey_lottery(prof).mean))
        for mech, expect in pairs:
            assert interim_total(mech, prof) == pytest.approx(expect)


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
                            ("vickrey", 0, {}), ("logprice", 0, {}),
                            ("plottery", 0, {})]:
        with pytest.raises(ValueError):
            audit_mechanism(name, k, **prices)
    assert audit_mechanism("bayes", 1, iv=iv_uniform).name == "bayes"


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
            above = sum(v > b for v in serve)
            tied = sum(v == b for v in serve)
            win = min(1.0, max(0.0, (k - above) / (tied + 1)))
            everyone = sorted(serve + [b], reverse=True)
            x[idx] += 0.5 * win
            pay[idx] += 0.5 * win * (everyone[k] if len(everyone) > k else 0.0)
    scale = 0.5 / (1 << len(opp))
    return np.array(x) * scale, np.array(pay) * scale


@given(st.lists(st.integers(0, 8).map(lambda j: j / 4), min_size=1, max_size=6),
       st.integers(1, 3), st.lists(st.floats(0.0, 2.5), max_size=4), st.data())
@settings(max_examples=150, deadline=None)
def test_rsol_interim_matches_halving_oracle(vals, k, extra, data):
    # values on a coarse grid, so ties are common; bids at, between and
    # beside the values
    i = data.draw(st.integers(0, len(vals) - 1))
    bids = np.array(sorted({0.0, *vals, *extra, *(v + 0.125 for v in vals)}))
    x, pay = audit_mechanism("rsol", k).interim(np.array(vals), i, bids)
    ref_x, ref_pay = rsol_interim_oracle(vals, i, bids, k)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pay, ref_pay, rtol=1e-12, atol=1e-12)


def test_rsol_interim_chunking_invariant():
    # thousands of bids split the halvings into many chunks; a handful of
    # bids takes them in one, with the same sums bit for bit
    values = np.round(np.random.default_rng(4).random(10) * 8) / 4
    bids = np.unique(np.concatenate((np.linspace(0.0, 2.5, 3000), values)))
    mech = audit_mechanism("rsol", 2)
    x, pay = mech.interim(values, 3, bids)
    pick = np.searchsorted(bids, values)
    x_few, pay_few = mech.interim(values, 3, bids[pick])
    assert np.array_equal(x[pick], x_few) and np.array_equal(pay[pick], pay_few)


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
    bps = mech.breakpoints(values, 0)
    assert lo in bps and hi in bps
    probes = np.array([0.5, lo - 1e-6, lo + 1e-6, 1.2, 1.5, hi - 1e-6,
                       hi + 1e-6, 2.5])
    x, pay = mech.interim(values, 0, probes)
    assert list(x) == [0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
    assert pay[2] == pytest.approx(0.5 * lo, rel=1e-12)
    assert pay[6] == pytest.approx(0.5 * (lo + hi), rel=1e-12)


# ---------------------------------------------------------------------------
# utility identity and ironing dominance


def test_identity_matrix(iv_uniform, iv_exp, iv_pareto, iv_twopiece):
    cases = [(uniform(0.0, 1.0), iv_uniform), (exponential(1.0), iv_exp),
             (pareto(1.0, 2.0), iv_pareto), (two_piece(), iv_twopiece)]
    for d, iv in cases:
        for rule in PRIOR_RULES:
            report = verify_utility_identity(d, rule, 2, 6, 20000, 11, iv=iv)
            assert report.passed, (d.name, rule, report)


def test_identity_boundary_term_positive_support():
    # free lottery on pareto(1,3): E[residual] = mean = 1.5; the plain
    # virtual-value side alone would estimate mean - 1 = 0.5
    d = pareto(1.0, 3.0)
    report = verify_utility_identity(d, "lottery", 1, 3, 40000, 2)
    assert report.passed
    assert report.utility.mean == pytest.approx(
        1.5, abs=2 * report.utility.ci_halfwidth)
    assert report.virtual.mean == pytest.approx(
        1.5, abs=2 * report.virtual.ci_halfwidth)


def test_dominance_matrix(iv_uniform, iv_exp, iv_pareto, iv_twopiece):
    cases = [(uniform(0.0, 1.0), iv_uniform), (exponential(1.0), iv_exp),
             (pareto(1.0, 2.0), iv_pareto), (two_piece(), iv_twopiece)]
    for d, iv in cases:
        for rule in PRIOR_RULES:
            dom = verify_ironing_dominance(d, rule, 20000, 11, k=2, n=6,
                                           iv=iv)
            assert dom.inequality_passed, (d.name, rule, dom)
            if rule == "lottery":
                assert dom.equality, (d.name, dom)


def test_dominance_exact_cases(iv_exp, iv_pareto):
    # convex integral (pareto) keeps every hull node: both sides identical;
    # constant inverse hazard (exp) differs only by float dust
    dom = verify_ironing_dominance(pareto(1.0, 2.0), "vickrey", 20000, 11,
                                   k=2, n=6, iv=iv_pareto)
    assert dom.diff_mean == 0.0 and dom.diff_se == 0.0 and dom.equality
    dom = verify_ironing_dominance(exponential(1.0), "vickrey", 20000, 11,
                                   k=2, n=6, iv=iv_exp)
    assert abs(dom.diff_mean) < 1e-12 and dom.equality


def test_dominance_strict_when_ironing_binds(iv_uniform, iv_twopiece):
    for d, iv in [(uniform(0.0, 1.0), iv_uniform), (two_piece(), iv_twopiece)]:
        dom = verify_ironing_dominance(d, "vickrey", 20000, 11, k=2, n=6,
                                       iv=iv)
        assert dom.strict and not dom.equality, (d.name, dom)


def test_batch_rule_validation():
    with pytest.raises(ValueError):
        verify_utility_identity(uniform(0.0, 1.0), "nosuch", 1, 2, 1000, 0)


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
