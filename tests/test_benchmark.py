import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.benchmark import (full_surplus, lottery_surplus_identity,
                               optimal_p_lottery, two_price_benchmark)
from burnlab.common import substream
from burnlab.distributions import (ValuationProfile, as_profile, exponential,
                                   pareto, piecewise_inverse_hazard,
                                   sample_profile, two_piece, uniform)
from burnlab.ironing import iron
from burnlab.mechanisms import (bayes_optimal_outcome, expected_p_lottery,
                                expected_pq_lottery, vickrey)

profiles = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                    max_size=8).map(ValuationProfile)


# ---------------------------------------------------------------------------
# two-price benchmark sweep


def test_two_price_oracles():
    r = two_price_benchmark((3.0, 1.0), 1)
    assert (r.value, r.p, r.q) == (2.5, 1.0, 0.0)
    assert (r.single_value, r.single_p) == (2.0, 0.0)
    r = two_price_benchmark((2.0, 2.0), 1)
    assert (r.value, r.p, r.q) == (2.0, 0.0, 0.0)
    r = two_price_benchmark((1.0, 2.0, 3.0), 5)
    assert (r.value, r.p, r.q) == (6.0, 0.0, 0.0)
    r = two_price_benchmark((10.0, 1.0, 1.0, 1.0), 1)
    assert (r.value, r.p, r.q) == (9.25, 1.0, 0.0)
    assert (r.single_value, r.single_p) == (9.0, 1.0)
    assert two_price_benchmark((5.0, 4.0), 3).value == 9.0


def test_single_price_oracles():
    assert optimal_p_lottery((10.0, 1.0, 1.0, 1.0), 1) == (9.0, 1.0)
    assert optimal_p_lottery((3.0, 1.0), 1) == (2.0, 0.0)
    assert optimal_p_lottery((5.0, 4.0, 3.0), 2) == (8.0, 0.0)


def test_benchmark_validation():
    with pytest.raises(ValueError):
        two_price_benchmark((1.0,), 0)
    with pytest.raises(ValueError):
        optimal_p_lottery((1.0,), 0)
    with pytest.raises(ValueError):
        full_surplus((1.0,), 0)


@given(profiles, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_single_within_factor_two(prof, k):
    r = two_price_benchmark(prof, k)
    assert r.q <= r.p
    assert r.single_value <= r.value + 1e-9
    assert r.single_value >= r.value / 2 - 1e-9


def test_candidate_sweep_attains_dense_grid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = np.round(rng.uniform(0.0, 5.0, int(rng.integers(2, 6))), 2)
        k = int(rng.integers(1, 3))
        best = two_price_benchmark(vals, k).value
        grid = np.linspace(0.0, float(vals.max()) * 1.1, 33)
        for i, p in enumerate(grid):
            for q in grid[:i + 1]:
                assert expected_pq_lottery(vals, k, float(p),
                                           float(q)) <= best + 1e-9


def pair_loop(vals, k):
    # the sweep as a plain loop over {0} union values, one
    # expected_pq_lottery call per pair
    cands = np.unique(np.concatenate(([0.0], np.asarray(vals, dtype=float))))
    return {(float(p), float(q)): expected_pq_lottery(vals, k, float(p), float(q))
            for i, p in enumerate(cands) for q in cands[:i + 1]}


@pytest.mark.parametrize("vals, k", [((2.0, 2.0), 1), ((1.0, 1.0, 1.0), 1),
                                     ((5.0, 5.0, 3.0, 3.0), 1), ((0.0, 0.0), 1),
                                     ((0.1, 0.2, 2.3), 3)],
                         ids=[f"vals{i}" for i in range(5)])
def test_tie_break_smallest_pair(vals, k):
    r = two_price_benchmark(vals, k)
    winners = [pair for pair, value in pair_loop(vals, k).items()
               if abs(value - r.value) <= 1e-12]
    assert (r.p, r.q) == min(winners)


@st.composite
def sweep_cases(draw):
    # half the profiles sit on a coarse grid, so they hold ties
    if draw(st.booleans()):
        elements = st.integers(0, 8).map(lambda i: i * 1.25)
    else:
        elements = st.floats(0.0, 10.0)
    vals = draw(st.lists(elements, max_size=10))
    return vals, draw(st.integers(1, len(vals) + 2))


@given(sweep_cases())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_pair_loop(case):
    vals, k = case
    r = two_price_benchmark(vals, k)
    values = pair_loop(vals, k)
    best = max(values.values())
    tol = 1e-12 * max(1.0, abs(best))
    assert abs(r.value - best) <= tol
    assert (r.p, r.q) == min(pair for pair, value in values.items()
                             if value >= best - tol)


def test_sweep_memory_is_blocked():
    # the full pair matrix of this profile alone would take about 33 MB
    vals = np.random.default_rng(7).uniform(0.0, 1.0, 2048)
    tracemalloc.start()
    try:
        two_price_benchmark(vals, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# gap-form identity for subset lotteries


def direct_subset_value(prof, subset, k, ell):
    # replays the contract directly: advance ell past a tied block, price at
    # the next value down, serve subset members ranked in the top ell
    s = prof.sorted
    while ell < prof.n and s[ell - 1] == s[ell]:
        ell += 1
    price = s[ell] if ell < prof.n else 0.0
    order = np.argsort(-prof.values, kind="stable")
    member = np.zeros(prof.n, dtype=bool)
    member[np.asarray(subset, dtype=int)] = True
    top = order[:ell]
    served = prof.values[top[member[top]]]
    if served.size == 0:
        return 0.0
    share = min(k, served.size) / served.size
    return share * float(np.sum(served - price))


def test_identity_oracles():
    prof = (5.0, 4.0, 4.0, 2.0, 1.0)
    assert lottery_surplus_identity(prof, (0, 2, 4), 1, 2) == 2.5
    assert lottery_surplus_identity(prof, (0, 2, 4), 2, 2) == 5.0
    assert lottery_surplus_identity(prof, (0, 2, 4), 1, 1) == 1.0
    assert lottery_surplus_identity(prof, (4,), 1, 2) == 0.0
    assert lottery_surplus_identity(prof, (0, 2, 4), 2,
                                    5) == pytest.approx(20.0 / 3.0)


def test_identity_validation():
    with pytest.raises(ValueError):
        lottery_surplus_identity((1.0, 2.0), (0,), 1, 0)
    with pytest.raises(ValueError):
        lottery_surplus_identity((1.0, 2.0), (0,), 1, 3)
    with pytest.raises(ValueError):
        lottery_surplus_identity((1.0, 2.0), (0,), 0, 1)


@st.composite
def identity_cases(draw):
    vals = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
    if len(vals) > 1 and draw(st.booleans()):
        vals[draw(st.integers(1, len(vals) - 1))] = vals[0]
    mask = draw(st.lists(st.booleans(), min_size=len(vals),
                         max_size=len(vals)))
    subset = tuple(i for i, m in enumerate(mask) if m)
    ell = draw(st.integers(1, len(vals)))
    k = draw(st.integers(1, 4))
    return ValuationProfile(vals), subset, k, ell


@given(identity_cases())
@settings(max_examples=300, deadline=None)
def test_identity_matches_direct_enumeration(case):
    prof, subset, k, ell = case
    got = lottery_surplus_identity(prof, subset, k, ell)
    assert got == pytest.approx(direct_subset_value(prof, subset, k, ell),
                                abs=1e-9)


# ---------------------------------------------------------------------------
# dominance and reference points


def test_benchmark_dominates_truthful_residuals(iv_uniform, iv_exp, iv_pareto,
                                                iv_twopiece):
    cases = [(uniform(0.0, 1.0), iv_uniform), (exponential(1.0), iv_exp),
             (pareto(1.0, 2.0), iv_pareto), (two_piece(), iv_twopiece)]
    rng = np.random.default_rng(20260823)
    for trial in range(120):
        d, iv = cases[trial % 4]
        prof = sample_profile(d, int(rng.integers(2, 7)), rng)
        for k in (1, 2):
            bound = two_price_benchmark(prof, k).value + 1e-9
            assert expected_p_lottery(prof, k, 0.0) <= bound
            assert vickrey(prof, k).residual_surplus <= bound
            assert bayes_optimal_outcome(iv, prof, k).residual_surplus <= bound


@st.composite
def piecewise_priors(draw):
    # 2-4 pieces of constant inverse hazard; where theta rises, ironing
    # bridges an interval
    pieces = draw(st.integers(2, 4))
    widths = draw(st.lists(st.floats(0.2, 2.0), min_size=pieces - 1,
                           max_size=pieces - 1))
    thetas = draw(st.lists(st.floats(0.2, 5.0), min_size=pieces,
                           max_size=pieces))
    return piecewise_inverse_hazard(
        np.concatenate(([0.0], np.cumsum(widths))), thetas)


@given(piecewise_priors(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=48, deadline=None)
def test_bayes_residual_at_most_benchmark(d, seed):
    # the benchmark is the residual of the best Bayesian optimal mechanism
    # for the profile, so no i.i.d. prior's optimal mechanism beats it; half
    # the profiles put values exactly on bridged interval ends
    iv = iron(d, grid=2 ** 12)
    ends = [e for itv in iv.intervals for e in (itv.v_lo, itv.v_hi)]
    rng = substream(seed, "bayes-dominance")
    for _ in range(25):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        values = d.quantile(rng.random(n))
        if ends and rng.random() < 0.5:
            m = int(rng.integers(1, n + 1))
            values[rng.choice(n, m, replace=False)] = rng.choice(ends, m)
        bayes = bayes_optimal_outcome(iv, values, k).residual_surplus
        G = two_price_benchmark(values, k).value
        assert bayes <= G * (1.0 + 1e-12), (values, k, bayes, G)


def test_full_surplus_oracles():
    assert full_surplus((1.0, 2.0), 5) == 3.0
    assert full_surplus((3.0, 1.0), 2) == 4.0
    assert full_surplus((), 3) == 0.0
    prof = as_profile((4.0, 9.0, 6.0))
    assert full_surplus(prof, 2) == 15.0
