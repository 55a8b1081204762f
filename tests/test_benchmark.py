import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnlab import benchmark
from burnlab.benchmark import (full_surplus, optimal_p_lottery,
                               two_price_benchmark, two_price_benchmark_rows)
from burnlab.common import substream
from burnlab.distributions import (ValuationProfile, as_profile, exponential,
                                   pareto, piecewise_inverse_hazard,
                                   sample_profile, two_piece, uniform)
from burnlab.ironing import iron
from burnlab.mechanisms import evaluate, expected_rsol, run
from burnlab.simlab import worst_case_corpus

profiles = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                    max_size=8).map(ValuationProfile)


# ---------------------------------------------------------------------------
# two-price benchmark sweep


def test_two_price_oracles():
    r = two_price_benchmark((3.0, 1.0), 1)
    assert (r.value, r.p, r.q) == (2.5, 1.0, 0.0)
    assert optimal_p_lottery((3.0, 1.0), 1) == (2.0, 0.0)
    r = two_price_benchmark((2.0, 2.0), 1)
    assert (r.value, r.p, r.q) == (2.0, 0.0, 0.0)
    r = two_price_benchmark((1.0, 2.0, 3.0), 5)
    assert (r.value, r.p, r.q) == (6.0, 0.0, 0.0)
    r = two_price_benchmark((10.0, 1.0, 1.0, 1.0), 1)
    assert (r.value, r.p, r.q) == (9.25, 1.0, 0.0)
    assert optimal_p_lottery((10.0, 1.0, 1.0, 1.0), 1) == (9.0, 1.0)
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


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(2.0), True, "2"],
                         ids=["half", "float", "numpy-float", "bool", "str"])
@pytest.mark.parametrize("call", [
    lambda k: two_price_benchmark((1.0, 2.0, 3.0), k),
    lambda k: two_price_benchmark_rows([[1.0, 2.0, 3.0]], k),
    lambda k: optimal_p_lottery((1.0, 2.0, 3.0), k),
    lambda k: full_surplus((1.0, 2.0, 3.0), k),
    lambda k: evaluate("plottery", (1.0, 2.0, 3.0), k, p=1.0),
    lambda k: evaluate("logprice", (1.0, 2.0, 3.0), k),
    lambda k: evaluate("vickrey", (1.0, 2.0, 3.0), k),
    lambda k: expected_rsol((1.0, 2.0, 3.0), k)],
    ids=["benchmark", "benchmark-rows", "single-price", "full-surplus",
         "plottery", "logprice", "vickrey", "rsol"])
def test_units_must_be_an_integer(call, k):
    # 1.5 units once priced a lottery and a ladder, and broke others with a
    # traceback; 2.0 and True are refused as well
    with pytest.raises(ValueError, match="k: need an integer number of units") as err:
        call(k)
    assert "\n" not in str(err.value)
    call(np.int64(2))


@given(profiles, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_single_within_factor_two(prof, k):
    r = two_price_benchmark(prof, k)
    single, _ = optimal_p_lottery(prof, k)
    assert r.q <= r.p
    assert single <= r.value + 1e-9
    assert single >= r.value / 2 - 1e-9


def test_candidate_sweep_attains_dense_grid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = np.round(rng.uniform(0.0, 5.0, int(rng.integers(2, 6))), 2)
        k = int(rng.integers(1, 3))
        best = two_price_benchmark(vals, k).value
        grid = np.linspace(0.0, float(vals.max()) * 1.1, 33)
        for i, p in enumerate(grid):
            for q in grid[:i + 1]:
                assert evaluate("pqlottery", vals, k, p=float(p),
                                q=float(q)) <= best + 1e-9


def pair_loop(vals, k):
    # the sweep as a plain loop over {0} union values, one
    # evaluate("pqlottery") call per pair
    cands = np.unique(np.concatenate(([0.0], np.asarray(vals, dtype=float))))
    return {(float(p), float(q)): evaluate("pqlottery", vals, k, p=float(p),
                                           q=float(q))
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


def grid_or_floats(draw):
    # half the profiles sit on a coarse grid, so they hold ties
    if draw(st.booleans()):
        return st.integers(0, 8).map(lambda i: i * 1.25)
    return st.floats(0.0, 10.0)


@st.composite
def sweep_cases(draw):
    # a block of profiles of mixed sizes, k up to two past the first one's;
    # at times a later one is long enough that its m^2 pairs pass
    # _PASS_CELLS, so every row of the block, padded to its length, takes
    # its prices p in runs
    block = [draw(st.lists(grid_or_floats(draw), max_size=10))
             for _ in range(draw(st.integers(1, 4)))]
    k = draw(st.integers(1, len(block[0]) + 2))
    if draw(st.integers(0, 3)) == 0:
        block.insert(draw(st.integers(1, len(block))), draw(st.lists(
            grid_or_floats(draw), min_size=91, max_size=100)))
    return block, k


def bits(results):
    # (value, p, q) of each result as integers, so 0.0 and -0.0 differ
    return np.array(results, dtype=float).view(np.int64)


@given(sweep_cases())
# pairs (0, 0), (1.25, 0) and (2.5, 0) all earn 10/3, (1.25, 0) one ulp
# more: the smallest pair wins, whatever the last bit says
@example(([[1.25, 2.5, 1.25]], 2))
# rows whose bests differ, the first's at (1, 0): each row's tie floor is
# its own
@example(([[10.0, 1.0, 1.0, 1.0], [100.0, 1.0], [1.25, 2.5, 1.25]], 1))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_pair_loop(case):
    block, k = case
    vals = block[0]
    r = two_price_benchmark(vals, k)
    values = pair_loop(vals, k)
    best = max(values.values())
    tol = 1e-12 * abs(best)
    assert abs(r.value - best) <= tol
    assert (r.p, r.q) == min(pair for pair, value in values.items()
                             if value >= best - tol)
    # the batched sweep, on the block padded with zeros, gives every row's
    # own bits
    V = np.zeros((len(block), max(map(len, block))))
    for row, prof in zip(V, block):
        row[:len(prof)] = prof
    want = [dataclasses.astuple(two_price_benchmark(prof, k)) for prof in block]
    np.testing.assert_array_equal(bits(two_price_benchmark_rows(V, k).T), bits(want))


def test_sweep_computes_no_single_price(monkeypatch):
    # the benchmark alone: with the single-price search made to raise, the
    # sweep gives the pair-loop oracle's smallest best pair, bit for bit
    # what it gave before, on the corpus and on tied profiles
    cases = [(prof.values, k) for _, prof in worst_case_corpus(0)
             for k in (1, 2, 4)]
    cases += [(vals, k) for vals in ((2.0, 2.0), (1.0, 1.0, 1.0),
                                     (5.0, 5.0, 3.0, 3.0), (0.0, 0.0),
                                     (1.25, 2.5, 1.25)) for k in (1, 2)]
    before = [two_price_benchmark(vals, k) for vals, k in cases]
    for (vals, k), r in zip(cases, before):
        values = pair_loop(vals, k)
        best = max(values.values())
        tol = 1e-12 * abs(best)
        assert abs(r.value - best) <= tol
        assert (r.p, r.q) == min(pair for pair, value in values.items()
                                 if value >= best - tol)

    def refuse(*args):
        raise AssertionError("the sweep asked for the best single price")

    monkeypatch.setattr(benchmark, "optimal_p_lottery", refuse)
    monkeypatch.setattr(benchmark, "_learned_price", refuse)
    assert [two_price_benchmark(vals, k) for vals, k in cases] == before


@pytest.mark.parametrize("e", [20, 43, 60, 700])
def test_benchmark_is_homogeneous(e):
    # scaling a profile by 2^-e scales every pair value exactly, so G's
    # value, p and q scale bit for bit: the tie floor is relative, and a
    # small-valued profile's pairs do not all tie
    scale = 2.0 ** -e
    rng = substream(e, "homogeneous")
    cases = [(np.array((0.9, 0.5, 0.45, 0.2)), 1)]  # G = 0.525 at (0.5, 0)
    for _ in range(300):
        n, k = int(rng.integers(1, 11)), int(rng.integers(1, 5))
        cases.append((rng.integers(0, 9, n) * 1.25 if rng.random() < 0.5
                      else rng.uniform(0.0, 10.0, n), k))
    for vals, k in cases:
        want = np.array(dataclasses.astuple(two_price_benchmark(vals, k))) * scale
        got = dataclasses.astuple(two_price_benchmark(vals * scale, k))
        np.testing.assert_array_equal(bits([got]), bits([want]))


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
            assert evaluate("plottery", prof, k, p=0.0) <= bound
            assert run("vickrey", prof, k).residual_surplus <= bound
            assert run("bayes", prof, k, iv=iv).residual_surplus <= bound


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
        bayes = run("bayes", values, k, iv=iv).residual_surplus
        G = two_price_benchmark(values, k).value
        assert bayes <= G * (1.0 + 1e-12), (values, k, bayes, G)


@given(piecewise_priors(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_bridged_bayes_rows_are_pq_rows(d, seed):
    # a profile whose k+1-st value lies inside a bridged interval gets the
    # two-price lottery with p at the interval's top end and q at its bottom
    # end (0 for a bridge at the bottom of the support): off the ends, the
    # ironed-level bands and pq's value bands hold the same agents
    iv = iron(d, grid=2 ** 12)
    ends = [e for itv in iv.intervals for e in (itv.v_lo, itv.v_hi)]
    rng = substream(seed, "bayes-pq")
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        values = d.quantile(rng.random(n))
        if np.isin(values, ends).any():
            continue
        marginal = np.sort(values)[-k - 1]
        for itv in iv.intervals:
            if itv.v_lo < marginal < itv.v_hi:
                bayes = run("bayes", values, k, iv=iv)
                pq = run("pqlottery", values, k, p=itv.v_hi,
                         q=0.0 if itv.at_bottom else itv.v_lo)
                np.testing.assert_array_equal(bayes.allocation, pq.allocation)
                np.testing.assert_array_equal(bayes.payments, pq.payments)


def test_full_surplus_oracles():
    assert full_surplus((1.0, 2.0), 5) == 3.0
    assert full_surplus((3.0, 1.0), 2) == 4.0
    assert full_surplus((), 3) == 0.0
    prof = as_profile((4.0, 9.0, 6.0))
    assert full_surplus(prof, 2) == 15.0
