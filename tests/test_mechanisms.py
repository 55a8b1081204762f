import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.common import substream
from burnlab.distributions import ValuationProfile
from burnlab.mechanisms import (CostProblem, _learned_price, bayes_optimal_outcome,
                                bayes_optimal_with_costs, expected_log_price,
                                expected_p_lottery, expected_pq_lottery,
                                expected_rsol, expected_strict_p_lottery,
                                mixed_vickrey_lottery, rsol, run_log_price,
                                run_pq_lottery, vickrey)

profiles = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                    max_size=8).map(ValuationProfile)


def check_outcome(out, k):
    assert np.all(out.allocation >= 0.0) and np.all(out.allocation <= 1.0)
    assert float(out.allocation.sum()) <= k + 1e-9
    assert np.all(out.payments >= -1e-12)
    values = out.utilities + out.payments
    assert np.all(out.payments <= values + 1e-9)
    assert out.residual_surplus == pytest.approx(float(out.utilities.sum()))


# ---------------------------------------------------------------------------
# posted-price lotteries


def test_p_lottery_oracles():
    assert expected_p_lottery([3.0, 1.0], 1, 0.0) == 2.0
    assert expected_p_lottery([3.0, 1.0], 1, 1.0) == 1.0
    assert expected_p_lottery([3.0, 1.0], 1, 2.0) == 1.0
    assert expected_p_lottery([3.0, 1.0], 1, 5.0) == 0.0
    assert expected_p_lottery([5.0, 4.0, 3.0], 2, 3.0) == 2.0


def test_strict_lottery_excludes_at_price():
    assert expected_strict_p_lottery([3.0, 1.0], 1, 1.0) == 2.0
    assert expected_strict_p_lottery([3.0, 1.0], 1, 0.0) == 2.0
    assert expected_strict_p_lottery([1.0, 1.0], 1, 1.0) == 0.0


def test_pq_lottery_oracles():
    assert expected_pq_lottery([3.0, 1.0], 1, 1.0, 0.0) == 2.5
    assert expected_pq_lottery([5.0, 4.0, 3.0], 1, 3.0, 1.0) == 1.5
    assert expected_pq_lottery([5.0, 4.0], 3, 4.5, 2.0) == 5.0


def test_pq_lottery_validation():
    with pytest.raises(ValueError):
        expected_pq_lottery([1.0], 1, 1.0, 2.0)


def test_pq_collapses_to_strict_single_price():
    prof = [5.0, 4.0, 3.0, 1.0]
    for p in (0.0, 2.0, 3.0, 4.5):
        assert expected_pq_lottery(prof, 2, p, p) == pytest.approx(
            expected_strict_p_lottery(prof, 2, p))


@given(profiles, st.integers(1, 4), st.floats(0.0, 12.0), st.floats(0.0, 12.0))
@settings(max_examples=200, deadline=None)
def test_pq_run_matches_expectation_and_ir(prof, k, a, b):
    p, q = max(a, b), min(a, b)
    out = run_pq_lottery(prof, k, p, q)
    check_outcome(out, k)
    assert out.residual_surplus == pytest.approx(
        expected_pq_lottery(prof, k, p, q), abs=1e-9)


@given(profiles, st.integers(1, 4), st.floats(0.0, 12.0), st.floats(0.0, 12.0))
@settings(max_examples=200, deadline=None)
def test_sublottery_inequality(prof, k, a, b):
    # the strict single-price form of the bound holds for every instance;
    # the inclusive form can be diluted by agents tied exactly at the price
    p, q = max(a, b), min(a, b)
    combined = expected_pq_lottery(prof, k, p, q)
    split = (expected_strict_p_lottery(prof, k, p)
             + expected_strict_p_lottery(prof, k, q))
    assert combined <= split + 1e-9


@given(profiles, st.integers(1, 4), st.floats(0.001, 12.0),
       st.floats(0.001, 12.0))
@settings(max_examples=200, deadline=None)
def test_sublottery_inequality_inclusive_off_atoms(prof, k, a, b):
    p, q = max(a, b), min(a, b)
    if np.any(np.isin(prof.values, (p, q))):
        return
    combined = expected_pq_lottery(prof, k, p, q)
    split = expected_p_lottery(prof, k, p) + expected_p_lottery(prof, k, q)
    assert combined <= split + 1e-9


# ---------------------------------------------------------------------------
# vickrey


def test_vickrey_oracles():
    assert vickrey([3.0, 1.0], 1).residual_surplus == 2.0
    out = vickrey([5.0, 5.0, 5.0], 3)
    assert out.residual_surplus == 15.0
    np.testing.assert_array_equal(out.payments, 0.0)
    assert vickrey([4.0, 4.0, 1.0], 1).residual_surplus == pytest.approx(0.0)


def test_vickrey_realized_tie_break():
    rng = substream(0, "tie")
    out = vickrey([4.0, 4.0, 1.0], 1, rng=rng)
    check_outcome(out, 1)
    assert float(out.allocation.sum()) == 1.0
    assert float(out.payments.max()) == 4.0


def test_vickrey_empty_profile():
    # RSOL runs Vickrey on its serving half, which may be empty
    rng = substream(0, "empty")
    state = rng.bit_generator.state
    for out in (vickrey([], 1), vickrey([], 2, rng=rng)):
        assert out.allocation.size == 0 and out.residual_surplus == 0.0
    assert rng.bit_generator.state == state


@given(profiles, st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_vickrey_outcome_invariants(prof, k):
    check_outcome(vickrey(prof, k), k)


# ---------------------------------------------------------------------------
# prior-optimal rule


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_bayes_mhr_is_free_lottery(iv_uniform, vals, k):
    out = bayes_optimal_outcome(iv_uniform, vals, k)
    np.testing.assert_array_equal(out.payments, 0.0)
    n = len(vals)
    np.testing.assert_allclose(out.allocation, min(k, n) / n)
    assert float(out.allocation.sum()) == pytest.approx(min(k, n))


@given(st.lists(st.floats(1.0, 50.0), min_size=1, max_size=6),
       st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_bayes_antimhr_is_vickrey(iv_pareto, vals, k):
    out = bayes_optimal_outcome(iv_pareto, vals, k)
    ref = vickrey(vals, k)
    np.testing.assert_allclose(out.allocation, ref.allocation)
    np.testing.assert_array_equal(out.payments, ref.payments)


def test_bayes_antimhr_oracle(iv_pareto):
    out = bayes_optimal_outcome(iv_pareto, [3.0, 2.0, 1.0], 1)
    np.testing.assert_allclose(out.allocation, [1.0, 0.0, 0.0])
    assert out.payments[0] == 2.0


def test_bayes_bridged_interval_payment(iv_bridge):
    # interval spans [1, 2]: the marginal agent at 1.5 sits on the bridge,
    # the top agent wins surely and pays the midpoint of the interval ends
    out = bayes_optimal_outcome(iv_bridge, [3.0, 1.5], 1)
    np.testing.assert_allclose(out.allocation, [1.0, 0.0])
    assert out.payments[0] == pytest.approx(1.5, abs=5e-3)
    assert out.payments[1] == 0.0


def test_bayes_bridged_tie_share(iv_bridge):
    # both agents inside the interval: one unit shared at the interval's
    # lower end, interim payment x * lo
    out = bayes_optimal_outcome(iv_bridge, [1.8, 1.2], 1)
    np.testing.assert_allclose(out.allocation, [0.5, 0.5])
    np.testing.assert_allclose(out.payments, 0.5 * 1.0, atol=5e-3)


def test_bayes_support_validation(iv_uniform):
    with pytest.raises(ValueError):
        bayes_optimal_outcome(iv_uniform, [1.5], 1)


def test_bayes_realized_mode(iv_bridge):
    rng = substream(5, "bayes")
    out = bayes_optimal_outcome(iv_bridge, [1.8, 1.2], 1, rng=rng)
    check_outcome(out, 1)
    assert set(np.unique(out.allocation)) <= {0.0, 1.0}
    winner = int(np.argmax(out.allocation))
    assert out.payments[winner] == pytest.approx(1.0, abs=5e-3)


# ---------------------------------------------------------------------------
# general costs


def test_costs_single_agent():
    def cost(subset):
        return 0.5 if subset else 0.0

    serve = bayes_optimal_with_costs(
        CostProblem((lambda v: 0.7,), cost), [1.0])
    assert serve.chosen == frozenset({0})
    assert serve.virtual_surplus == pytest.approx(0.2)

    skip = bayes_optimal_with_costs(
        CostProblem((lambda v: 0.3,), cost), [1.0])
    assert skip.chosen == frozenset()
    assert skip.virtual_surplus == 0.0


def test_costs_recover_k_unit_rule(iv_pareto):
    values = [3.0, 2.0, 1.5]
    k = 2

    def cost(subset):
        return 0.0 if len(subset) <= k else float("inf")

    phibar = tuple([iv_pareto.value] * 3)
    out = bayes_optimal_with_costs(CostProblem(phibar, cost), values)
    assert out.chosen == frozenset({0, 1})
    ref = bayes_optimal_outcome(iv_pareto, values, k)
    assert sorted(np.flatnonzero(ref.allocation == 1.0)) == sorted(out.chosen)


def test_costs_capacity_error():
    with pytest.raises(ValueError):
        CostProblem(tuple([lambda v: v] * 21), lambda s: 0.0)


# ---------------------------------------------------------------------------
# random sampling optimal lottery


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


@given(st.integers(0, 8), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_learned_price_matches_scan(n, k, data):
    # several rows at once; tenths make ties common and rounding visible
    rows = data.draw(st.integers(1, 4))
    value_st = st.one_of(st.integers(0, 12).map(lambda j: j / 10),
                         st.floats(0.0, 10.0))
    cells = st.lists(st.tuples(value_st, st.booleans()), min_size=n, max_size=n)
    drawn = [data.draw(cells) for _ in range(rows)]
    V = -np.sort(-np.array([[v for v, _ in r] for r in drawn]).reshape(rows, n),
                 axis=1)
    pool = np.array([[m for _, m in r] for r in drawn], dtype=bool).reshape(rows, n)
    value, price = _learned_price(V, pool, k)
    assert value.shape == price.shape == (rows,)
    for r in range(rows):
        assert (value[r], price[r]) == strict_scan(list(V[r][pool[r]]), k)


def test_learned_price_counts_tied_run_once():
    # two pool agents at 0.2: the price 0.2 counts only the agents strictly
    # above it; counting the first 0.2 as well reads one ulp off here
    V = np.array([1.2, 1.2, 1.2, 0.9, 0.3, 0.2, 0.2, 0.1])
    pool = np.array([1, 1, 0, 1, 0, 1, 1, 1], dtype=bool)
    value, price = _learned_price(V, pool, 4)
    assert (value, price) == strict_scan(list(V[pool]), 4)


def test_rsol_exact_oracles():
    assert expected_rsol([3.0, 1.0], 1).mean == pytest.approx(1.5)
    assert expected_rsol([7.0], 1).mean == pytest.approx(3.5)
    ev = expected_rsol([3.0, 1.0], 1)
    assert ev.mode == "exact" and ev.ci_halfwidth == 0.0


def test_rsol_realized_determinism():
    prof = [5.0, 3.0, 2.0, 1.0]
    a = rsol(prof, 1, substream(9, "r"))
    b = rsol(prof, 1, substream(9, "r"))
    np.testing.assert_array_equal(a.allocation, b.allocation)
    np.testing.assert_array_equal(a.payments, b.payments)
    check_outcome(a, 1)


def test_rsol_empty_profile_rejected():
    with pytest.raises(ValueError):
        expected_rsol(ValuationProfile([]), 1)


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_rsol_exact_matches_mc(vals, k):
    exact = expected_rsol(vals, k, mode="exact").mean
    mc = expected_rsol(vals, k, mode="mc", reps=4000, seed=17)
    se = mc.ci_halfwidth / 2.58
    assert abs(mc.mean - exact) <= 3.0 * se + 1e-9


@given(profiles, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_rsol_outcome_invariants(prof, k):
    out = rsol(prof, k, substream(3, "inv"))
    check_outcome(out, k)


# ---------------------------------------------------------------------------
# two-agent mixture


def test_mixture_oracles():
    assert mixed_vickrey_lottery([3.0, 1.0]).mean == pytest.approx(2.0)
    assert mixed_vickrey_lottery([4.0, 4.0]).mean == pytest.approx(8.0 / 3.0)
    assert mixed_vickrey_lottery([3.0, 1.0]).mode == "exact"
    with pytest.raises(ValueError):
        mixed_vickrey_lottery([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="k=1"):
        mixed_vickrey_lottery([3.0, 1.0], 2)


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_mixture_formula(a, b):
    hi = max(a, b)
    assert mixed_vickrey_lottery([a, b]).mean == pytest.approx(2.0 * hi / 3.0)


# ---------------------------------------------------------------------------
# logarithmic price ladder


def test_log_price_oracles():
    # ladder prices are rank-based: each round sells to the top 2^j agents
    assert expected_log_price([3.0, 1.0], 1) == pytest.approx(2.0)
    assert expected_log_price([4.0] * 4, 4) == pytest.approx(16.0)
    spike = np.zeros(16)
    spike[0] = 1.0
    assert expected_log_price(spike, 1) == pytest.approx(0.3875)


def test_log_price_realized():
    rng = substream(1, "lp")
    prof = [5.0, 3.0, 1.0]
    out = run_log_price(prof, 1, rng)
    check_outcome(out, 1)
    total = sum(run_log_price(prof, 1, substream(i, "lp")).residual_surplus
                for i in range(400)) / 400
    assert total == pytest.approx(expected_log_price(prof, 1), rel=0.25)


@given(profiles, st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_log_price_meets_bound(prof, k):
    n = prof.n
    if k > n:
        return
    full = float(np.sort(prof.values)[::-1][:k].sum())
    bound = full / (2.0 * (1.0 + np.log2(n / k))) if n else 0.0
    assert expected_log_price(prof, k) >= bound - 1e-12
