"""Prior-free benchmark: the best two-price lottery on a fixed profile.

The benchmark value on a profile is the residual surplus of the best k-unit
two-price lottery, maximized over price pairs. Because lottery value is
piecewise linear in the prices with breakpoints only at profile values, and
nonincreasing in each price between breakpoints, the sweep over
{0} union {v_i} pairs is exhaustive. The best single-price strict lottery is
reported alongside; it is always within a factor two of the benchmark.

Also here: the sorted-rank identity that rewrites a strict lottery's value on
an agent subset as a gap-weighted sum, and the full-surplus reference point
(what transfers-based efficiency would extract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import as_profile
from .mechanisms import _optimal_strict_price, _require_k, expected_pq_lottery


@dataclass(frozen=True)
class BenchmarkResult:
    """Best two-price lottery value and the prices achieving it.

    single_value and single_p describe the best one-price strict lottery on
    the same profile.
    """

    value: float
    p: float
    q: float
    single_value: float
    single_p: float


def two_price_benchmark(profile, k: int) -> BenchmarkResult:
    """Exhaustive sweep over candidate price pairs, smallest pair on ties."""
    _require_k(k)
    prof = as_profile(profile)
    cands = np.unique(np.concatenate(([0.0], prof.values)))
    best = -np.inf
    best_p = best_q = 0.0
    for i, p in enumerate(cands):
        for q in cands[:i + 1]:
            value = expected_pq_lottery(prof, k, float(p), float(q))
            if value > best:
                best, best_p, best_q = value, float(p), float(q)
    single_value, single_p = optimal_p_lottery(prof, k)
    return BenchmarkResult(best, best_p, best_q, single_value, single_p)


def optimal_p_lottery(profile, k: int) -> tuple[float, float]:
    """Best (value, price) single-price lottery with strict eligibility.

    Strict eligibility makes the one-price optimum at least half the two-price
    benchmark; the sweep over {0} union {v_i} attains the supremum over all
    real prices.
    """
    _require_k(k)
    return _optimal_strict_price(as_profile(profile).values, k)


def lottery_surplus_identity(profile, subset, k: int, ell: int) -> float:
    """Gap-form value of a strict lottery on a subset priced at the ell+1-st value.

    subset indexes into the profile in submission order. With n_i counting
    subset members among the top i ranks and d_i the descending value gaps,
    the lottery serving subset members above the ell+1-st value equals
    (min(k, n_ell)/n_ell) * sum_{i<=ell} n_i d_i. When equal values straddle
    rank ell, ell advances past the tied block so the top-ell set is
    unambiguous. Returns 0 when no subset member ranks in the top ell.
    """
    _require_k(k)
    prof = as_profile(profile)
    n = prof.n
    if not 1 <= ell <= n:
        raise ValueError("rank ell must lie in 1..n")
    member = np.zeros(n, dtype=bool)
    member[np.asarray(subset, dtype=int)] = True
    order = np.argsort(-prof.values, kind="stable")
    member_by_rank = member[order]
    s = prof.sorted
    while ell < n and s[ell - 1] == s[ell]:
        ell += 1
    counts = np.cumsum(member_by_rank[:ell])
    n_ell = int(counts[-1])
    if n_ell == 0:
        return 0.0
    return min(k, n_ell) / n_ell * float(np.dot(counts, prof.gaps[:ell]))


def full_surplus(profile, k: int) -> float:
    """Sum of the top min(k, n) values: the transfers-based efficiency target."""
    _require_k(k)
    prof = as_profile(profile)
    return float(prof.sorted[:min(k, prof.n)].sum())
