"""Prior-free benchmark: the best two-price lottery on a fixed profile.

The benchmark value on a profile is the residual surplus of the best k-unit
two-price lottery, maximized over price pairs q <= p. Because lottery value is
piecewise linear in the prices with breakpoints only at profile values, and
nonincreasing in each price between breakpoints, the pairs drawn from the
candidates {0} union {v_i} are exhaustive. optimal_p_lottery gives the best
single-price strict lottery, the factor-two reference point: it is always at
least half the benchmark.

The pair sweep is a closed form over counts and prefix sums: for each
candidate c, the number of agents strictly above c and their value sum fix
every quantity the two-price lottery needs, so a pair costs O(1) and a
profile with m candidates O(m^2) arithmetic and O(m) memory. Pairs are
evaluated in blocks of about _PASS_CELLS, keeping each row's maximum, so the
m x m value matrix is never built.

Also here: the full-surplus reference point (what transfers-based efficiency
would extract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import _PASS_CELLS
from .distributions import as_profile
from .mechanisms import _blended_price, _learned_price, _require_k

# two pair values within this share of max(1, |best|) count as a tie
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class BenchmarkResult:
    """Best two-price lottery value and the prices p >= q achieving it."""

    value: float
    p: float
    q: float


def _pair_values(k: int, c, cnt, tail, i: np.ndarray, j: np.ndarray):
    """Two-price lottery values of the pairs (p, q) = (c[i], c[j]), i down
    the rows and j across; pairs with q > p read -inf.

    With s = cnt[i] agents above p and t = cnt[j] - s in (q, p], the cases
    are those of pqlottery's _two_price, with the top sum tail[i] and the
    band sum tail[j] - tail[i].
    """
    p, s, top = c[i][:, None], cnt[i][:, None], tail[i][:, None]
    q, sq, total = c[j], cnt[j], tail[j]
    # t < 0 above the diagonal; clipping it keeps every division finite
    t = np.maximum(sq - s, 0)
    crowded = k / np.maximum(s, 1) * (top - s * p)
    fits = total - sq * q
    shared = (top - s * _blended_price(k, s, t, q, p)
              + (k - s) / np.maximum(t, 1) * (total - top - t * q))
    values = np.where(s > k, crowded, np.where(s + t <= k, fits, shared))
    return np.where(j > i[:, None], -np.inf, values)


def two_price_benchmark(profile, k: int) -> BenchmarkResult:
    """Best two-price lottery over the candidate pairs, smallest pair on ties.

    The candidates c are 0 and the distinct values, ascending; cnt[i] counts
    the agents strictly above c[i] and tail[i] sums their values. Rows of
    about _PASS_CELLS / m prices p are evaluated at a time against every
    q up to the block's largest p, keeping only each row's maximum. The
    result is the smallest pair, p first and then q, whose value is within
    1e-12 * max(1, |best|) of the best one, so pairs that tie up to rounding
    resolve the same way on every profile.
    """
    _require_k(k)
    prof = as_profile(profile)
    v = np.sort(prof.values)
    c = np.unique(np.concatenate(([0.0], v)))
    m = c.size
    cnt = v.size - np.searchsorted(v, c, side="right")
    tail = np.concatenate((np.cumsum(v[::-1])[::-1], [0.0]))[v.size - cnt]
    cols = np.arange(m)
    rows = max(1, _PASS_CELLS // m)
    row_max = np.concatenate([
        _pair_values(k, c, cnt, tail, cols[i:i + rows], cols[:i + rows]).max(axis=1)
        for i in range(0, m, rows)])
    best = row_max.max()
    floor = best - _TIE_RTOL * max(1.0, abs(best))
    i = int(np.argmax(row_max >= floor))
    row = _pair_values(k, c, cnt, tail, cols[i:i + 1], cols[:i + 1])[0]
    j = int(np.argmax(row >= floor))
    return BenchmarkResult(float(row[j]), float(c[i]), float(c[j]))


def optimal_p_lottery(profile, k: int) -> tuple[float, float]:
    """Best (value, price) single-price lottery with strict eligibility.

    Strict eligibility makes the one-price optimum at least half the two-price
    benchmark; the sweep over {0} union {v_i} attains the supremum over all
    real prices.
    """
    _require_k(k)
    return tuple(map(float, _learned_price(as_profile(profile).sorted, True, k)))


def full_surplus(profile, k: int) -> float:
    """Sum of the top min(k, n) values: the transfers-based efficiency target."""
    _require_k(k)
    prof = as_profile(profile)
    return float(prof.sorted[:min(k, prof.n)].sum())
