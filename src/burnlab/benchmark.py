"""Prior-free benchmark: the best two-price lottery on a fixed profile.

The benchmark is the residual surplus of the best k-unit two-price lottery
over price pairs q <= p. Its value is piecewise linear in the prices, with
breakpoints at profile values, and falls in each between them, so pairs of
candidates {0} union {v_i} suffice, each costing O(1) from the count and
sum of the agents strictly above its prices (mechanisms._price_runs).
two_price_benchmark_rows sweeps the rows of an array, duplicate candidates
and all: a duplicate, like a zero padding a shorter profile, repeats pair
values, so each row gives its own profile's bits; two_price_benchmark
sweeps one profile's distinct candidates. Also here: the best single-price
lottery and the full surplus, the benchmark's reference points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import _PASS_CELLS
from .distributions import as_profile
from .mechanisms import _blended_price, _learned_price, _price_runs, _require_k


@dataclass(frozen=True)
class BenchmarkResult:
    """Best two-price lottery value and the prices p >= q achieving it."""

    value: float
    p: float
    q: float


def _pair_values(k: int, c, cnt, tail, lo: int, hi: int):
    """Values of the pairs (p, q) = (c[:, a], c[:, b]) of each row, a from
    lo to hi - 1 down and b below hi across, -inf where q > p: with s =
    cnt[a] agents above p and t = cnt[b] - s in (q, p], the cases of
    pqlottery's _two_price, top sum tail[a] and band sum tail[b] - tail[a]."""
    p, s, top = (x[:, lo:hi, None] for x in (c, cnt, tail))
    q, sq, total = (x[:, None, :hi] for x in (c, cnt, tail))
    # t < 0 above the diagonal; clipping it keeps every division finite
    t = np.maximum(sq - s, 0)
    crowded = k / np.maximum(s, 1) * (top - s * p)
    fits = total - sq * q
    shared = (top - s * _blended_price(k, s, t, q, p)
              + (k - s) / np.maximum(t, 1) * (total - top - t * q))
    values = np.where(s > k, crowded, np.where(s + t <= k, fits, shared))
    return np.where(np.arange(hi) > np.arange(lo, hi)[:, None], -np.inf, values)


def _sweep(k: int, c, cnt, tail) -> np.ndarray:
    """(value, p, q) of each row's best pair as a (3, rows) array: the
    smallest pair, p first, within 1e-12 * |best| of the row's own best, so
    pairs that tie up to rounding resolve alike on every profile, at any scale.
    The candidates come in _price_runs' order and are swept ascending: a
    block holds many rows when a row's m x m pairs fit in _PASS_CELLS, else
    one row's prices p in runs of about _PASS_CELLS / m."""
    c, cnt, tail = (np.ascontiguousarray(a[:, ::-1]) for a in (c, cnt, tail))
    rows, m = c.shape
    g = max(1, _PASS_CELLS // (m * m))
    step = max(1, _PASS_CELLS // (g * m))
    out = np.empty((3, rows))
    for s in range(0, rows, g):
        blk = c[s:s + g], cnt[s:s + g], tail[s:s + g]
        r = np.arange(len(blk[0]))
        # each price's best; vals keeps the last run, all of them when step >= m
        row_max = np.concatenate([(vals := _pair_values(k, *blk, i, min(i + step, m))).max(axis=2)
                                  for i in range(0, m, step)], axis=1)
        best = row_max.max(axis=1, keepdims=True)
        floor = best - 1e-12 * np.abs(best)
        i = np.argmax(row_max >= floor, axis=1)
        # a row swept in runs (g is 1) takes its price's pairs again
        row = vals[r, i] if step >= m else _pair_values(k, *blk, i[0], i[0] + 1)[:, 0]
        j = np.argmax(row >= floor, axis=1)
        out[:, s:s + g] = row[r, j], blk[0][r, i], blk[0][r, j]
    return out


def two_price_benchmark(profile, k: int) -> BenchmarkResult:
    """Best two-price lottery over the candidate pairs, smallest pair on ties:
    _sweep on one row, one candidate per run of equal values, which gives
    two_price_benchmark_rows's bits in fewer pairs."""
    _require_k(k)
    *cands, start = _price_runs(as_profile(profile).sorted, True)
    return BenchmarkResult(*_sweep(k, *(a[start][None] for a in cands))[:, 0].tolist())


def two_price_benchmark_rows(V, k: int) -> np.ndarray:
    """two_price_benchmark of each row of V, profiles as rows, as a (3, rows)
    array of values, p and q, each bit for bit the row's own: candidates
    keep their duplicates, which, like the zeros padding a shorter profile,
    repeat pair values, so profiles of any size batch as one block."""
    _require_k(k)
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or not np.all((V >= 0) & (V < np.inf)):
        raise ValueError("rows: need a 2-D array of finite nonnegative values")
    return _sweep(k, *_price_runs(np.sort(V, axis=1)[:, ::-1], True)[:3])


def optimal_p_lottery(profile, k: int) -> tuple[float, float]:
    """Best (value, price) single-price lottery with strict eligibility, which
    makes it at least half the benchmark; the prices {0} union {v_i} attain
    the supremum over all real prices."""
    _require_k(k)
    return tuple(map(float, _learned_price(as_profile(profile).sorted, True, k)))


def full_surplus(profile, k: int) -> float:
    """Sum of the top min(k, n) values: the transfers-based efficiency target."""
    _require_k(k)
    return float(as_profile(profile).sorted[:k].sum())
