"""Ironing of the utility virtual value in quantile space.

Write h(q) = theta(F^{-1}(q)) for the inverse hazard rate theta and let H be
its running integral. The ironed virtual value phibar is the derivative of the
lower convex hull G of H: constant on every bridged interval, equal to h
elsewhere. For a monotone-hazard-rate prior the hull is a single chord and
phibar is the prior mean everywhere; for a nondecreasing theta nothing gets
bridged and phibar coincides with theta.

Everything is computed on a clipped quantile grid. phibar is exposed both on
the grid and as a right-continuous lookup in value space, together with the
list of bridged intervals and their constant levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import QUANTILE_EPS, ValueDistribution, virtual_value_utility

DEFAULT_GRID = 2 ** 14

# A hull segment counts as bridged only if the function strictly exceeds the
# hull in its interior, relative to the overall scale of H.
_BRIDGE_RTOL = 1e-9


def lower_convex_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull vertices of the path (x, y).

    x must be strictly increasing. Collinear interior points are dropped, so
    consecutive hull slopes are strictly increasing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be matching 1-d arrays")
    if x.size < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing with at least 2 points")
    idx: list[int] = []
    for i in range(x.size):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            # near-collinear points can pass the cross test by one rounding
            # while the slopes iron() takes by division come out equal
            if cross <= 0.0 or ((y[b] - y[a]) / (x[b] - x[a])
                                >= (y[i] - y[b]) / (x[i] - x[b])):
                idx.pop()
            else:
                break
        idx.append(i)
    return np.asarray(idx, dtype=np.intp)


@dataclass(frozen=True)
class IronedInterval:
    """One bridged stretch of the hull, in quantile and value coordinates."""

    q_lo: float
    q_hi: float
    v_lo: float
    v_hi: float
    level: float
    at_bottom: bool
    at_top: bool


@dataclass(frozen=True, eq=False)
class IronedVirtual:
    """Grid representation of theta, its integral, the hull, and phibar."""

    dist: ValueDistribution
    q: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    H: np.ndarray
    G: np.ndarray
    phibar: np.ndarray
    hull_idx: np.ndarray
    slopes: np.ndarray
    intervals: tuple[IronedInterval, ...]

    @property
    def grid(self) -> int:
        return self.q.size

    @cached_property
    def hull_q(self) -> np.ndarray:
        return self.q[self.hull_idx]

    @cached_property
    def ironed_flag(self) -> np.ndarray:
        """1 on grid points inside a bridged interval, 0 elsewhere."""
        flag = np.zeros(self.q.size, dtype=int)
        for iv in self.intervals:
            lo = int(np.searchsorted(self.q, iv.q_lo))
            hi = int(np.searchsorted(self.q, iv.q_hi))
            flag[lo:hi + 1] = 1
        return flag

    def segment_of(self, v) -> np.ndarray:
        """Index of the hull segment governing value v, right-continuous.

        Values outside the grid's quantile range clip to its ends, so bids
        below the support bottom land on the lowest segment.
        """
        qv = np.clip(np.asarray(self.dist.cdf(np.asarray(v, dtype=float)),
                                dtype=float), self.q[0], self.q[-1])
        seg = np.searchsorted(self.hull_q, qv, side="right") - 1
        return np.clip(seg, 0, self.slopes.size - 1)

    def value(self, v) -> np.ndarray | float:
        """phibar at value v, right-continuous across interval edges."""
        out = self.slopes[self.segment_of(v)]
        return out if np.ndim(v) else float(out)


def iron(d: ValueDistribution, grid: int = DEFAULT_GRID,
         eps: float = QUANTILE_EPS) -> IronedVirtual:
    """Compute the ironed virtual value of d on a clipped quantile grid."""
    if grid < 64:
        raise ValueError("ironing grid must have at least 64 points")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    q = np.linspace(eps, 1.0 - eps, grid)
    v = np.asarray(d.quantile(q), dtype=float)
    theta = np.asarray(virtual_value_utility(d, v), dtype=float)

    H = np.empty(grid)
    H[0] = 0.0
    np.cumsum(0.5 * (theta[1:] + theta[:-1]) * np.diff(q), out=H[1:])

    hull_idx = lower_convex_hull(q, H)
    hull_q = q[hull_idx]
    hull_H = H[hull_idx]
    slopes = np.diff(hull_H) / np.diff(hull_q)
    G = np.interp(q, hull_q, hull_H)

    seg = np.clip(np.searchsorted(hull_q, q, side="right") - 1,
                  0, slopes.size - 1)
    phibar = slopes[seg]

    tol = _BRIDGE_RTOL * max(1.0, float(np.abs(H).max()))
    intervals = []
    for j in range(slopes.size):
        i0, i1 = int(hull_idx[j]), int(hull_idx[j + 1])
        if i1 - i0 > 1 and float(np.max(H[i0 + 1:i1] - G[i0 + 1:i1])) > tol:
            intervals.append(IronedInterval(
                q_lo=float(q[i0]), q_hi=float(q[i1]),
                v_lo=float(v[i0]), v_hi=float(v[i1]),
                level=float(slopes[j]),
                at_bottom=(i0 == 0), at_top=(i1 == grid - 1)))
    return IronedVirtual(d, q, v, theta, H, G, phibar, hull_idx,
                         slopes, tuple(intervals))


def ironed_value(d: ValueDistribution, v, grid: int = DEFAULT_GRID,
                 eps: float = QUANTILE_EPS):
    """phibar(v) for a one-off query; builds the grid representation first."""
    return iron(d, grid=grid, eps=eps).value(v)
