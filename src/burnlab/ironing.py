"""Ironing of the utility virtual value in quantile space.

Write h(q) = theta(F^{-1}(q)) for the inverse hazard rate theta and let H be
its running integral. The ironed virtual value phibar is the derivative of the
lower convex hull G of H: constant on every bridged interval, equal to h
elsewhere. For a monotone-hazard-rate prior the hull is a single chord and
phibar is the prior mean everywhere; for a nondecreasing theta nothing gets
bridged and phibar coincides with theta.

Everything is computed on a clipped quantile grid. phibar is exposed both on
the grid and as a right-continuous lookup in value space, together with the
list of bridged intervals and their constant levels. iron hands out one
result per distribution object, grid and eps while that result is alive,
and keeps the most recent one alive, so its arrays are read-only.

The hull is a monotone-chain scan, and most of its steps are forced: along a
convex stretch it pops nothing, and across a concave one each point pops the
top alone and stops on the same two below it. lower_convex_hull takes those
runs in bulk, testing them with the scan's own pop predicate on array slices.
float64 arrays round each operation exactly as Python floats do, so the
vertices are the plain scan's, bit for bit. iron's bridge test then looks
only at the hull segments with grid points inside.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import QUANTILE_EPS, ValueDistribution, virtual_value_utility

DEFAULT_GRID = 2 ** 14

# A hull segment counts as bridged only if the function strictly exceeds the
# hull in its interior, relative to the overall scale of H.
_BRIDGE_RTOL = 1e-9

# iron's results by (id(d), grid, eps), held weakly: an entry lives as long
# as its IronedVirtual, which holds d, so the id is not reused meanwhile;
# _RECENT holds the most recent one strongly, for callers that keep none
_IRONED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_RECENT: list = [None]


# The hull scan looks for a bulk run after every _STRIDE plain steps. A fan run
# is tested _FAN_CHUNK points at a time, the chunk doubling while the run
# holds; a run shorter than a chunk doubles the checkpoints it waits for
# (at most _FAN_WAIT_MAX), so that noise-driven stretches stay plain.
_STRIDE, _FAN_CHUNK, _FAN_WAIT_MAX = 16, 32, 64


def _pops(xa, ya, xb, yb, xi, yi):
    """Whether the hull scan pops b, the top of its stack over a, on reaching
    i: i lies on or below the line through a and b. Elementwise alike on
    Python floats and on float64 arrays, which round the same."""
    cross = (xb - xa) * (yi - ya) - (yb - ya) * (xi - xa)
    # near-collinear points can pass the cross test by one rounding while
    # the slopes iron() takes by division come out equal
    return (cross <= 0.0) | ((yb - ya) / (xb - xa) >= (yi - yb) / (xi - xb))


def lower_convex_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull vertices of the path (x, y).

    x must be strictly increasing and x and y finite. Collinear interior
    points are dropped, so consecutive hull slopes are strictly increasing.

    A monotone-chain scan that takes its forced runs in bulk, every decision
    still the scan's own _pops on the same operands:
    - convex run: while the stack's top two are (i - 2, i - 1), the step at i
      pops nothing exactly when _pops(i - 2, i - 1, i) is false. That test
      is made once for every i, on slices, and the stack extends up to the
      next i where it holds.
    - fan run: with (P, A, i - 1) on top, the step at j = i pops the top
      alone and stops on (P, A) exactly when _pops(A, j - 1, j) and not
      _pops(P, A, j) (the second test falls away without a P). While that
      holds, j replaces the top; _fan_run tests chunks of j at once.
    Every other point takes the plain step on Python floats.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be matching 1-d arrays")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if x.size < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing with at least 2 points")
    n = x.size
    pops = _pops
    # the memoryviews hand out Python floats, which round exactly as numpy
    # float64 scalars at a fraction of the cost per operation, without the
    # memory of a list of every point
    xs, ys = memoryview(x), memoryview(y)
    # byte i is 1 where the step at i pops with (i - 2, i - 1) on top
    turn = bytearray(2)
    turn += pops(x[:-2], y[:-2], x[1:-1], y[1:-1], x[2:], y[2:]).tobytes()
    idx: list[int] = [0]
    wait, seen, streak = 1, None, 0
    i = 1
    while i < n:
        # (xb, yb) is the top of the stack, the last point pushed
        xb, yb = xs[idx[-1]], ys[idx[-1]]
        for i in range(i, min(i + _STRIDE, n)):
            xi, yi = xs[i], ys[i]
            while len(idx) >= 2:
                a = idx[-2]
                xa, ya = xs[a], ys[a]
                if not pops(xa, ya, xb, yb, xi, yi):
                    break
                idx.pop()
                xb, yb = xa, ya
            idx.append(i)
            xb, yb = xi, yi
        i += 1
        if i == n:
            break
        if idx[-2] == i - 2:
            # convex run up to the next turn
            stop = turn.find(1, i)
            stop = n if stop < 0 else stop
            idx.extend(range(i, stop))
            i = stop
            continue
        # a fan keeps the stack's size and the point below its top
        state = (len(idx), idx[-2])
        if state != seen:
            seen, streak = state, 0
            continue
        streak += 1
        if streak >= wait:
            run = _fan_run(x, y, idx, i)
            i += run
            wait = 1 if run >= _FAN_CHUNK else min(2 * wait, _FAN_WAIT_MAX)
            seen, streak = None, 0
    return np.asarray(idx, dtype=np.intp)


def _fan_run(x, y, idx, i):
    """Take the fan run from point i on: each point j that pops the top
    (j - 1) alone and stops on the two below replaces the top. Returns the
    number of points taken."""
    pops = _pops
    xa, ya = float(x[idx[-2]]), float(y[idx[-2]])
    below = len(idx) >= 3
    if below:
        xp, yp = float(x[idx[-3]]), float(y[idx[-3]])
    start, chunk = i, _FAN_CHUNK
    while i < x.size:
        hi = min(i + chunk, x.size)
        xj, yj = x[i:hi], y[i:hi]
        run = pops(xa, ya, x[i - 1:hi - 1], y[i - 1:hi - 1], xj, yj)
        if below:
            run &= ~pops(xp, yp, xa, ya, xj, yj)
        k = int(run.argmin())
        if run[k]:
            i, chunk = hi, 2 * chunk
            continue
        i += k
        break
    if i > start:
        idx[-1] = i - 1
    return i - start


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
    grid_seg: np.ndarray  # hull segment of each grid point

    @property
    def grid(self) -> int:
        return self.q.size

    @cached_property
    def ironed_flag(self) -> np.ndarray:
        """1 on grid points inside a bridged interval, 0 elsewhere."""
        flag = np.zeros(self.q.size, dtype=int)
        for iv in self.intervals:
            lo = int(np.searchsorted(self.q, iv.q_lo))
            hi = int(np.searchsorted(self.q, iv.q_hi))
            flag[lo:hi + 1] = 1
        flag.flags.writeable = False
        return flag

    @cached_property
    def segment_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Price anchors (lo, hi) of each hull segment, NaN on unbridged ones.

        A bridged segment anchors payments at its value-space endpoints, with
        lo forced to 0 when the bridge starts at the bottom of the grid (there
        is no losing bid region, so the identity integrates from 0). The
        prior-optimal rule runs Vickrey on the rows whose marginal agent sits
        on an unbridged segment.
        """
        lo = np.full(self.slopes.size, np.nan)
        hi = np.full(self.slopes.size, np.nan)
        hull_q = self.q[self.hull_idx]
        for interval in self.intervals:
            j = int(np.searchsorted(hull_q, interval.q_lo))
            lo[j] = 0.0 if interval.at_bottom else interval.v_lo
            hi[j] = interval.v_hi
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @cached_property
    def cell_slopes(self) -> np.ndarray:
        """Slope of H across each grid cell: theta averaged over the cell."""
        slopes = np.diff(self.H) / np.diff(self.q)
        slopes.flags.writeable = False
        return slopes

    def _cell(self, v) -> np.ndarray:
        """Grid cell of each value, searchsorted(q, qv, "right") - 1 for qv its
        cdf clipped to the grid (a NaN to the top, where searchsorted puts it),
        the same for a value alone as inside an array.

        q is a linspace, so the cell is (qv - q[0]) / step up to a rounding,
        which one comparison each way corrects; the estimate is capped below
        the top point first, so that q[cell + 1] exists.
        """
        v = np.asarray(v, dtype=float)
        q = self.q
        # raveled before the cdf: a cdf can round one ulp differently on a 0-d
        # array than in a vector, so a scalar is looked up as a 1-element array
        qv = np.fmin(self.dist.cdf(v.ravel()), q[-1])
        np.fmax(qv, q[0], out=qv)
        cell = ((qv - q[0]) * ((q.size - 1) / (q[-1] - q[0]))).astype(np.intp)
        np.minimum(cell, q.size - 2, out=cell)
        cell -= q.take(cell) > qv
        cell += q[1:].take(cell) <= qv
        return cell.reshape(v.shape)

    def segment_of(self, v) -> np.ndarray:
        """Index of the hull segment governing value v, right-continuous.

        Values outside the grid's quantile range clip to its ends, so bids
        below the support bottom land on the lowest segment. The segment is
        read from the table of grid cells: hull vertices are grid points, so
        none lies inside the cell.
        """
        return self.grid_seg[self._cell(v)]

    def value(self, v) -> np.ndarray | float:
        """phibar at value v, right-continuous across interval edges."""
        out = self.phibar[self._cell(v)]
        return out if np.ndim(v) else float(out)


def iron(d: ValueDistribution, grid: int = DEFAULT_GRID,
         eps: float = QUANTILE_EPS) -> IronedVirtual:
    """Compute the ironed virtual value of d on a clipped quantile grid.

    While a result is alive, another call with the same distribution object,
    grid and eps returns it instead of ironing again (an equal distribution
    built separately is ironed afresh). The most recent result stays alive
    until iron is called for another object, grid or eps. Its arrays are
    read-only, since every such caller shares them.
    """
    if grid < 64:
        raise ValueError("ironing grid must have at least 64 points")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    # a float grid raises here, as linspace would, and does not hit the memo
    key = (id(d), operator.index(grid), eps)
    iv = _RECENT[0] = _IRONED.get(key)
    if iv is not None:
        return iv
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

    # a segment is bridged where H rises above it inside; only segments
    # with interior points are looked at, each over its interior alone
    tol = _BRIDGE_RTOL * max(1.0, float(np.abs(H).max()))
    wide = np.flatnonzero(np.diff(hull_idx) > 1)
    inner = np.empty(2 * wide.size, dtype=np.intp)
    inner[0::2] = hull_idx[wide] + 1
    inner[1::2] = hull_idx[wide + 1]
    gap = np.maximum.reduceat(H - G, inner)[0::2]
    intervals = []
    for j in wide[gap > tol].tolist():
        i0, i1 = int(hull_idx[j]), int(hull_idx[j + 1])
        intervals.append(IronedInterval(
            q_lo=float(q[i0]), q_hi=float(q[i1]),
            v_lo=float(v[i0]), v_hi=float(v[i1]),
            level=float(slopes[j]),
            at_bottom=(i0 == 0), at_top=(i1 == grid - 1)))
    for a in (q, v, theta, H, G, phibar, hull_idx, slopes, seg):
        a.flags.writeable = False
    iv = _IRONED[key] = _RECENT[0] = IronedVirtual(
        d, q, v, theta, H, G, phibar, hull_idx, slopes, tuple(intervals), seg)
    return iv


def check_ironed_for(d: ValueDistribution, iv: IronedVirtual | None) -> None:
    """Reject an iv that was ironed for another distribution object than d
    (None passes), with a one-line ValueError."""
    if iv is not None and iv.dist is not d:
        raise ValueError(f"iv was ironed for {iv.dist.name}, not for {d.name}")
