"""Value distributions and valuation profiles.

A ValueDistribution bundles the cdf, density, quantile function, and mean of a
continuous prior over nonnegative values. Two virtual-value transforms matter
downstream:

    utility virtual value   theta(v) = (1 - F(v)) / f(v)
    payment virtual value   phi(v)   = v - theta(v)

theta is the inverse hazard rate. Its monotonicity drives everything: a prior
with nonincreasing theta (monotone hazard rate) irons flat, one with
nondecreasing theta keeps theta as-is, and mixed shapes iron on subintervals.

Stock constructors cover uniform, exponential, Pareto tails, a bounded
two-piece density whose theta rises then falls, and pieced-together constant
inverse hazard rates for building custom theta shapes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .common import substream

# Quantile clipping used whenever a computation needs a bounded grid on an
# unbounded support.
QUANTILE_EPS = 1e-9


class SupportError(ValueError):
    """A value lies outside a distribution's support."""


class ZeroDensityError(ValueError):
    """The density vanishes where a virtual value was requested."""


@dataclass(frozen=True)
class ValueDistribution:
    """Continuous prior over values, described by callables.

    cdf, pdf, and quantile must accept and return numpy arrays. support is the
    closed-or-unbounded interval (lo, hi) on which pdf is positive.
    """

    name: str
    support: tuple[float, float]
    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    mean: float

    def __repr__(self):
        return f"ValueDistribution({self.name})"

    def contains(self, v) -> np.ndarray:
        lo, hi = self.support
        v = np.asarray(v, dtype=float)
        return (v >= lo) & (v <= hi)


def _require_in_support(d: ValueDistribution, v: np.ndarray):
    if not np.all(d.contains(v)):
        bad = np.asarray(v, dtype=float)[~d.contains(v)]
        raise SupportError(f"value {bad.flat[0]} outside support {d.support} of {d.name}")


def virtual_value_utility(d: ValueDistribution, v) -> np.ndarray | float:
    """theta(v) = (1 - F(v)) / f(v), the inverse hazard rate."""
    arr = np.asarray(v, dtype=float)
    _require_in_support(d, arr)
    dens = np.asarray(d.pdf(arr), dtype=float)
    if np.any(dens <= 0.0):
        bad = arr[dens <= 0.0]
        raise ZeroDensityError(f"density vanishes at v={bad.flat[0]} in {d.name}")
    out = (1.0 - np.asarray(d.cdf(arr), dtype=float)) / dens
    return out if np.ndim(v) else float(out)


def virtual_value_payment(d: ValueDistribution, v) -> np.ndarray | float:
    """phi(v) = v - theta(v), the classical revenue virtual value."""
    theta = virtual_value_utility(d, v)
    arr = np.asarray(v, dtype=float)
    out = arr - theta
    return out if np.ndim(v) else float(out)


def hazard_classification(d: ValueDistribution, grid: int = 256,
                          tol: float = 1e-9, eps: float = QUANTILE_EPS) -> str:
    """Classify theta's monotonicity on a quantile grid.

    Returns "MHR" when theta is nonincreasing (constant counts as MHR),
    "antiMHR" when nondecreasing, "nonMHR" otherwise. tol is relative: steps
    within tol * max|theta| count as flat, so rescaling values by any factor
    keeps the class.
    """
    if grid < 16:
        raise ValueError("classification grid must have at least 16 points")
    q = np.linspace(eps, 1.0 - eps, grid)
    theta = virtual_value_utility(d, d.quantile(q))
    diffs = np.diff(theta)
    flat = tol * float(np.max(np.abs(theta)))
    if np.all(diffs <= flat):
        return "MHR"
    if np.all(diffs >= -flat):
        return "antiMHR"
    return "nonMHR"


# ---------------------------------------------------------------------------
# stock distributions


def uniform(lo: float, hi: float) -> ValueDistribution:
    if not (0.0 <= lo < hi):
        raise ValueError("need 0 <= lo < hi")
    width = hi - lo

    def cdf(v):
        return np.clip((np.asarray(v, float) - lo) / width, 0.0, 1.0)

    def pdf(v):
        v = np.asarray(v, float)
        return np.where((v >= lo) & (v <= hi), 1.0 / width, 0.0)

    def quantile(q):
        return lo + np.asarray(q, float) * width

    return ValueDistribution(f"uniform({lo:g},{hi:g})", (lo, hi),
                             cdf, pdf, quantile, 0.5 * (lo + hi))


def exponential(rate: float) -> ValueDistribution:
    if rate <= 0:
        raise ValueError("rate must be positive")

    def cdf(v):
        return -np.expm1(-rate * np.asarray(v, float))

    def pdf(v):
        return rate * np.exp(-rate * np.asarray(v, float))

    def quantile(q):
        return -np.log1p(-np.asarray(q, float)) / rate

    return ValueDistribution(f"exp({rate:g})", (0.0, math.inf),
                             cdf, pdf, quantile, 1.0 / rate)


def pareto(scale: float, shape: float) -> ValueDistribution:
    """Pareto tail F(v) = 1 - (v/scale)^(-shape) on [scale, inf).

    shape must exceed 1 so the mean is finite. theta(v) = v/shape grows
    linearly, so these priors classify as antiMHR.
    """
    if scale <= 0 or shape <= 1:
        raise ValueError("need scale > 0 and shape > 1")

    def cdf(v):
        v = np.asarray(v, float)
        return np.where(v < scale, 0.0, 1.0 - (v / scale) ** (-shape))

    def pdf(v):
        v = np.asarray(v, float)
        return np.where(v < scale, 0.0, shape / scale * (v / scale) ** (-shape - 1.0))

    def quantile(q):
        return scale * (1.0 - np.asarray(q, float)) ** (-1.0 / shape)

    mean = scale * shape / (shape - 1.0)
    return ValueDistribution(f"pareto({scale:g},{shape:g})", (scale, math.inf),
                             cdf, pdf, quantile, mean)


def two_piece() -> ValueDistribution:
    """Bounded prior on [0, 2] whose theta rises then falls.

    F(v) = 1 - (1+v)^(-2) on [0, 1) and 1 - (2-v)/4 on [1, 2]. The density is
    continuous (1/4 at the junction) and theta(v) = (1+v)/2 below 1, 2 - v
    above, so the classification is nonMHR. Ironing it bridges [1/3, 2] at the
    constant level 2/3.
    """

    def cdf(v):
        v = np.asarray(v, float)
        lowpart = 1.0 - (1.0 + np.clip(v, 0.0, 1.0)) ** -2.0
        highpart = 1.0 - (2.0 - np.clip(v, 1.0, 2.0)) / 4.0
        return np.clip(np.where(v < 1.0, lowpart, highpart), 0.0, 1.0)

    def pdf(v):
        v = np.asarray(v, float)
        inside = (v >= 0.0) & (v <= 2.0)
        return np.where(inside, np.where(v < 1.0, 2.0 * (1.0 + v) ** -3.0, 0.25), 0.0)

    def quantile(q):
        q = np.asarray(q, float)
        low = (1.0 - np.minimum(q, 0.75)) ** -0.5 - 1.0
        high = 2.0 - 4.0 * (1.0 - np.maximum(q, 0.75))
        return np.where(q < 0.75, low, high)

    return ValueDistribution("twopiece", (0.0, 2.0), cdf, pdf, quantile, 0.625)


def piecewise_inverse_hazard(breaks, thetas) -> ValueDistribution:
    """Prior on [breaks[0], inf) with piecewise-constant theta.

    thetas[j] is the inverse hazard rate on [breaks[j], breaks[j+1]), with the
    last value extending to infinity. Handy for constructing priors whose
    ironing bridges a prescribed value interval.
    """
    breaks = np.asarray(breaks, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if breaks.ndim != 1 or breaks.size != thetas.size or breaks.size < 1:
        raise ValueError("breaks and thetas must be equal-length 1-d arrays")
    if np.any(np.diff(breaks) <= 0):
        raise ValueError("breaks must be strictly increasing")
    if np.any(thetas <= 0):
        raise ValueError("thetas must be positive")
    # Cumulative hazard at each break.
    lam = np.concatenate(([0.0], np.cumsum(np.diff(breaks) / thetas[:-1])))

    def _cumhaz(v):
        v = np.asarray(v, float)
        j = np.clip(np.searchsorted(breaks, v, side="right") - 1, 0, breaks.size - 1)
        return lam[j] + (v - breaks[j]) / thetas[j]

    def cdf(v):
        v = np.asarray(v, float)
        return np.where(v < breaks[0], 0.0, -np.expm1(-_cumhaz(np.maximum(v, breaks[0]))))

    def pdf(v):
        v = np.asarray(v, float)
        j = np.clip(np.searchsorted(breaks, v, side="right") - 1, 0, breaks.size - 1)
        return np.where(v < breaks[0], 0.0,
                        np.exp(-_cumhaz(np.maximum(v, breaks[0]))) / thetas[j])

    def quantile(q):
        t = -np.log1p(-np.asarray(q, float))
        j = np.clip(np.searchsorted(lam, t, side="right") - 1, 0, breaks.size - 1)
        return breaks[j] + thetas[j] * (t - lam[j])

    surv = np.exp(-lam)
    widths = np.diff(breaks)
    mean = breaks[0] + float(
        np.sum(surv[:-1] * thetas[:-1] * -np.expm1(-widths / thetas[:-1]))
        + surv[-1] * thetas[-1])
    label = "piecewise[" + ",".join(f"{t:g}" for t in thetas) + "]"
    return ValueDistribution(label, (float(breaks[0]), math.inf),
                             cdf, pdf, quantile, mean)


_SPEC_RE = re.compile(r"^\s*([a-zA-Z]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def distribution_from_spec(text: str) -> ValueDistribution:
    """Parse a distribution spec string such as "uniform(0,1)" or "exp(1)".

    Recognized families: uniform(lo,hi), exp(rate) or exponential(rate),
    pareto(scale,shape), twopiece. Discrete priors are not representable.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse distribution spec {text!r}")
    name = m.group(1).lower()
    args = [float(a) for a in m.group(2).split(",")] if m.group(2) else []
    if name == "uniform":
        if len(args) != 2:
            raise ValueError("uniform takes two arguments: uniform(lo,hi)")
        return uniform(*args)
    if name in ("exp", "exponential"):
        if len(args) != 1:
            raise ValueError("exp takes one argument: exp(rate)")
        return exponential(args[0])
    if name == "pareto":
        if len(args) != 2:
            raise ValueError("pareto takes two arguments: pareto(scale,shape)")
        return pareto(*args)
    if name == "twopiece":
        if args:
            raise ValueError("twopiece takes no arguments")
        return two_piece()
    raise ValueError(f"unknown distribution family {name!r}")


# ---------------------------------------------------------------------------
# valuation profiles


@dataclass(frozen=True, eq=False)
class ValuationProfile:
    """A vector of reported values, kept in submission order."""

    values: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("profile must be one-dimensional")
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise ValueError("profile values must be finite and nonnegative")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def sorted(self) -> np.ndarray:
        """Values in descending order."""
        return np.sort(self.values)[::-1]

    @cached_property
    def gaps(self) -> np.ndarray:
        """d_i = v_(i) - v_(i+1) over the descending order, with v_(n+1) = 0."""
        s = self.sorted
        return np.diff(np.concatenate((s, [0.0]))) * -1.0

    def nth_highest(self, rank: int) -> float:
        """v_(rank) with rank 1-based; ranks beyond n return 0."""
        if rank < 1:
            raise ValueError("rank is 1-based")
        return float(self.sorted[rank - 1]) if rank <= self.n else 0.0


def as_profile(profile) -> ValuationProfile:
    if isinstance(profile, ValuationProfile):
        return profile
    return ValuationProfile(np.asarray(profile, dtype=float))


def sample_profile(d: ValueDistribution, n: int, rng) -> ValuationProfile:
    """Draw n independent values from d via inverse transform.

    rng may be a numpy Generator or an integer seed. Equal seeds give equal
    profiles.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    if not isinstance(rng, np.random.Generator):
        rng = substream(int(rng), "sample_profile")
    u = rng.random(n)
    return ValuationProfile(np.asarray(d.quantile(u), dtype=float))


def load_profile(path) -> ValuationProfile:
    """Read a profile file: one decimal value per line, blank lines ignored."""
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(float(line))
    return ValuationProfile(np.array(values, dtype=float))
