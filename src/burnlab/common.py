"""Shared helpers: seeded substreams, confidence conventions, evaluation records."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

VERSION = "0.1.0"

# 99% two-sided normal quantile used for every Monte Carlo interval in the package.
Z99 = 2.58

# Minimum replicate count for any Monte Carlo estimate.
MIN_REPLICATES = 30

# cells per block of the row-wise Monte Carlo, RSOL's exact pass, the
# two-price sweep and every audit interim (one call tabulates every agent's
# identity rule): each float temporary is then 64 KiB, under glibc's default
# mmap threshold (128 KiB), so it reuses freed heap memory and stays in cache.
# RSOL's exact pass keeps its state in a block of two fields, and two more per
# unit count, of this size, allocated once per call: state, not temporaries
_PASS_CELLS = 1 << 13


def substream(seed: int, *keys) -> np.random.Generator:
    """Deterministic child generator for (seed, keys).

    String keys are hashed with crc32 so stream identities survive across runs
    and platforms. Integer keys pass through unchanged. The seed must be at
    least 0.
    """
    parts = [int(seed)]
    if parts[0] < 0:
        raise ValueError(f"seed: need at least 0, got {seed}")
    for k in keys:
        if isinstance(k, str):
            parts.append(zlib.crc32(k.encode("utf-8")))
        else:
            parts.append(int(k))
    return np.random.default_rng(parts)


@dataclass(frozen=True)
class MechanismEval:
    """Expected residual surplus with interval and provenance.

    mode is "exact" (ci_halfwidth 0) or "mc" (99% normal interval).
    replicates records the enumeration or sample size that produced the mean.
    """

    mean: float
    ci_halfwidth: float
    mode: str
    replicates: int
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact" and self.ci_halfwidth != 0.0:
            raise ValueError("exact mode must report a zero interval")

    @property
    def ci(self) -> tuple[float, float]:
        return (self.mean - self.ci_halfwidth, self.mean + self.ci_halfwidth)


def check_draws(reps: int, n: int) -> None:
    """Reject, each with a one-line ValueError, fewer than MIN_REPLICATES
    replicates or profiles of no agents."""
    if reps < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {reps}")
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")


def quantile_draw(d, rng):
    """The draw of mc_blocks for values i.i.d. from d: a block of the given
    shape is the quantiles under d of rng.random(shape), as floats."""
    return lambda shape: np.asarray(d.quantile(rng.random(shape)), dtype=float)


def mc_blocks(draw, reps: int, n: int, body):
    """Outputs of body on reps rows of n draws, block by block, in draw order.

    draw(shape) returns a block's (rows, n) array; it holds a generator and
    draws from it in order, as quantile_draw(d, rng) does for i.i.d. values
    from d. The result is a lazy iterator of body's output on each block:
    mc_eval joins 1-D outputs, and a caller that needs other whole arrays
    concatenates them. Callers check reps and n with check_draws first.

    A block holds at most _PASS_CELLS = 2^13 cells (one row when n alone is
    more), so its float temporaries are 64 KiB: under glibc's default mmap
    threshold of 128 KiB they reuse freed heap memory and stay in cache,
    where (reps, n) arrays of a megabyte or more are mapped afresh and
    page-faulted in on every call. numpy's generators draw a block as the
    next rows of the one draw of shape (reps, n), and rows are independent,
    so the outputs, joined, are those of body on all reps rows at once, bit
    for bit.
    """
    rows = max(1, _PASS_CELLS // n)
    return (body(draw((min(rows, reps - r), n))) for r in range(0, reps, rows))


def mc_eval(samples, seed: int | None) -> MechanismEval:
    """Summarize per-replicate values into a Monte Carlo MechanismEval.

    samples is an array, or an iterable of 1-D blocks in draw order (such
    as mc_blocks' outputs), which is joined once. The mean and interval are
    numpy's mean() and std(ddof=1) of the joined values, bit for bit: the
    same two passes, without std's second mean. So blocks give the summary
    of their joined array bit for bit. A +inf, -inf or NaN sample gives
    numpy's mean and a NaN interval.
    """
    if not isinstance(samples, np.ndarray):
        samples = np.concatenate([np.empty(0), *map(np.ravel, samples)])
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {x.size}")
    mean = float(x.mean())
    dev = x - mean
    var = float(np.multiply(dev, dev, out=dev).sum()) / (x.size - 1)
    se = math.sqrt(var) / math.sqrt(x.size)
    return MechanismEval(mean, Z99 * se, "mc", x.size, seed)
