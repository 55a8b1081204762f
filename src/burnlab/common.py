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

# cells per block of the row-wise Monte Carlo, RSOL's exact pass and every
# audit interim (the tiled rows too: one call tabulates every agent's identity
# rule): each float temporary is then 64 KiB, under glibc's default mmap
# threshold (128 KiB), so it reuses freed heap memory and stays in cache
_PASS_CELLS = 1 << 13

# values per chunk of mc_eval's streamed summary (256 KiB of floats); fixed,
# so that a summary does not depend on the blocks its input comes in
_CHUNK = 1 << 15


def substream(seed: int, *keys) -> np.random.Generator:
    """Deterministic child generator for (seed, keys).

    String keys are hashed with crc32 so stream identities survive across runs
    and platforms. Integer keys pass through unchanged.
    """
    parts = [int(seed)]
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
    from d. The result is a lazy iterator of body's output on each block,
    never joined: mc_eval takes an iterator of 1-D outputs as it is, and a
    caller that needs whole arrays concatenates them itself. Callers check
    reps and n with check_draws first.

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


def _chunks(blocks):
    """The values of blocks, in order, cut into consecutive chunks of
    _CHUNK values, the last one shorter; a chunk inside one block is a view
    of it."""
    pending, count = [], 0
    for block in blocks:
        block = np.asarray(block, dtype=float).ravel()
        while count + block.size >= _CHUNK:
            cut = _CHUNK - count
            pending.append(block[:cut])
            block = block[cut:]
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending, count = [], 0
        pending.append(block)
        count += block.size
    if count:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def mc_eval(samples, seed: int | None) -> MechanismEval:
    """Summarize per-replicate values into a Monte Carlo MechanismEval.

    samples is an array, or an iterable of 1-D blocks in draw order (such
    as mc_blocks' outputs), which is read once and never joined. Its values
    are cut into consecutive chunks of _CHUNK = 2^15, whatever the blocks'
    sizes. Each chunk's mean and sum of squared deviations are numpy's
    two-pass ones, and the chunks are merged by the pairwise update of
    Chan, Golub and LeVeque (1983). So a summary of at most 2^15 values is
    numpy's mean() and std(ddof=1) bit for bit, and blocks give the summary
    of their joined array bit for bit. A +inf, -inf or NaN sample gives
    numpy's mean and a NaN interval, as numpy does.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for chunk in _chunks([samples] if isinstance(samples, np.ndarray) else samples):
        size, c_mean = chunk.size, float(chunk.mean())
        dev = chunk - c_mean
        c_m2 = float(np.multiply(dev, dev, out=dev).sum())
        if not count:
            count, mean, m2 = size, c_mean, c_m2
            continue
        total = count + size
        delta = c_mean - mean
        # an infinite chunk mean makes delta infinite or NaN: take the sum
        # of the means, whose inf or NaN is numpy's
        mean = mean + delta * size / total if math.isfinite(delta) else mean + c_mean
        m2 += c_m2 + delta * delta * count * size / total
        count = total
    if count < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {count}")
    se = math.sqrt(m2 / (count - 1)) / math.sqrt(count)
    return MechanismEval(mean, Z99 * se, "mc", count, seed)
