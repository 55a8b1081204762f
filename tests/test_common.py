"""mc_eval, the one Monte Carlo summary: numpy's mean and std(ddof=1) bit for
bit at every size, the same summary whatever blocks the values come in, and
numpy's mean and interval on non-finite samples."""

import numpy as np
import pytest

from burnlab.common import Z99, MechanismEval, mc_eval

# a size around which the tests cut: 2^15 values, 256 KiB of floats
CHUNK = 1 << 15


def samples(kind, n, seed=0):
    rng = np.random.default_rng([seed, n])
    if kind == "exp(1)":
        return rng.exponential(1.0, n)
    if kind == "pareto(1,1.5)":
        return 1.0 + rng.pareto(1.5, n)
    if kind == "1e8+U(0,1)":
        # the mean is 3.5e8 standard deviations from 0
        return 1e8 + rng.random(n)
    # the mean's square overflows, the deviations' squares do not
    return 1e155 * (1.0 + 1e-4 * rng.random(n))


KINDS = ("exp(1)", "pareto(1,1.5)", "1e8+U(0,1)", "1e155*(1+U(0,1e-4))")


def numpy_eval(x, seed=None):
    # numpy's one-array summary
    se = float(x.std(ddof=1)) / float(np.sqrt(x.size))
    return MechanismEval(float(x.mean()), Z99 * se, "mc", x.size, seed)


def cut(x, rng, pieces):
    # x in blocks at random cuts: empty blocks, one-value blocks and blocks
    # across chunk boundaries all occur
    return np.split(x, np.sort(rng.integers(0, x.size + 1, pieces)))


@pytest.mark.parametrize("kind", KINDS)
def test_one_chunk_is_numpy(kind):
    # every prior-mc summary (30,000 draws) and RSOL's default 10^4 is
    # numpy's own, whole or in blocks
    rng = np.random.default_rng(1)
    for n in (30, 31, 9001, CHUNK - 1, CHUNK):
        x = samples(kind, n)
        ref = numpy_eval(x, 3)
        assert mc_eval(x, 3) == ref, (kind, n)
        assert mc_eval(cut(x, rng, 17), 3) == ref, (kind, n)
        assert mc_eval(iter(cut(x, rng, 3)), 3) == ref, (kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_many_chunks_within_bound(kind):
    # above 2^15 values too: A9's 10^5 reps and a large RSOL reps
    for n in (CHUNK + 1, 3 * CHUNK + 7, 10 ** 6):
        x = samples(kind, n)
        assert mc_eval(x, None) == numpy_eval(x), (kind, n)


def test_blocks_are_bitwise():
    # blocks of any sizes, generated or listed, give the joined array's
    # summary bit for bit, on either side of 2^15 values
    rng = np.random.default_rng(2)
    for n in (9001, CHUNK, CHUNK + 1, 3 * CHUNK - 1, 100_003):
        x = samples("exp(1)", n)
        whole = mc_eval(x, 0)
        for pieces in (0, 1, 40, 600):
            assert mc_eval(iter(cut(x, rng, pieces)), 0) == whole, (n, pieces)
        rows = list(x.reshape(-1, 1)) if n < 10 ** 4 else np.array_split(x, n // 7)
        assert mc_eval(rows, 0) == whole, n


def same(a: MechanismEval, b: MechanismEval) -> bool:
    # equal, NaN equal to NaN
    return all(np.array_equal(x, y, equal_nan=True)
               for x, y in [(a.mean, b.mean), (a.ci, b.ci),
                            (a.replicates, b.replicates)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_samples_are_numpy():
    # +inf in the first chunk gives +inf (a naive merge subtracts it from
    # itself and gives NaN), as does +inf in the last; NaN gives NaN, and
    # +inf with -inf gives NaN. The interval is NaN in each case
    for n in (9001, 3 * CHUNK + 5, 10 ** 6):
        for plant in ([(0, np.inf)], [(n - 1, np.inf)], [(n // 2, np.nan)],
                      [(0, -np.inf)], [(1, np.inf), (n - 2, -np.inf)]):
            x = samples("exp(1)", n)
            for i, v in plant:
                x[i] = v
            got, ref = mc_eval(x, 0), numpy_eval(x, 0)
            assert same(got, ref), (n, plant, got, ref)
            assert np.isnan(got.ci_halfwidth)
            assert same(mc_eval(iter(np.array_split(x, 7)), 0), ref)


def test_too_few_samples_keep_the_message():
    for blocks, size in [(np.ones(29), 29), (np.ones(0), 0), (iter([]), 0),
                         ([np.ones(20), np.ones(9)], 29), (iter([np.ones(1)]), 1)]:
        with pytest.raises(ValueError,
                           match=f"^need at least 30 replicates, got {size}$"):
            mc_eval(blocks, 0)
    assert mc_eval(np.ones(30), 0).replicates == 30
