"""RSOL's exact pass pinned bit for bit, and held to exact oracles.

GOLDEN holds float.hex of mechanisms._rsol_exact, computed by the pass that
takes a run of c equal values as c Pascal steps, c + 1 blocks of states
weighted C(c, m), and a row of distinct values as one doubling per agent,
Vickrey's half added once per row as a closed form. It was re-pinned when
runs of equal values became Pascal steps: the 18 values of rows with
distinct values kept their bits, and 17 of the 63 values of tied rows moved
by one or two ulps from the doubling pass at d80fabc. The inputs: the
rsol-ratio corpus at n = 4, 8 and 16 with k = 1, 2 and 4, and seeded rows
with ties, zeros and subnormals at n = 13 to 18. Each input is checked as
one block of rows and row by row, and each V at all its k in one pass.

rsol_fraction enumerates every halving in exact rationals. Its profiles are
dyadic, in eighths: on tenths the learned price's tie between two candidate
prices is decided in float, and a rational oracle may take the other price.
Beyond its reach, spike-n and equal-n have closed forms up to 20 agents.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from burnlab.common import substream
from burnlab.mechanisms import _rsol_exact
from burnlab.simlab import experiment_rsol_ratio, worst_case_corpus

GOLDEN = {
    "corpus-4-k1": [
        "0x1.b300000000000p-3", "0x1.3000000000000p-1", "0x1.0000000000000p-1",
        "0x1.e453309b31d3ap-2", "0x1.7c00000000000p-2"],
    "corpus-4-k2": [
        "0x1.8300000000000p-2", "0x1.5000000000000p+0", "0x1.0000000000000p-1",
        "0x1.da5c701c8575bp-1", "0x1.0f33333333334p-1"],
    "corpus-4-k4": [
        "0x1.e000000000000p-2", "0x1.0000000000000p+1", "0x1.0000000000000p-1",
        "0x1.39621a392141ep+0", "0x1.4cccccccccccep-1"],
    "corpus-8-k1": [
        "0x1.7c0ef77777777p-3", "0x1.0700000000000p-1", "0x1.0000000000000p-1",
        "0x1.5a1429eec3674p-2", "0x1.0513333333333p-1"],
    "corpus-8-k2": [
        "0x1.45eba22222222p-2", "0x1.1b00000000000p+0", "0x1.0000000000000p-1",
        "0x1.85c4ed56e99b0p-1", "0x1.98c0000000000p-1"],
    "corpus-8-k4": [
        "0x1.ce47000000000p-2", "0x1.5d00000000000p+1", "0x1.0000000000000p-1",
        "0x1.99375265de472p+0", "0x1.1aa6666666666p+0"],
    "corpus-16-k1": [
        "0x1.7a72a2115b484p-3", "0x1.000f000000000p-1", "0x1.0000000000000p-1",
        "0x1.4ac3db8c58454p-2", "0x1.0ab83d9f7390dp-1"],
    "corpus-16-k2": [
        "0x1.42a121e600440p-2", "0x1.0077000000000p+0", "0x1.0000000000000p-1",
        "0x1.5d1999ce46c32p-1", "0x1.2774e5d9f7391p+0"],
    "corpus-16-k4": [
        "0x1.aa7758e580000p-2", "0x1.082b000000000p+1", "0x1.0000000000000p-1",
        "0x1.8e9ab18693907p+0", "0x1.a64db7390d2a7p+0"],
    "seeded-13-k1": [
        "0x1.5a7445549fc30p-2", "0x1.80fb150e682c6p-2", "0x0.0000000000001p-1022"],
    "seeded-13-k3": [
        "0x1.6c12931569315p+0", "0x1.3e9e4129e412bp+0", "0x0.0000000000002p-1022"],
    "seeded-14-k1": [
        "0x1.7c5fc1f07c1f0p-2", "0x1.8c4fd13046379p-2", "0x0.0000000000001p-1022"],
    "seeded-14-k3": [
        "0x1.78af6b0df6b0ep+0", "0x1.8291eb851eb85p+0", "0x0.0000000000002p-1022"],
    "seeded-15-k1": [
        "0x1.89e05838b6beap-2", "0x1.67c39f434354dp-2", "0x0.0000000000001p-1022"],
    "seeded-15-k3": [
        "0x1.630f237237237p+0", "0x1.68492b52b52b5p+0", "0x0.0000000000002p-1022"],
    "seeded-16-k1": [
        "0x1.71897f97f97f9p-2", "0x1.3e731dec0d4c8p-2", "0x0.0000000000001p-1022"],
    "seeded-16-k3": [
        "0x1.34fb333333334p+0", "0x1.28524cccccccdp+0", "0x0.0000000000002p-1022"],
    "seeded-17-k1": [
        "0x1.6349795ba858cp-2", "0x1.3f11be09d74e5p-2", "0x0.0000000000001p-1022"],
    "seeded-17-k3": [
        "0x1.47b3e2be2be2cp+0", "0x1.394d39a9342cep+0", "0x0.0000000000002p-1022"],
    "seeded-18-k1": [
        "0x1.3b501c502b692p-2", "0x1.33bf5f1888ab5p-2", "0x0.0000000000001p-1022"],
    "seeded-18-k3": [
        "0x1.31c01b9c86953p+0", "0x1.206685ea42078p+0", "0x0.0000000000002p-1022"],
}

CORPUS = worst_case_corpus(0, sizes=(4, 8, 16))


def corpus_rows(n):
    return np.array([prof.values for _, prof in CORPUS if prof.n == n])


def seeded_rows(n):
    # fifths from 0 to 1: ties and zeros; then one subnormal value, and a
    # row of subnormals and zeros whose value is itself subnormal
    V = substream(29, "rsol-golden", n).integers(0, 6, (3, n)) / 5
    V[1, n // 2] = 5e-324
    V[2] = np.where(V[2] > 0.5, 5e-324, 0.0)
    V[2, 0] = 1e-323
    return V


CASES = ([(f"corpus-{n}-k{k}", corpus_rows, n, k)
          for n in (4, 8, 16) for k in (1, 2, 4)]
         + [(f"seeded-{n}-k{k}", seeded_rows, n, k)
            for n in range(13, 19) for k in (1, 3)])


@pytest.mark.parametrize("key, rows, n, k", CASES, ids=[c[0] for c in CASES])
def test_rsol_exact_golden(key, rows, n, k):
    V = rows(n)
    assert [x.hex() for x in _rsol_exact(V, k).tolist()] == GOLDEN[key]
    assert [_rsol_exact(V[r:r + 1], k)[0].hex() for r in range(len(V))] == GOLDEN[key]


# each golden V's counts, asked of one pass together
BLOCKS = {}
for key, rows, n, k in CASES:
    BLOCKS.setdefault(key.rsplit("-k", 1)[0], (rows, n, []))[2].append((key, k))


@pytest.mark.parametrize("name", BLOCKS)
def test_rsol_exact_golden_every_k_in_one_pass(name):
    rows, n, keys = BLOCKS[name]
    got = _rsol_exact(rows(n), tuple(k for _, k in keys))
    for c, (key, _) in enumerate(keys):
        assert [x.hex() for x in got[:, c].tolist()] == GOLDEN[key]


def test_rsol_ratio_rows_golden():
    rows = experiment_rsol_ratio(CORPUS, (1, 2, 4))
    got = {}
    for row in rows:
        got.setdefault(f"corpus-{row['n']}-k{row['k']}", []).append(row["rsol"].hex())
    assert got == {key: GOLDEN[key] for key in got} and len(got) == 9


def rsol_fraction(values, k):
    # every halving equally likely, a fair coin between the strict lottery at
    # the smallest best price learned on the pool (0 or a pool value) and
    # Vickrey, both on the serving half, in exact rationals
    values = [Fraction(v) for v in values]
    total = Fraction(0)
    for mask in range(1 << len(values)):
        serve = sorted((v for i, v in enumerate(values) if mask >> i & 1), reverse=True)
        pool = [v for i, v in enumerate(values) if not mask >> i & 1]
        best = price = None
        for c in sorted({Fraction(0), *pool}):
            above = [v - c for v in pool if v > c]
            value = Fraction(min(k, len(above)), len(above)) * sum(above) if above else 0
            if best is None or value > best:
                best, price = value, c
        gains = [v - price for v in serve if v > price]
        if gains:
            total += Fraction(min(k, len(gains)), len(gains)) * sum(gains)
        tau = serve[k] if len(serve) > k else 0
        total += sum(serve[:k]) - min(k, len(serve)) * tau
    return total / (2 << len(values))


def test_rsol_exact_matches_fraction_oracle():
    # 80 seeded profiles of eighths in [0, 2], n <= 9 and k <= 4, 20 more
    # that end in a run of zeros, where no price-0 offer is made at the
    # leaves, and the zero profile: within 4e-16 relative, and 0 where the
    # value is 0. Over 900 such profiles, a third of them ending in zeros,
    # the pass erred by at most 1.78e-16, and the doubling pass before it by
    # at most 1.56e-16
    rng = substream(31, "rsol-fraction")
    cases = [(rng.integers(0, 17, int(rng.integers(1, 10))) / 8, int(rng.integers(1, 5)))
             for _ in range(80)]
    for _ in range(20):
        zeros = int(rng.integers(2, 6))
        V = np.concatenate((rng.integers(1, 17, int(rng.integers(1, 10 - zeros))) / 8,
                            np.zeros(zeros)))
        cases.append((V, int(rng.integers(1, 5))))
    for V, k in cases + [(np.zeros(3), 2)]:
        ref, got = rsol_fraction(V.tolist(), k), _rsol_exact(V[None, :], k)[0]
        assert got == 0.0 if ref == 0 else abs(Fraction(got) - ref) <= 4e-16 * ref, (V, k)


def test_rsol_exact_closed_forms():
    # S ~ Bin(n, 1/2) agents serve. spike-n, (1, 0, ..., 0), is worth
    # exactly 1/2: the top agent serves half the time, then wins at price 0
    # in either branch. On equal-n at v every price learned is 0, so the
    # lottery gives v * min(k, S) and Vickrey v * S when S <= k, else 0.
    # Both hold to the bit at dyadic v for n = 1 to 20 and k = 1 to n + 1
    for n in range(1, 21):
        weights = [Fraction(comb(n, s), 2 << n) for s in range(n + 1)]
        spike = np.zeros((1, n))
        spike[0, 0] = 1.0
        for k in range(1, n + 2):
            assert _rsol_exact(spike, k)[0] == 0.5, (n, k)
            equal = sum(w * (min(k, s) + (s if s <= k else 0)) for s, w in enumerate(weights))
            for v in (1.0, 0.375, 2.5):
                ref = float(Fraction(v) * equal)
                assert _rsol_exact(np.full((1, n), v), k)[0] == ref, (n, k, v)
