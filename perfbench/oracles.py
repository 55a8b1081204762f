"""Reference values for the exact outputs the benchmark checks.

Written from the definitions with plain Python loops and sharing no code with
burnlab, so that a fast but wrong kernel in the package cannot also move the
reference it is compared against.
"""

from __future__ import annotations

# Largest accepted difference between a package value and its reference,
# relative to max(1, |reference|).
TOL = 1e-12


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOL * max(1.0, abs(reference))


def two_price_value(values, k: int, p: float, q: float) -> float:
    """Residual surplus of the k-unit two-price lottery at prices q <= p.

    When the s agents above p fit in the k units but the t agents in (q, p]
    do not all fit, a top agent's payment follows from the payment identity:
    bidding in (q, p] it would join the band and win with probability
    (k - s + 1) / (t + 1), so its utility is (v - p) + (p - q)(k - s + 1)/(t + 1).
    """
    top = [v for v in values if v > p]
    band = [v for v in values if q < v <= p]
    s, t = len(top), len(band)
    if s > k:
        return k / s * sum(v - p for v in top)
    if s + t <= k:
        return sum(v - q for v in top + band)
    top_utility = sum(v - p for v in top) + s * (p - q) * (k - s + 1) / (t + 1)
    return top_utility + (k - s) / t * sum(v - q for v in band)


def two_price_benchmark(values, k: int) -> float:
    """Best two-price lottery value over the candidate prices {0} and the values."""
    cands = sorted({0.0, *values})
    return max(two_price_value(values, k, p, q)
               for i, p in enumerate(cands) for q in cands[:i + 1])


def strict_lottery(values, k: int, price: float) -> float:
    """k units shared uniformly among the agents strictly above price, who pay it."""
    elig = [v for v in values if v > price]
    if not elig:
        return 0.0
    return min(k, len(elig)) / len(elig) * sum(v - price for v in elig)


def learned_price(values, k: int) -> float:
    """Strict-lottery price that is best on values; the smallest one on ties."""
    best_value, best_price = -1.0, 0.0
    for price in sorted({0.0, *values}):
        value = strict_lottery(values, k, price)
        if value > best_value:
            best_value, best_price = value, price
    return best_price


def vickrey_value(values, k: int) -> float:
    """Residual surplus of k-unit Vickrey: top k values minus k times the k+1-st."""
    desc = sorted(values, reverse=True)
    price = desc[k] if len(desc) > k else 0.0
    return sum(desc[:k]) - min(k, len(desc)) * price


def rsol_value(values, k: int) -> float:
    """Exact RSOL value: every halving equally likely, then a fair coin between
    the strict lottery at the price learned on the other half and Vickrey."""
    n = len(values)
    total = 0.0
    for mask in range(1 << n):
        serve = [v for i, v in enumerate(values) if mask >> i & 1]
        sample = [v for i, v in enumerate(values) if not mask >> i & 1]
        price = learned_price(sample, k)
        total += 0.5 * strict_lottery(serve, k, price) + 0.5 * vickrey_value(serve, k)
    return total / (1 << n)
