import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.common import substream
from burnlab.distributions import (SupportError, ValuationProfile,
                                   ValueDistribution, as_profile,
                                   distribution_from_spec, exponential,
                                   hazard_classification, load_profile, pareto,
                                   piecewise_inverse_hazard, sample_profile,
                                   two_piece, uniform, virtual_value_payment,
                                   virtual_value_utility)

ALL_DISTS = [uniform(0.0, 1.0), exponential(1.0), pareto(1.0, 2.0), two_piece()]


def test_virtual_utility_uniform():
    d = uniform(0.0, 1.0)
    assert virtual_value_utility(d, 0.25) == pytest.approx(0.75)
    assert virtual_value_utility(d, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)


def test_virtual_utility_exponential_constant():
    d = exponential(1.0)
    v = np.array([0.1, 1.0, 5.0])
    np.testing.assert_allclose(virtual_value_utility(d, v), 1.0)


def test_virtual_payment_oracles():
    assert virtual_value_payment(uniform(0.0, 1.0), 0.5) == pytest.approx(0.0)
    assert virtual_value_payment(exponential(1.0), 1.0) == pytest.approx(0.0)


def test_virtual_outside_support_raises():
    with pytest.raises(SupportError):
        virtual_value_utility(uniform(0.0, 1.0), 1.5)
    with pytest.raises(SupportError):
        virtual_value_payment(pareto(1.0, 2.0), 0.5)


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.name)
@given(q=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=50, deadline=None)
def test_sum_of_virtuals_is_value(d, q):
    v = float(d.quantile(q))
    total = virtual_value_payment(d, v) + virtual_value_utility(d, v)
    assert total == pytest.approx(v, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.name)
def test_quantile_cdf_roundtrip(d):
    q = np.linspace(1e-6, 1.0 - 1e-6, 201)
    np.testing.assert_allclose(d.cdf(d.quantile(q)), q, atol=1e-9)


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.name)
def test_pdf_matches_cdf_derivative(d):
    lo, hi = d.support
    span = min(hi, lo + 10.0) - lo
    v = lo + span * np.linspace(0.05, 0.95, 41)
    h = 1e-6 * max(1.0, span)
    numeric = (d.cdf(v + h) - d.cdf(v - h)) / (2.0 * h)
    np.testing.assert_allclose(d.pdf(v), numeric, rtol=1e-3, atol=1e-6)


def test_two_piece_mean():
    d = two_piece()
    q = (np.arange(200_000) + 0.5) / 200_000
    assert float(np.mean(d.quantile(q))) == pytest.approx(d.mean, abs=1e-3)
    assert d.mean == pytest.approx(0.625)


def test_classification():
    assert hazard_classification(uniform(0.0, 1.0)) == "MHR"
    assert hazard_classification(exponential(1.0)) == "MHR"
    assert hazard_classification(pareto(1.0, 2.0)) == "antiMHR"
    assert hazard_classification(two_piece()) == "nonMHR"


def rescaled(d, c):
    """d with every value multiplied by c, so theta is multiplied by c too."""
    lo, hi = d.support
    return ValueDistribution(
        f"{d.name}*{c:g}", (lo * c, hi * c),
        lambda v: d.cdf(np.asarray(v, float) / c),
        lambda v: d.pdf(np.asarray(v, float) / c) / c,
        lambda q: c * np.asarray(d.quantile(q), float), d.mean * c)


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1.0, 1e10, 1e12])
@pytest.mark.parametrize("make, expected", [
    (lambda c: uniform(0.0, c), "MHR"),
    (lambda c: exponential(1.0 / c), "MHR"),
    (lambda c: pareto(c, 2.0), "antiMHR"),
    (lambda c: rescaled(two_piece(), c), "nonMHR"),
    # the bridge_dist fixture's prior, breakpoints and thetas times c
    (lambda c: piecewise_inverse_hazard(c * np.array([0.0, 1.0, 1.5, 2.0]),
                                        c * np.array([1.0, 3.0, 1.2, 4.0])),
     "nonMHR"),
], ids=["uniform", "exp", "pareto", "twopiece", "bridge"])
def test_classification_invariant_under_rescaling(make, expected, scale):
    assert hazard_classification(make(scale)) == expected


def test_classification_grid_floor():
    with pytest.raises(ValueError):
        hazard_classification(uniform(0.0, 1.0), grid=8)


def test_piecewise_inverse_hazard_theta():
    d = piecewise_inverse_hazard([0.0, 1.0, 2.0], [1.0, 2.0, 0.5])
    assert virtual_value_utility(d, 0.5) == pytest.approx(1.0)
    assert virtual_value_utility(d, 1.5) == pytest.approx(2.0)
    assert virtual_value_utility(d, 3.0) == pytest.approx(0.5)
    q = np.linspace(1e-9, 1.0 - 1e-9, 101)
    np.testing.assert_allclose(d.cdf(d.quantile(q)), q, atol=1e-9)


def test_sampling_determinism_and_mean():
    d = uniform(0.0, 1.0)
    a = sample_profile(d, 1000, 7)
    b = sample_profile(d, 1000, 7)
    np.testing.assert_array_equal(a.values, b.values)
    big = sample_profile(d, 100_000, 1)
    assert float(big.values.mean()) == pytest.approx(0.5, abs=0.005)
    exp_big = sample_profile(exponential(1.0), 100_000, 2)
    assert float(exp_big.values.mean()) == pytest.approx(1.0, abs=0.01)


def test_sample_accepts_generator():
    rng = substream(3, "x")
    prof = sample_profile(exponential(1.0), 50, rng)
    assert prof.n == 50
    assert np.all(prof.values >= 0.0)


def test_spec_parsing():
    assert distribution_from_spec("uniform(0,1)").name == "uniform(0,1)"
    assert distribution_from_spec("exp(1)").mean == pytest.approx(1.0)
    assert distribution_from_spec("exponential(2)").mean == pytest.approx(0.5)
    assert distribution_from_spec("pareto(1,2)").support[0] == pytest.approx(1.0)
    assert distribution_from_spec("twopiece()").mean == pytest.approx(0.625)
    for bad in ("gamma(1)", "uniform(1)", "pareto(1,1)", "exp", ""):
        with pytest.raises(ValueError):
            distribution_from_spec(bad)


def test_profile_ordering_and_gaps():
    prof = ValuationProfile([1.0, 3.0, 2.0])
    np.testing.assert_array_equal(prof.sorted, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(prof.gaps, [1.0, 1.0, 1.0])
    assert prof.nth_highest(1) == 3.0
    assert prof.nth_highest(4) == 0.0
    with pytest.raises(ValueError):
        prof.nth_highest(0)


def test_profile_validation():
    with pytest.raises(ValueError):
        ValuationProfile([1.0, -0.5])
    with pytest.raises(ValueError):
        ValuationProfile([[1.0]])
    with pytest.raises(ValueError):
        ValuationProfile([np.nan])
    empty = ValuationProfile([])
    assert empty.n == 0


def test_as_profile_passthrough():
    prof = ValuationProfile([2.0])
    assert as_profile(prof) is prof
    assert as_profile([1.0, 2.0]).n == 2


def test_load_profile(tmp_path):
    path = tmp_path / "prof.txt"
    path.write_text("3.0\n\n1.5\n\n\n0.25\n")
    prof = load_profile(path)
    np.testing.assert_array_equal(prof.values, [3.0, 1.5, 0.25])
