import math

import numpy as np
import pytest
from test_audit import refusal

from burnlab.common import substream
from burnlab.distributions import (SupportError, ValuationProfile, as_profile,
                                   distribution_from_spec, exponential,
                                   load_profile, pareto,
                                   piecewise_inverse_hazard, sample_profile,
                                   two_piece, uniform, virtual_value_utility)

ALL_DISTS = [uniform(0.0, 1.0), exponential(1.0), pareto(1.0, 2.0), two_piece()]


def test_virtual_utility_uniform():
    d = uniform(0.0, 1.0)
    assert virtual_value_utility(d, 0.25) == pytest.approx(0.75)
    assert virtual_value_utility(d, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)


def test_virtual_utility_exponential_constant():
    d = exponential(1.0)
    v = np.array([0.1, 1.0, 5.0])
    np.testing.assert_allclose(virtual_value_utility(d, v), 1.0)


def test_virtual_outside_support_raises():
    with pytest.raises(SupportError):
        virtual_value_utility(uniform(0.0, 1.0), 1.5)
    with pytest.raises(SupportError):
        virtual_value_utility(pareto(1.0, 2.0), 0.5)


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


def test_stock_priors_reject_bad_parameters():
    # each once built a prior that failed only when used, or returned
    # numbers for an infinite, NaN or overflowing parameter
    cases = [
        (lambda: uniform(0.0, math.inf), "uniform(0,inf): need a finite mean, got inf"),
        (lambda: exponential(math.nan), "rate must be positive and finite"),
        (lambda: exponential(math.inf), "rate must be positive and finite"),
        (lambda: exponential(1e-320), "need a finite mean, got inf"),
        (lambda: pareto(math.nan, 2.0), "need a finite mean, got nan"),
        (lambda: pareto(math.inf, 2.0), "need a finite mean, got inf"),
        (lambda: pareto(1.0, math.nan), "need a finite mean, got nan"),
        (lambda: pareto(1.0, math.inf), "need a finite mean, got nan"),
        (lambda: pareto(1e308, 2.0), "need a finite mean, got inf"),
        (lambda: piecewise_inverse_hazard([0.0, math.nan], [1.0, 2.0]), "finite"),
        (lambda: piecewise_inverse_hazard([0.0, math.inf], [1.0, 2.0]), "finite"),
        (lambda: piecewise_inverse_hazard([0.0, 1.0], [math.inf, 2.0]), "finite"),
        (lambda: piecewise_inverse_hazard([0.0, 1.0], [1.0, math.nan]), "finite"),
        (lambda: piecewise_inverse_hazard([-1.0, 0.0], [1.0, 2.0]),
         "breaks[0] must be nonnegative"),
    ]
    for make, message in cases:
        assert message in refusal(make), message


def test_profile_ordering_and_gaps():
    prof = ValuationProfile([1.0, 3.0, 2.0])
    np.testing.assert_array_equal(prof.sorted, [3.0, 2.0, 1.0])


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
    path.write_text("3.0\n\nthree\n")
    with pytest.raises(ValueError,
                       match="^line 3: expected a number, got 'three'$"):
        load_profile(path)
