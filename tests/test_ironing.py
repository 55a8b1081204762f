import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnlab.distributions import (exponential, two_piece, uniform,
                                   virtual_value_utility)
from burnlab.ironing import (DEFAULT_GRID, iron, ironed_value,
                             lower_convex_hull)


def test_uniform_constant(iv_uniform):
    assert float(np.max(np.abs(iv_uniform.phibar - 0.5))) <= 1e-3


def test_exponential_constant(iv_exp):
    assert float(np.max(np.abs(iv_exp.phibar - 1.0))) <= 1e-3


def test_pareto_no_ironing(iv_pareto):
    assert iv_pareto.intervals == ()
    # theta(v) = v/2 is already monotone, so the hull tracks H and the
    # ironed value matches the raw virtual value away from the grid tails
    v = np.linspace(1.1, 5.0, 50)
    theta = virtual_value_utility(iv_pareto.dist, v)
    np.testing.assert_allclose(iv_pareto.value(v), theta, rtol=2e-3)


def test_uniform_single_full_interval(iv_uniform):
    assert len(iv_uniform.intervals) == 1
    itv = iv_uniform.intervals[0]
    assert itv.at_bottom and itv.at_top
    assert itv.level == pytest.approx(0.5, abs=1e-3)


def test_exponential_degenerate_no_interval(iv_exp):
    # constant theta makes H exactly linear: there is no hull gap to bridge,
    # so no interval is reported even though the whole support is one level
    assert iv_exp.intervals == ()


def test_two_piece_tangency(iv_twopiece):
    # closed form: hull leaves H at q* = 7/16 (v = 1/3) and stays straight
    # to the top of the support with slope 2/3
    assert len(iv_twopiece.intervals) == 1
    itv = iv_twopiece.intervals[0]
    assert not itv.at_bottom and itv.at_top
    assert itv.q_lo == pytest.approx(7.0 / 16.0, abs=2e-3)
    assert itv.v_lo == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert itv.v_hi == pytest.approx(2.0, abs=1e-6)
    assert itv.level == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert iv_twopiece.value(0.1) == pytest.approx(0.55, abs=2e-3)
    assert iv_twopiece.value(1.0) == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert iv_twopiece.value(1.9) == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_bridge_prior_interval(iv_bridge):
    # theta steps 1 / 3 / 1.2 / 4 at v = 1, 1.5, 2; the hull bridges the dip
    # between the kinks at F(1) and F(2), averaging h over that span
    w2 = math.exp(-1.0) * (1.0 - math.exp(-1.0 / 6.0))
    w3 = math.exp(-7.0 / 6.0) * (1.0 - math.exp(-5.0 / 12.0))
    level = (3.0 * w2 + 1.2 * w3) / (w2 + w3)
    assert len(iv_bridge.intervals) == 1
    itv = iv_bridge.intervals[0]
    assert not itv.at_bottom and not itv.at_top
    assert itv.v_lo == pytest.approx(1.0, abs=1e-3)
    assert itv.v_hi == pytest.approx(2.0, abs=1e-2)
    assert itv.level == pytest.approx(level, abs=1e-3)
    assert itv.q_lo == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)
    assert itv.q_hi == pytest.approx(1.0 - math.exp(-19.0 / 12.0), abs=1e-3)


def test_value_scalar_and_array(iv_twopiece):
    scalar = iv_twopiece.value(0.5)
    assert isinstance(scalar, float)
    arr = iv_twopiece.value(np.array([0.5, 1.5]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(scalar)


def test_ironed_value_convenience():
    assert ironed_value(uniform(0.0, 1.0), 0.3) == pytest.approx(0.5, abs=1e-3)


def test_grid_convergence():
    d = two_piece()
    errors = []
    for grid in (2 ** 10, 2 ** 12, 2 ** 14):
        itv = iron(d, grid=grid).intervals[0]
        errors.append(abs(itv.level - 2.0 / 3.0))
        assert itv.level == pytest.approx(2.0 / 3.0, abs=20.0 / grid)
    assert errors[-1] <= errors[0] + 1e-12


def test_eps_sensitivity():
    for eps in (1e-8, 1e-9, 1e-10):
        iv = iron(uniform(0.0, 1.0), eps=eps)
        assert float(np.max(np.abs(iv.phibar - 0.5))) <= 1e-3
        itv = iron(two_piece(), eps=eps).intervals[0]
        assert itv.level == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_iron_validation():
    with pytest.raises(ValueError):
        iron(uniform(0.0, 1.0), grid=32)
    with pytest.raises(ValueError):
        iron(uniform(0.0, 1.0), eps=0.5)
    with pytest.raises(ValueError):
        iron(uniform(0.0, 1.0), eps=0.0)


def test_grid_properties(iv_twopiece):
    iv = iv_twopiece
    assert iv.q.size == DEFAULT_GRID
    assert np.all(np.diff(iv.q) > 0)
    assert np.all(np.diff(iv.v) >= 0)
    np.testing.assert_allclose(iv.G[[0, -1]], iv.H[[0, -1]])
    assert np.all(iv.G <= iv.H + 1e-12)
    assert np.all(np.diff(iv.slopes) > 0)
    flagged = iv.ironed_flag
    itv = iv.intervals[0]
    inside = (iv.q > itv.q_lo + 1e-6) & (iv.q < itv.q_hi - 1e-6)
    assert np.all(flagged[inside])


@given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2,
                max_size=40))
@example([0.1, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5])  # collinear up to one rounding
@settings(max_examples=200, deadline=None)
def test_hull_properties(ys):
    y = np.array(ys)
    x = np.arange(y.size, dtype=float)
    idx = lower_convex_hull(x, y)
    assert idx[0] == 0 and idx[-1] == y.size - 1
    assert np.all(np.diff(idx) > 0)
    hull_y = np.interp(x, x[idx], y[idx])
    assert np.all(hull_y <= y + 1e-9 * np.maximum(1.0, np.abs(y)))
    if idx.size > 2:
        slopes = np.diff(y[idx]) / np.diff(x[idx])
        assert np.all(np.diff(slopes) > 0)


def test_hull_of_convex_points_keeps_all():
    x = np.arange(6, dtype=float)
    y = x ** 2
    idx = lower_convex_hull(x, y)
    np.testing.assert_array_equal(idx, np.arange(6))
