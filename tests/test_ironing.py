import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_audit import cell_virtual
from test_benchmark import piecewise_priors

from burnlab.distributions import (exponential, pareto,
                                   piecewise_inverse_hazard, two_piece,
                                   uniform, virtual_value_utility)
from burnlab.ironing import (_BRIDGE_RTOL, DEFAULT_GRID, IronedInterval, iron,
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


def test_iron_memo():
    d = two_piece()
    iv = iron(d, grid=1000)
    assert iron(d, grid=1000) is iv
    assert iron(d, 1000, 1e-9) is iv
    # another grid, another eps or an equal prior built again: ironed afresh
    for other in (iron(d, grid=1001), iron(d, grid=1000, eps=1e-8),
                  iron(two_piece(), grid=1000)):
        assert other is not iv
    assert iron(d, grid=1001).grid == 1001
    assert iron(d, grid=1000, eps=1e-8).q[0] == 1e-8
    assert iron(d).grid == DEFAULT_GRID
    # validation comes before the memo
    for kwargs in ({"grid": 32}, {"grid": 1000, "eps": 0.5},
                   {"grid": 1000, "eps": 0.0}):
        with pytest.raises(ValueError):
            iron(d, **kwargs)
    with pytest.raises(TypeError):
        iron(d, grid=1000.0)
    # shared arrays are read-only, the cached ones too
    shared = [getattr(iv, name) for name in (
        "q", "v", "theta", "H", "G", "phibar", "hull_idx", "slopes", "grid_seg",
        "ironed_flag", "cell_slopes")] + list(iv.segment_anchors)
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # the memo keeps the most recent result and its prior alive, and no
    # other: once another prior is ironed, neither stays
    assert iron(d, grid=1000) is iv
    ref, dist_ref = weakref.ref(iv), weakref.ref(d)
    del iv, d
    gc.collect()
    assert ref() is not None and dist_ref() is not None
    assert iron(uniform(0.0, 1.0), grid=64).grid == 64
    gc.collect()
    assert ref() is None and dist_ref() is None


def searchsorted_lookups(iv, v):
    # the grid cell and hull segment by binary search on the clipped quantile
    qv = np.clip(np.asarray(iv.dist.cdf(np.asarray(v, dtype=float)), dtype=float),
                 iv.q[0], iv.q[-1])
    cell = np.searchsorted(iv.q, qv, side="right") - 1
    seg = np.clip(np.searchsorted(iv.q[iv.hull_idx], qv, side="right") - 1,
                  0, iv.slopes.size - 1)
    return cell, seg


STOCK_PRIORS = (uniform(0.0, 1.0), exponential(1.0), pareto(1.0, 2.0), two_piece())


@given(st.one_of(st.sampled_from(STOCK_PRIORS), piecewise_priors()),
       st.sampled_from([64, 1000, 2 ** 12, 2 ** 14, 2 ** 16]),
       st.integers(0, 2 ** 32 - 1))
# on uniform(0,1) the cell estimate falls short near thousands of nodes at
# 2^12 and overshoots near thousands at 2^16, so each correction is needed
@example(STOCK_PRIORS[0], 2 ** 12, 0)
@example(STOCK_PRIORS[0], 2 ** 16, 0)
@settings(max_examples=30, deadline=None)
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # pareto cdf at 0
def test_grid_lookups_match_searchsorted(d, grid, seed):
    iv = iron(d, grid=grid)
    rng = np.random.default_rng(seed)
    nodes = iv.v[rng.integers(0, grid, 300)]
    lo = d.support[0]
    v = np.concatenate((nodes, np.nextafter(nodes, -np.inf),
                        np.nextafter(nodes, np.inf), iv.v[[0, -1]],
                        d.quantile(rng.random(100)),
                        [lo - 1.0, np.nextafter(lo, -np.inf), -np.inf,
                         2.0 * iv.v[-1], 1e300, np.inf, np.nan]))
    cell, seg = searchsorted_lookups(iv, v)
    np.testing.assert_array_equal(iv._cell(v), cell)
    np.testing.assert_array_equal(iv.segment_of(v), seg)
    np.testing.assert_array_equal(iv.value(v), iv.slopes[seg])
    V = v[:1000].reshape(250, 4)
    np.testing.assert_array_equal(iv.value(V), iv.slopes[seg[:1000].reshape(250, 4)])
    cell_slopes = np.diff(iv.H) / np.diff(iv.q)
    np.testing.assert_array_equal(cell_virtual(iv, iv._cell(V)),
                                  cell_slopes[np.clip(cell[:1000], 0, grid - 2)
                                              .reshape(250, 4)])
    # a scalar gets the vector's answer
    for x, seg_x in zip(v[::37].tolist(), seg[::37]):
        assert iv.segment_of(x) == seg_x
        phibar_x = iv.value(x)
        assert type(phibar_x) is float and phibar_x == iv.slopes[seg_x]


def test_scalar_lookup_matches_vector():
    # pareto(1, 2)'s cdf at x rounds one ulp lower on a 0-d array than inside
    # a vector, which put x in the cell below when looked up alone
    d = pareto(1.0, 2.0)
    iv = iron(d, grid=1000)
    x = 1.941600194191086
    vec = iv.value(np.array([x, 1.5, 3.0, 7.0]))
    assert iv.value(x) == iv.value(np.array([x]))[0] == vec[0]
    assert iv.segment_of(x) == iv.segment_of(np.array([x, 1.5]))[0] == 734
    # grid nodes and their neighbours, the values nearest a cell edge
    for d in STOCK_PRIORS + (piecewise_inverse_hazard([0.0, 1.0, 1.5, 2.0],
                                                      [1.0, 3.0, 1.2, 4.0]),):
        iv = iron(d, grid=1000)
        v = np.concatenate((iv.v, np.nextafter(iv.v, -np.inf),
                            np.nextafter(iv.v, np.inf)))
        levels, segs = iv.value(v), iv.segment_of(v)
        for x, level, seg in zip(v.tolist(), levels, segs):
            assert iv.value(x) == iv.value(np.array([x]))[0] == level, (d, x)
            assert iv.segment_of(x) == seg, (d, x)


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


def hull_oracle(x, y):
    # the monotone chain on numpy float64 scalars
    idx = []
    for i in range(x.size):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross <= 0.0 or ((y[b] - y[a]) / (x[b] - x[a])
                                >= (y[i] - y[b]) / (x[i] - x[b])):
                idx.pop()
            else:
                break
        idx.append(i)
    return np.asarray(idx, dtype=np.intp)


@given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2,
                max_size=40))
@example([0.1, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5])  # collinear up to one rounding
@settings(max_examples=200, deadline=None)
def test_hull_properties(ys):
    y = np.array(ys)
    x = np.arange(y.size, dtype=float)
    idx = lower_convex_hull(x, y)
    np.testing.assert_array_equal(idx, hull_oracle(x, y))
    assert idx[0] == 0 and idx[-1] == y.size - 1
    assert np.all(np.diff(idx) > 0)
    hull_y = np.interp(x, x[idx], y[idx])
    assert np.all(hull_y <= y + 1e-9 * np.maximum(1.0, np.abs(y)))
    if idx.size > 2:
        slopes = np.diff(y[idx]) / np.diff(x[idx])
        assert np.all(np.diff(slopes) > 0)


# the conftest priors plus exp(3), whose H is a line up to rounding, and a
# prior of constant-theta pieces whose hull follows a line, bridges one dip
# and ends in a line
HULL_PRIORS = STOCK_PRIORS + (
    exponential(3.0),
    piecewise_inverse_hazard([0.0, 1.0, 1.5, 2.0], [1.0, 3.0, 1.2, 4.0]),
    piecewise_inverse_hazard([0.0, 0.5, 2.0], [2.0, 0.5, 1.5]))


@pytest.mark.parametrize("grid", [64, 2 ** 10, 2 ** 14])
def test_hull_matches_oracle_on_prior_paths(grid):
    # real (q, H) paths take the scan's convex and fan runs in bulk
    for d in HULL_PRIORS:
        iv = iron(d, grid=grid)
        assert np.array_equal(lower_convex_hull(iv.q, iv.H), hull_oracle(iv.q, iv.H)), d.name


def long_path(shape, seed, m=3000):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, m))
    if shape == "convex":
        return x, rng.uniform(0.1, 2.0) * x ** 2
    if shape == "concave":
        return x, -rng.uniform(0.1, 2.0) * np.sqrt(x) - 1e-3 * x ** 2
    if shape == "noisy-line":
        return x, rng.uniform(-2.0, 2.0) * x + 1e-14 * rng.standard_normal(m)
    # mixed: stretches of rising and falling slope, lines and noise
    pieces = np.array_split(np.arange(m), np.sort(rng.choice(m, 12, replace=False)))
    slopes = np.concatenate([
        (np.linspace(0.0, 1.0, p.size), np.linspace(1.0, 0.0, p.size),
         np.full(p.size, 0.5), 0.5 + 1e-12 * rng.standard_normal(p.size))[j % 4]
        + rng.uniform(-1.0, 1.0) for j, p in enumerate(pieces)])
    return x, np.cumsum(slopes * np.diff(x, prepend=0.0))


@pytest.mark.parametrize("shape", ["convex", "concave", "noisy-line", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hull_matches_oracle_on_long_paths(shape, seed):
    x, y = long_path(shape, seed)
    idx = lower_convex_hull(x, y)
    assert np.array_equal(idx, hull_oracle(x, y))
    if shape == "convex":
        assert idx.size == x.size
    if shape == "concave":
        assert idx.tolist() == [0, x.size - 1]


@pytest.mark.parametrize("x, y", [
    ([0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 0.0, 1.0]),
    ([0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 0.0, 1.0]),
    ([0.0, 1.0, 2.0, 3.0], [0.0, -np.inf, 0.0, 1.0])])
def test_hull_rejects_non_finite(x, y):
    with pytest.raises(ValueError, match="finite"):
        lower_convex_hull(x, y)


def intervals_oracle(iv):
    # the bridge test on every hull segment, one at a time
    tol = _BRIDGE_RTOL * max(1.0, float(np.abs(iv.H).max()))
    out = []
    for j in range(iv.slopes.size):
        i0, i1 = int(iv.hull_idx[j]), int(iv.hull_idx[j + 1])
        if i1 - i0 > 1 and float(np.max(iv.H[i0 + 1:i1] - iv.G[i0 + 1:i1])) > tol:
            out.append(IronedInterval(
                float(iv.q[i0]), float(iv.q[i1]), float(iv.v[i0]), float(iv.v[i1]),
                float(iv.slopes[j]), i0 == 0, i1 == iv.grid - 1))
    return tuple(out)


# on its 64-point grid, H rises above the chord over nodes 0..3 by 0.75 and
# 1.5 times the bridge tolerance at nodes 1 and 2
NEAR_TOL_PRIOR = piecewise_inverse_hazard([0.0, 0.04, 0.057], [1.0, 1.0 - 8.2e-7, 3.0])


@pytest.mark.parametrize("grid", [64, 2 ** 10, 2 ** 14])
def test_intervals_match_segment_loop(grid):
    for d in HULL_PRIORS + (NEAR_TOL_PRIOR,):
        iv = iron(d, grid=grid)
        assert iv.intervals == intervals_oracle(iv), d.name


def test_bridge_test_reads_last_interior_point():
    # the segment is bridged by its last interior point alone
    iv = iron(NEAR_TOL_PRIOR, grid=64)
    tol = _BRIDGE_RTOL * float(np.abs(iv.H).max())
    excess = iv.H - iv.G
    assert iv.hull_idx[:2].tolist() == [0, 3]
    assert 0.0 < excess[1] <= tol < excess[2]
    assert iv.intervals == intervals_oracle(iv)
    assert [(i.at_bottom, i.q_hi) for i in iv.intervals] == [(True, iv.q[3])]


def test_hull_of_convex_points_keeps_all():
    x = np.arange(6, dtype=float)
    y = x ** 2
    idx = lower_convex_hull(x, y)
    np.testing.assert_array_equal(idx, np.arange(6))
