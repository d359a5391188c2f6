import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grit.evaluation import build_template
from grit.geometry import (
    Polyline,
    PolylineSet,
    cumulative_heading_change,
    polyline_crossing,
    segment_intersection,
    wrap_heading,
    wrap_signed,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(angles)
def test_wrap_heading_range_and_equivalence(a):
    w = wrap_heading(a)
    assert -math.pi < w <= math.pi
    # same angle modulo a full turn
    k = (a - w) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


@given(angles)
def test_wrap_signed_range_and_equivalence(a):
    w = wrap_signed(a)
    assert -math.pi <= w < math.pi
    k = (a - w) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


def test_wrap_conventions_at_pi():
    assert wrap_heading(math.pi) == math.pi
    assert wrap_heading(-math.pi) == math.pi
    assert wrap_heading(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_signed(math.pi) == -math.pi
    assert wrap_signed(-math.pi) == -math.pi
    assert wrap_heading(0.0) == 0.0


def test_polyline_rejects_bad_input():
    with pytest.raises(ValueError):
        Polyline([(0.0, 0.0)])
    with pytest.raises(ValueError):
        Polyline([(0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(ValueError):
        Polyline([(0.0, 0.0), (math.nan, 1.0)])
    # finite points whose squared segment length overflows or underflows
    # would make project() return NaN
    for points in ([(0.0, 0.0), (1e160, 0.0)], [(1e308, 0.0), (-1e308, 0.0)],
                   [(0.0, 0.0), (1e-170, 0.0)]):
        with pytest.raises(ValueError):
            Polyline(points)


def test_polyline_arclength_table():
    poly = Polyline([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
    assert poly.length == pytest.approx(7.0)
    assert list(poly.cum_length) == pytest.approx([0.0, 3.0, 7.0])
    assert poly.point_at(0.0) == (0.0, 0.0)
    assert poly.point_at(3.0) == pytest.approx((3.0, 0.0))
    assert poly.point_at(5.0) == pytest.approx((3.0, 2.0))
    # clamped beyond the ends
    assert poly.point_at(-1.0) == (0.0, 0.0)
    assert poly.point_at(99.0) == pytest.approx((3.0, 4.0))


def test_tangent_boundaries_belong_to_earlier_segment():
    poly = Polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    assert poly.tangent_at(0.5) == 0.0
    assert poly.tangent_at(1.0) == 0.0
    assert poly.tangent_at(1.2) == pytest.approx(math.pi / 2.0)
    assert poly.tangent_at(0.0) == 0.0


def _random_polyline(rng):
    n = rng.integers(2, 8)
    steps = rng.uniform(-10.0, 10.0, size=(n, 2))
    steps[np.hypot(steps[:, 0], steps[:, 1]) < 0.5] += 1.0
    return Polyline(np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0))


def test_project_matches_dense_sampling_oracle():
    rng = np.random.default_rng(31)
    for _ in range(40):
        poly = _random_polyline(rng)
        # dense sweep over the whole polyline; points_at is bit-equal to point_at
        sweep = poly.points_at(np.linspace(0.0, poly.length, 3000))
        for _ in range(10):
            x, y = rng.uniform(-40.0, 40.0, size=2)
            s, d = poly.project(x, y)
            px, py = poly.point_at(s)
            assert math.hypot(px - x, py - y) == pytest.approx(d, abs=1e-9)
            # the sweep cannot do much better
            best = np.hypot(sweep[:, 0] - x, sweep[:, 1] - y).min()
            assert d <= best + 1e-3


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_polyline_set_project_is_bit_equal_to_each_polyline():
    rng = np.random.default_rng(47)
    polys = [_random_polyline(rng) for _ in range(9)]
    # a U-shape: points midway between the arms tie across segments
    polys.append(Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 2.0), (0.0, 2.0)]))
    stacked = PolylineSet(polys)
    points = [tuple(rng.uniform(-40.0, 40.0, size=2)) for _ in range(300)]
    points += [tuple(p) for poly in polys for p in poly.points]  # segment joints
    points += [(5.0, 1.0), (7.5, 1.0), (math.nan, 0.0), (0.0, math.nan)]
    for x, y in points:
        s, d = stacked.project(float(x), float(y))
        expected = [poly.project(float(x), float(y)) for poly in polys]
        assert _bits(s) == _bits([e[0] for e in expected])
        assert _bits(d) == _bits([e[1] for e in expected])


def test_tangent_at_is_the_heading_of_the_segment_it_picks():
    rng = np.random.default_rng(53)
    for _ in range(20):
        poly = _random_polyline(rng)
        seg = np.diff(poly.points, axis=0)
        cum = poly.cum_length
        queries = list(cum) + list((cum[:-1] + cum[1:]) / 2.0) + [-1.0, poly.length + 1.0]
        for s in queries:
            i = int(np.searchsorted(cum, min(max(s, 0.0), poly.length), side="left")) - 1
            i = min(max(i, 0), len(seg) - 1)
            assert poly.tangent_at(float(s)) == math.atan2(seg[i, 1], seg[i, 0])


@pytest.mark.parametrize("template", ["t_junction", "crossroad", None])
def test_points_and_tangents_at_are_bit_equal_to_per_value_calls(template):
    rng = np.random.default_rng(59)
    if template is None:
        polys = [_random_polyline(rng) for _ in range(20)]
        # point_at(-0.0) keeps the sign of a -0.0 start coordinate
        polys.append(Polyline([(-0.0, -0.0), (3.0, 4.0), (3.0, 10.0)]))
    else:
        scenario = build_template(template)
        polys = [scenario.lane_poly(lane_id) for lane_id in sorted(scenario.lanes)]
    for poly in polys:
        queries = (
            list(rng.uniform(0.0, poly.length, size=200))
            + list(poly.cum_length)  # vertices: tangent_at takes the earlier segment
            + [0.0, -0.0, poly.length]
            + [-1e-300, -1.0, -50.0, -math.inf]
            + [math.nextafter(poly.length, math.inf), poly.length + 1.0, math.inf]
        )
        queries = [float(s) for s in queries]
        points = poly.points_at(queries)
        assert points.shape == (len(queries), 2)
        assert _bits(points) == _bits([poly.point_at(s) for s in queries])
        assert _bits(poly.tangents_at(queries)) == _bits(
            [poly.tangent_at(s) for s in queries]
        )


def test_project_tie_prefers_smaller_arclength():
    # a U-shape where the query point is equidistant from both arms
    poly = Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 2.0), (0.0, 2.0)])
    s, d = poly.project(5.0, 1.0)
    assert d == pytest.approx(1.0)
    assert s == pytest.approx(5.0)


def test_cumulative_heading_change():
    assert cumulative_heading_change(0.0, [0.0, 0.0]) == 0.0
    quarter = [i * math.pi / 8.0 for i in range(1, 5)]
    assert cumulative_heading_change(0.0, quarter) == pytest.approx(math.pi / 2.0)
    # accumulation may exceed pi even though increments are wrapped
    assert cumulative_heading_change(0.0, [2.0, 4.0]) == pytest.approx(4.0)
    # clockwise turns accumulate negative change
    assert cumulative_heading_change(0.0, [-1.0, -2.0]) == pytest.approx(-2.0)


def test_segment_intersection_cases():
    hit = segment_intersection((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
    assert hit == pytest.approx((0.5, 0.5))
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None
    assert segment_intersection((0, 0), (1, 0), (2, -1), (2, 1)) is None
    # touching at an endpoint counts as a crossing
    hit = segment_intersection((0, 0), (2, 0), (2, -1), (2, 1))
    assert hit == pytest.approx((1.0, 0.5))


def test_polyline_crossing_arclengths():
    a = Polyline([(0.0, 0.0), (10.0, 0.0)])
    b = Polyline([(4.0, -3.0), (4.0, 3.0)])
    assert polyline_crossing(a, b) == pytest.approx((4.0, 3.0))


def test_polyline_crossing_near_miss_fallback():
    a = Polyline([(0.0, 0.0), (10.0, 0.0)])
    b = Polyline([(0.0, 1.0), (10.0, 1.0)])
    hit = polyline_crossing(a, b)
    assert hit == pytest.approx((0.0, 0.0))
    far = Polyline([(0.0, 50.0), (10.0, 50.0)])
    assert polyline_crossing(a, far) is None
