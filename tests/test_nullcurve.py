import numpy as np
import pytest

from nulldist import (
    ConeGrid,
    FiniteLengthSpace,
    Interval,
    PiecewiseNullCurve,
    WarpingFunction,
    circle_space,
    null_curve,
    path_space,
    verify_null_curve,
)
from nulldist.errors import InvalidInputError
from nulldist.nullcurve import NullSegment

IV = Interval(0.0, 1.0)
_TS = np.linspace(0.0, 1.0, 6)
WARPINGS = {
    "constant": WarpingFunction.constant(1.0, IV),
    "affine": WarpingFunction.affine(1.0, 1.0, IV),
    "cosh": WarpingFunction.cosh_type(1.0, 1.0, IV),
    "exponential": WarpingFunction.exponential(1.0, -0.8, IV),
    "tabulated": WarpingFunction.tabulated(_TS, 1.0 + 0.6 * np.sin(4.0 * _TS), IV),
}

CASES = [
    ((0, 0), (0, 10)),   # same level, zigzag
    ((2, 0), (15, 13)),  # generic ascent + zigzag
    ((0, 0), (20, 0)),   # pure ascent at a fixed fiber point (excursions)
    ((18, 2), (19, 20)), # little headroom above
    ((10, 7), (3, 2)),   # reversed time order
    ((0, 0), (20, 20)),  # corner to corner
]


@pytest.fixture(params=[*WARPINGS, "cosh-circle", "exponential-circle"])
def grid(request):
    kind, _, fiber = request.param.partition("-")
    space = circle_space(21, 1.0) if fiber == "circle" else path_space(21, 1.0)
    return ConeGrid(IV, space, WARPINGS[kind], 20)


@pytest.mark.parametrize("pair", CASES)
def test_construction_contracts(grid, pair):
    p, q = pair
    curve = null_curve(grid, p, q)
    rep = verify_null_curve(grid, curve)
    assert rep["t_endpoint_error"] <= 1e-6
    assert rep["fiber_endpoint_error"] <= 1e-9
    assert rep["max_nullity_defect"] <= 1e-9
    assert abs(rep["null_length"] - rep["total_variation"]) <= 1e-9


@pytest.mark.parametrize("level", [0, 3, 10, 17, 20])
def test_zigzag_pairs_return_to_their_base_level(grid, level):
    # a fiber of length 5 needs at least two pairs: G spans at most 1.6 here
    long = ConeGrid(IV, path_space(21, 5.0), grid.warping, 20)
    curve = null_curve(long, (level, 0), (level, 20))
    base = float(long.t_levels[level])
    segs = curve.segments
    assert len(segs) >= 4 and len(segs) % 2 == 0
    for out, back in zip(segs[::2], segs[1::2]):
        assert out.t_start == base and back.t_end == base
        assert back.t_start == out.t_end and back.direction == -out.direction
        # the legs of a pair split its fiber length in half
        assert out.s_length == pytest.approx(back.s_length, abs=1e-12)
    assert verify_null_curve(long, curve)["max_nullity_defect"] <= 1e-9


@pytest.mark.parametrize(
    "p, q, segment, defect",
    [
        # t rises by 0.5 while the fiber moves 0.3 at f = 1
        ((0, 0), (10, 6), NullSegment(0.0, 0.5, 0.0, 0.3, +1), 0.2),
        # a descending segment marked as future-directed
        ((10, 0), (0, 10), NullSegment(0.5, 0.0, 0.0, 0.5, +1), 1.0),
    ],
)
def test_verify_catches_a_segment_that_is_not_null(p, q, segment, defect):
    g = ConeGrid(IV, path_space(21, 1.0), WARPINGS["constant"], 20)
    rep = verify_null_curve(g, PiecewiseNullCurve(g, p, q, [segment]))
    # both endpoints are right, so only the nullity defect can tell
    assert rep["t_endpoint_error"] == 0.0 and rep["fiber_endpoint_error"] <= 1e-15
    assert rep["max_nullity_defect"] >= defect - 1e-12


def test_trivial_pair(grid):
    curve = null_curve(grid, (5, 5), (5, 5))
    assert curve.segments == []
    assert curve.null_length() == 0.0


def test_flat_zigzag_analytic():
    g = ConeGrid(IV, path_space(21, 1.0), WarpingFunction.constant(1.0, IV), 20)
    curve = null_curve(g, (0, 0), (0, 10))
    assert len(curve.segments) == 2
    assert curve.segments[0].t_end == pytest.approx(0.25, abs=1e-9)
    assert curve.null_length() == pytest.approx(0.5, abs=1e-9)


def test_ascent_then_zigzag_same_fiber_point():
    g = ConeGrid(IV, path_space(21, 1.0), WarpingFunction.constant(1.0, IV), 20)
    curve = null_curve(g, (0, 3), (10, 3))
    rep = verify_null_curve(g, curve)
    assert rep["t_endpoint_error"] <= 1e-6
    # ascent burns G(t_q) - G(t_p) = 0.5 of arc length in excursions
    assert rep["total_variation"] >= 0.5 - 1e-9


def test_single_point_fiber_rejected():
    fiber = FiniteLengthSpace((0,), np.zeros((1, 1)))
    g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 4)
    with pytest.raises(InvalidInputError):
        null_curve(g, (0, 0), (4, 0))


def test_null_length_equals_total_variation_many():
    g = ConeGrid(IV, path_space(31, 1.0), WarpingFunction.affine(1.0, 0.5, IV), 24)
    rng = np.random.default_rng(3)
    for _ in range(12):
        p = (int(rng.integers(0, 25)), int(rng.integers(0, 31)))
        q = (int(rng.integers(0, 25)), int(rng.integers(0, 31)))
        curve = null_curve(g, p, q)
        assert abs(curve.null_length() - curve.total_variation()) <= 1e-9


def test_cone_on_subinterval_of_warping_domain():
    # the interval floor need not sit at G = 0
    w = WarpingFunction.affine(1.0, 1.0, Interval(0.0, 2.0))
    g = ConeGrid(Interval(0.5, 1.5), path_space(21, 1.0), w, 20)
    for p, q in (((0, 0), (0, 10)), ((18, 2), (19, 20)), ((10, 7), (3, 2))):
        curve = null_curve(g, p, q)
        rep = verify_null_curve(g, curve)
        assert rep["t_endpoint_error"] <= 1e-6
        assert rep["max_nullity_defect"] <= 1e-9


def test_curve_far_from_the_origin_completes():
    # the domain's ulp (1.8e-12 at 1e4) is wider than a fixed 1e-12 bracket
    iv = Interval(1e4, 1e4 + 1.0)
    grid = ConeGrid(iv, path_space(9, 1.0), WarpingFunction.constant(1.0, iv), 8)
    for p, q in (((0, 0), (0, 8)), ((1, 2), (6, 7)), ((8, 8), (2, 0))):
        rep = verify_null_curve(grid, null_curve(grid, p, q))
        assert rep["t_endpoint_error"] == 0.0
        assert rep["fiber_endpoint_error"] == 0.0
        assert rep["max_nullity_defect"] <= 1e-9
        assert rep["null_length"] == pytest.approx(rep["total_variation"], abs=1e-9)
