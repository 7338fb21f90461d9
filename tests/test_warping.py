import math

import numpy as np
import pytest

from nulldist import ConeGrid, Interval, WarpingFunction, path_space
from nulldist.errors import InvalidInputError, ParameterError
from nulldist.formats import warping_from_dict


IV = Interval(0.0, 1.0)


def numeric_recip_integral(w, t, n=200_000):
    ss = np.linspace(w.domain.a, t, n)
    return np.trapezoid(1.0 / w.value(ss), ss)


class TestConstructors:
    def test_interval_order(self):
        with pytest.raises(ParameterError):
            Interval(1.0, 1.0)

    def test_constant_positive(self):
        with pytest.raises(ParameterError):
            WarpingFunction.constant(0.0, IV)

    def test_affine_positive_on_domain(self):
        with pytest.raises(ParameterError):
            WarpingFunction.affine(0.5, -1.0, IV)

    def test_tabulated_monotone_abscissae(self):
        with pytest.raises(InvalidInputError):
            WarpingFunction.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_tabulated_positive(self):
        with pytest.raises(InvalidInputError):
            WarpingFunction.tabulated([0.0, 1.0], [1.0, -0.1])

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0)])
    def test_interval_ends_are_finite(self, a, b):
        with pytest.raises(ParameterError):
            Interval(a, b)


# each maker builds one kind with x in one parameter slot, the rest valid
NON_FINITE_MAKERS = {
    "constant": [lambda x: WarpingFunction.constant(x, IV)],
    "affine": [lambda x: WarpingFunction.affine(x, 0.5, IV),
               lambda x: WarpingFunction.affine(1.0, x, IV)],
    "exponential": [lambda x: WarpingFunction.exponential(x, 0.5, IV),
                    lambda x: WarpingFunction.exponential(1.0, x, IV)],
    "cosh": [lambda x: WarpingFunction.cosh_type(x, 0.5, IV),
             lambda x: WarpingFunction.cosh_type(1.0, x, IV)],
    "tabulated": [lambda x: WarpingFunction.tabulated([0.0, 0.5, 1.0], [1.0, x, 1.0]),
                  lambda x: WarpingFunction.tabulated([0.0, x, 1.0], [1.0, 1.0, 1.0], IV)],
    "direct": [
        lambda x: WarpingFunction("affine", {"intercept": x, "slope": 0.0}, IV),
        lambda x: WarpingFunction("exponential", {"amplitude": 1.0, "rate": x}, IV),
        lambda x: WarpingFunction("cosh", {"amplitude": x, "rate": 1.0}, IV),
        lambda x: WarpingFunction("tabulated", {"ts": (0.0, 1.0), "values": (1.0, x)}, IV),
    ],
}


class TestValidation:
    @pytest.mark.parametrize("path", sorted(NON_FINITE_MAKERS))
    def test_non_finite_parameters_are_refused(self, path):
        for make in NON_FINITE_MAKERS[path]:
            for x in (math.nan, math.inf, -math.inf):
                with pytest.raises((ParameterError, InvalidInputError)):
                    make(x)

    @pytest.mark.parametrize("kind, params", [
        ("constant", {"value": 1.0}),
        ("spline", {"ts": (0.0, 1.0), "values": (1.0, 1.0)}),
    ])
    def test_unknown_kind_is_refused_at_construction(self, kind, params):
        with pytest.raises(InvalidInputError):
            WarpingFunction(kind, params, IV)

    def test_direct_construction_checks_positivity(self):
        with pytest.raises(ParameterError):
            WarpingFunction("cosh", {"amplitude": -1.0, "rate": 1.0}, IV)

    def test_constant_is_affine_with_slope_zero(self):
        w = WarpingFunction.constant(1.5, IV)
        assert (w.kind, w.params) == ("affine", {"intercept": 1.5, "slope": 0.0})

    def test_json_constant_loads_as_affine(self):
        w = warping_from_dict({"kind": "constant", "params": {"value": 1.5}}, IV)
        assert (w.kind, w.params) == ("affine", {"intercept": 1.5, "slope": 0.0})


class TestRecipIntegral:
    @pytest.mark.parametrize(
        "w",
        [
            WarpingFunction.constant(2.0, IV),
            WarpingFunction.affine(1.0, 1.0, IV),
            WarpingFunction.exponential(1.0, 0.8, IV),
            WarpingFunction.cosh_type(1.0, 1.0, IV),
            WarpingFunction.tabulated(
                np.linspace(0, 1, 11), 1.0 + 0.5 * np.linspace(0, 1, 11) ** 2
            ),
        ],
    )
    def test_closed_form_matches_quadrature(self, w):
        for t in (0.0, 0.3, 0.77, 1.0):
            assert w.recip_integral(t) == pytest.approx(
                numeric_recip_integral(w, t), abs=1e-8
            )

    def test_affine_log_value(self):
        w = WarpingFunction.affine(1.0, 1.0, IV)
        assert w.recip_integral(1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_inverse_roundtrip(self):
        for w in (
            WarpingFunction.affine(1.0, 2.0, IV),
            WarpingFunction.cosh_type(1.0, 1.0, IV),
        ):
            for t in (0.0, 0.2, 0.9, 1.0):
                g = float(w.recip_integral(t))
                assert w.recip_integral_inverse(g) == pytest.approx(t, abs=1e-10)

    def test_inverse_out_of_range(self):
        w = WarpingFunction.constant(1.0, IV)
        with pytest.raises(ParameterError):
            w.recip_integral_inverse(2.0)

    @pytest.mark.parametrize(
        "w",
        [
            WarpingFunction.constant(2.0, IV),
            WarpingFunction.affine(1.0, 1.0, IV),
            WarpingFunction.exponential(1.0, 0.8, IV),
            WarpingFunction.cosh_type(1.0, 1.0, IV),
            WarpingFunction.tabulated(
                np.linspace(0, 1, 11), 1.0 + 0.5 * np.linspace(0, 1, 11) ** 2
            ),
            WarpingFunction.cosh_type(0.5, 1.2, Interval(-2.0, 3.0)),
            WarpingFunction.constant(1.0, Interval(1e4, 1e4 + 1.0)),
            WarpingFunction.affine(2.0, 1e-4, Interval(1e4, 1e4 + 1.0)),
        ],
    )
    def test_inverse_takes_the_ends_and_stops_at_one_ulp(self, w):
        a, b = w.domain.a, w.domain.b
        assert w.recip_integral_inverse(0.0) == a
        assert w.recip_integral_inverse(float(w.recip_integral(b))) == b
        # far from the origin the domain's ulp exceeds any fixed tolerance
        ulp = np.spacing(max(abs(a), abs(b)))
        for t in np.linspace(a, b, 9)[1:-1]:
            r = w.recip_integral_inverse(float(w.recip_integral(t)))
            assert abs(r - t) <= 64 * ulp


class TestDerivatives:
    def test_cosh_identity(self):
        w = WarpingFunction.cosh_type(1.0, 1.0, IV)
        ts = np.linspace(0, 1, 7)
        assert np.allclose(w.second_derivative(ts), w.value(ts), atol=0)

    def test_tabulated_second_difference(self):
        ts = np.linspace(0, 1, 201)
        w = WarpingFunction.tabulated(ts, 1.0 + ts * ts)
        mid = np.linspace(0.1, 0.9, 9)
        assert np.allclose(w.second_derivative(mid), 2.0, atol=1e-6)

    def test_min_max(self):
        w = WarpingFunction.affine(1.0, 2.0, IV)
        assert w.extrema() == (1.0, 3.0)


class TestExtrema:
    def test_cosh_interior_minimum_on_the_grid(self):
        # t = 0 is no grid point of [-1, 1.1] at any resolution tried here
        iv = Interval(-1.0, 1.1)
        w = WarpingFunction.cosh_type(1.0, 1.0, iv)
        grid = ConeGrid(iv, path_space(3, 1.0), w, 7)
        assert grid.f_min == 1.0
        assert grid.f_max == math.cosh(1.1)

    def test_tabulated_knot_off_the_grid(self):
        w = WarpingFunction.tabulated([0.0, 0.31, 1.0], [2.0, 0.5, 2.0])
        grid = ConeGrid(IV, path_space(3, 1.0), w, 4)
        assert (grid.f_min, grid.f_max) == (0.5, 2.0)

    def test_subinterval_ignores_outside_critical_points(self):
        w = WarpingFunction.cosh_type(2.0, 1.0, Interval(-1.0, 1.0))
        assert w.extrema(Interval(0.5, 1.0)) == (2.0 * math.cosh(0.5), 2.0 * math.cosh(1.0))
        tab = WarpingFunction.tabulated([0.0, 0.31, 1.0], [2.0, 0.5, 2.0])
        assert tab.extrema(Interval(0.5, 1.0)) == tuple(tab.value(np.array([0.5, 1.0])))

    @pytest.mark.parametrize("kind, params", [
        ("constant", (1.5,)), ("affine", (2.0, -1.5)), ("exponential", (0.7, -1.3)),
    ])
    def test_monotone_kinds_take_the_ends(self, kind, params):
        make = {"constant": WarpingFunction.constant, "affine": WarpingFunction.affine,
                "exponential": WarpingFunction.exponential}[kind]
        w = make(*params, IV)
        ends = w.value(np.array([0.0, 1.0]))
        assert w.extrema() == (ends.min(), ends.max())


from hypothesis import example, given, settings
from hypothesis import strategies as st


@given(
    st.sampled_from(["constant", "affine", "exponential", "cosh"]),
    st.floats(0.5, 3.0),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=40, deadline=None)
@example("affine", 1.0, 5e-324)
@example("exponential", 1.0, -5e-324)
@example("cosh", 1.0, 5e-324)
def test_recip_integral_strictly_increasing(kind, amp, rate):
    iv = Interval(0.0, 1.0)
    if kind == "constant":
        w = WarpingFunction.constant(amp, iv)
    elif kind == "affine":
        if amp + min(0.0, rate) <= 0.05:
            return
        w = WarpingFunction.affine(amp, rate, iv)
    elif kind == "exponential":
        w = WarpingFunction.exponential(amp, rate, iv)
    else:
        w = WarpingFunction.cosh_type(amp, rate, iv)
    ts = np.linspace(0.0, 1.0, 33)
    gs = np.asarray(w.recip_integral(ts))
    assert np.all(np.diff(gs) > 0)
    # inverse round-trips interior points
    mid = float(gs[16])
    assert w.recip_integral_inverse(mid) == pytest.approx(ts[16], abs=1e-9)
