import math

import numpy as np
import pytest

from nulldist import Interval, WarpingFunction
from nulldist.errors import InvalidInputError, ParameterError


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
        assert w.min_value() == pytest.approx(1.0)
        assert w.max_value() == pytest.approx(3.0)


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
