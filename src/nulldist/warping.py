"""Warping functions on a compact interval.

Each kind provides the value f(t), the reciprocal antiderivative
G(t) = int_a^t ds/f(s) (closed form for every supported kind; tabulated
profiles integrate 1/linear exactly segment by segment), the inverse of G by
bisection, and derivatives where the kind is twice differentiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, ParameterError

DEFAULT_OVERSAMPLE = 2001
_BISECT_TOL = 1e-12
_TINY = np.finfo(float).tiny  # smallest normal float


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise ParameterError(f"need a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def grid(self, n_segments: int) -> np.ndarray:
        return np.linspace(self.a, self.b, n_segments + 1)

    def contains(self, t: float, slack: float = 1e-12) -> bool:
        return self.a - slack <= t <= self.b + slack


@dataclass(frozen=True, eq=False)
class WarpingFunction:
    """Positive continuous function on an interval, one of the fixed kinds."""

    kind: str
    params: dict
    domain: Interval

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float, domain: Interval) -> "WarpingFunction":
        if not (c > 0):
            raise ParameterError("constant warping must be positive")
        return WarpingFunction("constant", {"value": float(c)}, domain)

    @staticmethod
    def affine(intercept: float, slope: float, domain: Interval) -> "WarpingFunction":
        w = WarpingFunction(
            "affine", {"intercept": float(intercept), "slope": float(slope)}, domain
        )
        w._require_positive()
        return w

    @staticmethod
    def exponential(amplitude: float, rate: float, domain: Interval) -> "WarpingFunction":
        if not (amplitude > 0):
            raise ParameterError("exponential amplitude must be positive")
        return WarpingFunction(
            "exponential", {"amplitude": float(amplitude), "rate": float(rate)}, domain
        )

    @staticmethod
    def cosh_type(amplitude: float, rate: float, domain: Interval) -> "WarpingFunction":
        if not (amplitude > 0):
            raise ParameterError("cosh amplitude must be positive")
        return WarpingFunction(
            "cosh", {"amplitude": float(amplitude), "rate": float(rate)}, domain
        )

    @staticmethod
    def tabulated(ts, values, domain: Optional[Interval] = None) -> "WarpingFunction":
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
            raise InvalidInputError("need matching 1-d sample arrays with >= 2 samples")
        if np.any(np.diff(ts) <= 0):
            raise InvalidInputError("sample abscissae must be strictly increasing")
        if np.any(values <= 0):
            raise InvalidInputError("tabulated warping must be strictly positive")
        dom = domain or Interval(float(ts[0]), float(ts[-1]))
        if dom.a < ts[0] - 1e-12 or dom.b > ts[-1] + 1e-12:
            raise InvalidInputError("domain exceeds the tabulated range")
        return WarpingFunction(
            "tabulated", {"ts": tuple(ts.tolist()), "values": tuple(values.tolist())}, dom
        )

    def _require_positive(self) -> None:
        if self.min_value() <= 0:
            raise ParameterError(f"warping not positive on {self.domain}")

    # -- evaluation --------------------------------------------------------

    def value(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "constant":
            out = np.full_like(t, p["value"])
        elif self.kind == "affine":
            out = p["intercept"] + p["slope"] * t
        elif self.kind == "exponential":
            out = p["amplitude"] * np.exp(p["rate"] * t)
        elif self.kind == "cosh":
            out = p["amplitude"] * np.cosh(p["rate"] * t)
        elif self.kind == "tabulated":
            out = np.interp(t, p["ts"], p["values"])
        else:
            raise InvalidInputError(f"unknown warping kind {self.kind!r}")
        return out if out.ndim else float(out)

    def recip_integral(self, t):
        """G(t) = int_a^t ds / f(s), elementwise."""
        t = np.asarray(t, dtype=float)
        a = self.domain.a
        p = self.params
        if self.kind == "constant":
            out = (t - a) / p["value"]
        elif self.kind == "affine":
            c, m = p["intercept"], p["slope"]
            # a subnormal slope (or rate, below) leaves f constant in floating
            # point, and its product with t - a would keep only a few bits
            if abs(m) < _TINY:
                out = (t - a) / c
            else:
                # log1p form stays accurate for normal slopes of any magnitude
                out = np.log1p(m * (t - a) / (c + m * a)) / m
        elif self.kind == "exponential":
            amp, r = p["amplitude"], p["rate"]
            if abs(r) < _TINY:
                out = (t - a) / amp
            else:
                out = -math.exp(-r * a) * np.expm1(-r * (t - a)) / (amp * r)
        elif self.kind == "cosh":
            amp, r = p["amplitude"], p["rate"]
            if abs(r) < _TINY:
                out = (t - a) / amp
            else:
                out = (np.arctan(np.sinh(r * t)) - math.atan(math.sinh(r * a))) / (amp * r)
        elif self.kind == "tabulated":
            out = self._tabulated_recip_integral(t)
        else:
            raise InvalidInputError(f"unknown warping kind {self.kind!r}")
        return out if out.ndim else float(out)

    def _tabulated_recip_integral(self, t: np.ndarray) -> np.ndarray:
        # integral of 1/(linear interpolant), exact on each sample segment
        ts = np.asarray(self.params["ts"])
        vs = np.asarray(self.params["values"])

        def seg_int(i: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            t0, t1 = ts[i], ts[i + 1]
            v0, v1 = vs[i], vs[i + 1]
            m = (v1 - v0) / (t1 - t0)
            flo = v0 + m * (lo - t0)
            fhi = v0 + m * (hi - t0)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(m == 0, (hi - lo) / flo, np.log(fhi / flo) / np.where(m == 0, 1.0, m))
            return out

        cum = np.concatenate(
            [[0.0], np.cumsum(seg_int(np.arange(ts.size - 1), ts[:-1], ts[1:]))]
        )
        tq = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, ts.size - 2)
        partial = seg_int(idx, ts[idx], tq)
        # shift so that G(domain.a) = 0 even if a falls inside a segment
        ia = min(max(int(np.searchsorted(ts, self.domain.a, side="right") - 1), 0), ts.size - 2)
        base_a = cum[ia] + float(
            seg_int(np.array([ia]), np.array([ts[ia]]), np.array([self.domain.a]))[0]
        )
        out = cum[idx] + partial - base_a
        return out.reshape(np.shape(t))

    def recip_integral_inverse(self, g: float, tol: float = _BISECT_TOL) -> float:
        """Solve G(r) = g for r in the domain by bisection (G is increasing)."""
        a, b = self.domain.a, self.domain.b
        g_total = float(self.recip_integral(b))
        if g < -tol or g > g_total + tol:
            raise ParameterError(f"target {g!r} outside [0, {g_total!r}]")
        lo, hi = a, b
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if float(self.recip_integral(mid)) < g:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- derivatives -------------------------------------------------------

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "constant":
            out = np.zeros_like(t)
        elif self.kind == "affine":
            out = np.full_like(t, p["slope"])
        elif self.kind == "exponential":
            out = p["rate"] * p["amplitude"] * np.exp(p["rate"] * t)
        elif self.kind == "cosh":
            out = p["rate"] * p["amplitude"] * np.sinh(p["rate"] * t)
        elif self.kind == "tabulated":
            out = self._difference_quotient(t, order=1)
        else:
            raise InvalidInputError(f"unknown warping kind {self.kind!r}")
        return out if out.ndim else float(out)

    def second_derivative(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind in ("constant", "affine"):
            out = np.zeros_like(t)
        elif self.kind == "exponential":
            out = p["rate"] ** 2 * p["amplitude"] * np.exp(p["rate"] * t)
        elif self.kind == "cosh":
            out = p["rate"] ** 2 * p["amplitude"] * np.cosh(p["rate"] * t)
        elif self.kind == "tabulated":
            out = self._difference_quotient(t, order=2)
        else:
            raise InvalidInputError(f"unknown warping kind {self.kind!r}")
        return out if out.ndim else float(out)

    def _difference_quotient(self, t: np.ndarray, order: int) -> np.ndarray:
        ts = np.asarray(self.params["ts"])
        h = float(np.min(np.diff(ts)))
        lo = np.maximum(np.atleast_1d(t) - h, self.domain.a)
        hi = np.minimum(np.atleast_1d(t) + h, self.domain.b)
        span = hi - lo
        if order == 1:
            out = (self.value(hi) - self.value(lo)) / span
        else:
            mid = 0.5 * (lo + hi)
            out = 4.0 * (self.value(hi) - 2.0 * self.value(mid) + self.value(lo)) / span**2
        return np.asarray(out).reshape(np.shape(t))

    def tabulated_step(self) -> Optional[float]:
        if self.kind != "tabulated":
            return None
        return float(np.min(np.diff(np.asarray(self.params["ts"]))))

    # -- range -------------------------------------------------------------

    def _oversampled(self, n: int) -> np.ndarray:
        return self.value(self.domain.grid(n - 1))

    def min_value(self, oversample: int = DEFAULT_OVERSAMPLE) -> float:
        return float(np.min(self._oversampled(oversample)))

    def max_value(self, oversample: int = DEFAULT_OVERSAMPLE) -> float:
        return float(np.max(self._oversampled(oversample)))
