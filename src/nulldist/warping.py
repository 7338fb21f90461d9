"""Warping functions on a compact interval.

Each kind provides the value f(t), the reciprocal antiderivative
G(t) = int_a^t ds/f(s) (closed form for every supported kind; tabulated
profiles integrate 1/linear exactly segment by segment), the inverse of G by
bisection to one ulp of the domain, exact extrema from the kind's critical
points, and derivatives where the kind is twice differentiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, ParameterError

_TINY = np.finfo(float).tiny  # smallest normal float
SAMPLE_SEGMENTS = 2000  # segments of the domain grid that sup norms and curvature checks sample


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (-math.inf < self.a < self.b < math.inf):
            raise ParameterError(f"need finite a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def grid(self, n_segments: int) -> np.ndarray:
        return np.linspace(self.a, self.b, n_segments + 1)


@dataclass(frozen=True, eq=False)
class WarpingFunction:
    """Positive continuous function on an interval, of one of four kinds:
    affine (a constant is the affine kind of slope 0), exponential, cosh or
    tabulated."""

    kind: str
    params: dict
    domain: Interval

    def __post_init__(self):
        # every constructor ends here
        if self.kind not in ("affine", "exponential", "cosh", "tabulated"):
            raise InvalidInputError(f"unknown warping kind {self.kind!r}")
        if not np.all(np.isfinite(np.hstack(list(self.params.values())))):
            raise ParameterError(f"{self.kind} warping parameters must be finite")
        if not (self.extrema()[0] > 0):
            raise ParameterError(f"warping not positive on {self.domain}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float, domain: Interval) -> "WarpingFunction":
        """The affine kind with slope 0."""
        return WarpingFunction.affine(c, 0.0, domain)

    @staticmethod
    def affine(intercept: float, slope: float, domain: Interval) -> "WarpingFunction":
        return WarpingFunction(
            "affine", {"intercept": float(intercept), "slope": float(slope)}, domain
        )

    @staticmethod
    def exponential(amplitude: float, rate: float, domain: Interval) -> "WarpingFunction":
        return WarpingFunction(
            "exponential", {"amplitude": float(amplitude), "rate": float(rate)}, domain
        )

    @staticmethod
    def cosh_type(amplitude: float, rate: float, domain: Interval) -> "WarpingFunction":
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
        # every knot, not only those in the domain: G integrates across them
        if np.any(values <= 0):
            raise InvalidInputError("tabulated warping must be strictly positive")
        dom = domain or Interval(float(ts[0]), float(ts[-1]))
        if dom.a < ts[0] - 1e-12 or dom.b > ts[-1] + 1e-12:
            raise InvalidInputError("domain exceeds the tabulated range")
        return WarpingFunction(
            "tabulated", {"ts": tuple(ts.tolist()), "values": tuple(values.tolist())}, dom
        )

    # -- evaluation --------------------------------------------------------

    def value(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "affine":
            out = p["intercept"] + p["slope"] * t
        elif self.kind == "exponential":
            out = p["amplitude"] * np.exp(p["rate"] * t)
        elif self.kind == "cosh":
            out = p["amplitude"] * np.cosh(p["rate"] * t)
        else:
            out = np.interp(t, p["ts"], p["values"])
        return out if out.ndim else float(out)

    def recip_integral(self, t):
        """G(t) = int_a^t ds / f(s), elementwise."""
        t = np.asarray(t, dtype=float)
        a = self.domain.a
        p = self.params
        if self.kind == "affine":
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
        else:
            out = self._tabulated_recip_integral(t)
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
        # the last query is domain.a: subtracting it makes G(domain.a) = 0
        # even if a falls inside a segment
        tq = np.append(np.ravel(t), self.domain.a)
        idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, ts.size - 2)
        out = cum[idx] + seg_int(idx, ts[idx], tq)
        return (out[:-1] - out[-1]).reshape(np.shape(t))

    def recip_integral_inverse(self, g: float) -> float:
        """Solve G(r) = g for r in the domain by bisection (G is increasing).

        Targets at or beyond G of an end give that end. Otherwise the bracket
        shrinks to one ulp of the domain, the spacing of floats at its larger
        end, and the end whose G is nearer g is returned."""
        a, b = self.domain.a, self.domain.b
        g_lo, g_hi = float(self.recip_integral(a)), float(self.recip_integral(b))
        if g < -1e-12 or g > g_hi + 1e-12:
            raise ParameterError(f"target {g!r} outside [0, {g_hi!r}]")
        if g <= g_lo:
            return a
        if g >= g_hi:
            return b
        # no float of the domain is more than `ulp` from the next, so a
        # bracket wider than that has its midpoint strictly inside
        ulp = float(np.spacing(max(abs(a), abs(b))))
        lo, hi = a, b
        while hi - lo > ulp:
            mid = 0.5 * (lo + hi)
            g_mid = float(self.recip_integral(mid))
            if g_mid < g:
                lo, g_lo = mid, g_mid
            else:
                hi, g_hi = mid, g_mid
        return lo if g - g_lo < g_hi - g else hi

    # -- derivatives -------------------------------------------------------

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "affine":
            out = np.full_like(t, p["slope"])
        elif self.kind == "exponential":
            out = p["rate"] * p["amplitude"] * np.exp(p["rate"] * t)
        elif self.kind == "cosh":
            out = p["rate"] * p["amplitude"] * np.sinh(p["rate"] * t)
        else:
            out = self._difference_quotient(t, order=1)
        return out if out.ndim else float(out)

    def second_derivative(self, t):
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == "affine":
            out = np.zeros_like(t)
        elif self.kind == "exponential":
            out = p["rate"] ** 2 * p["amplitude"] * np.exp(p["rate"] * t)
        elif self.kind == "cosh":
            out = p["rate"] ** 2 * p["amplitude"] * np.cosh(p["rate"] * t)
        else:
            out = self._difference_quotient(t, order=2)
        return out if out.ndim else float(out)

    def _difference_quotient(self, t: np.ndarray, order: int) -> np.ndarray:
        h = self.tabulated_step()
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

    def critical_points(self, interval: Optional[Interval] = None) -> list[float]:
        """The ends of `interval` (default: the domain) and the kind's interior
        critical points in it: t = 0 for cosh, the knots for tabulated; the
        other kinds are monotone. f is linear between consecutive points
        for every kind but exponential and cosh."""
        iv = interval or self.domain
        ts = [iv.a, iv.b]
        if self.kind == "cosh":
            ts.append(min(max(0.0, iv.a), iv.b))
        elif self.kind == "tabulated":
            ts += [t for t in self.params["ts"] if iv.a < t < iv.b]
        return ts

    def extrema(self, interval: Optional[Interval] = None) -> tuple[float, float]:
        """Exact (min, max) of f on `interval` (default: the domain), from the
        values at its critical points."""
        vals = self.value(np.array(self.critical_points(interval)))
        return float(vals.min()), float(vals.max())
