"""Constant-curvature model planes.

Riemannian side: comparison angles in the simply connected surface of
curvature k via the Euclidean/spherical/hyperbolic law of cosines.

Lorentzian side: two-dimensional model planes of constant curvature K.
K = 0 is the Minkowski plane with coordinates (t, x). For K != 0 points
live on the standard hyperquadrics,

    K > 0: {<v,v> = r^2} in R^3 with form diag(-1, +1, +1), r = 1/sqrt(K)
    K < 0: {<v,v> = -r^2} in R^3 with form diag(-1, -1, +1), r = 1/sqrt(-K)

restricted to a chart where time separations stay below pi*r, so the
covering-space ambiguity never enters. Queries outside that regime raise
instead of returning a wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ModelConstraintError,
    ParameterError,
    UndefinedAngleError,
    UnsupportedRegimeError,
)

_CLAMP = 1e-12


def model_size_bound(K: float) -> float:
    """Side lengths of realizable triangles stay below this bound: pi/sqrt(|K|),
    and +inf on the flat plane. A non-finite K is refused."""
    if not math.isfinite(K):
        raise ParameterError(f"model curvature must be finite, got {K!r}")
    return math.inf if K == 0 else math.pi / math.sqrt(abs(K))


def _safe_arccos(x: np.ndarray) -> np.ndarray:
    # NaN counts as out of range, so a NaN side never passes silently
    out_of_range = ~(np.abs(x) <= 1 + _CLAMP)
    if np.any(out_of_range):
        raise ModelConstraintError(
            f"law-of-cosines argument outside [-1,1]: {x[out_of_range][:3]!r}"
        )
    return np.arccos(np.clip(x, -1.0, 1.0))


def comparison_angle_many(
    k: float, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Vectorized comparison angle; `a` is opposite the angle between `b`, `c`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(a < 0) or np.any(b < 0) or np.any(c < 0):
        raise ParameterError("side lengths must be nonnegative")
    if np.any(b == 0) or np.any(c == 0):
        raise UndefinedAngleError("angle undefined for a zero-length adjacent side")
    tol = _CLAMP * np.maximum(1.0, a + b + c)
    if np.any(a > b + c + tol) or np.any(b > a + c + tol) or np.any(c > a + b + tol):
        raise ModelConstraintError("side lengths violate the triangle inequality")
    # Degenerate triangles get their exact angles: side lengths along a
    # geodesic add up only to within an ulp, which arccos near +-1 would
    # magnify to ~1e-8
    s_round = 8.0 * np.finfo(float).eps * (a + b + c)
    straight = a >= b + c - s_round
    folded = a <= np.abs(b - c) + s_round
    if k == 0:
        x = (b * b + c * c - a * a) / (2.0 * b * c)
    elif k > 0:
        s = math.sqrt(k)
        if np.any((a + b + c) * s >= 2.0 * math.pi):
            raise ModelConstraintError(
                "perimeter must stay below 2*pi/sqrt(k) on the sphere"
            )
        x = (np.cos(s * a) - np.cos(s * b) * np.cos(s * c)) / (np.sin(s * b) * np.sin(s * c))
    else:
        # (cosh sb cosh sc - cosh sa) / (sinh sb sinh sc) with numerator and
        # denominator divided by e^{s(b+c)}/4: no exponent below exceeds
        # s * tol, so no side length overflows
        s = math.sqrt(-k)
        eb, ec = np.expm1(-2.0 * s * b), np.expm1(-2.0 * s * c)
        num = (2.0 + eb) * (2.0 + ec) - 2.0 * (np.exp(s * (a - b - c)) + np.exp(-s * (a + b + c)))
        x = num / (eb * ec)
    return _safe_arccos(np.where(straight, -1.0, np.where(folded, 1.0, x)))


# ---------------------------------------------------------------------------
# Lorentzian model planes


def _inner(K: float, p: np.ndarray, q: np.ndarray) -> float:
    # the signature of the ambient form: (-, +, +) for K > 0, (-, -, +) else
    g = np.array((-1.0, 1.0, 1.0) if K > 0 else (-1.0, -1.0, 1.0))
    return float(np.sum(g * p * q))


def chart_point(K: float, t: float, x: float) -> np.ndarray:
    """Chart coordinates -> model point.

    K = 0: returns (t, x) itself. K > 0: global slicing of the de Sitter-like
    hyperquadric, chart valid for |x| < pi*r. K < 0: periodic-time chart of the
    anti-de Sitter-like hyperquadric, valid for |t| < pi*r.
    """
    if K == 0:
        return np.array([t, x], dtype=float)
    r = 1.0 / math.sqrt(abs(K))
    if K > 0:
        if abs(x) >= math.pi * r:
            raise UnsupportedRegimeError(f"|x|={abs(x)!r} outside chart (< pi*r={math.pi * r!r})")
        return np.array(
            [
                r * math.sinh(t / r),
                r * math.cosh(t / r) * math.cos(x / r),
                r * math.cosh(t / r) * math.sin(x / r),
            ]
        )
    if abs(t) >= math.pi * r:
        raise UnsupportedRegimeError(f"|t|={abs(t)!r} outside chart (< pi*r={math.pi * r!r})")
    return np.array(
        [
            r * math.cos(t / r) * math.cosh(x / r),
            r * math.sin(t / r) * math.cosh(x / r),
            r * math.sinh(x / r),
        ]
    )


def _chart_time(K: float, p: np.ndarray) -> float:
    r = 1.0 / math.sqrt(abs(K))
    if K > 0:
        return r * math.asinh(p[0] / r)
    return r * math.atan2(p[1], p[0])


def embedded_time_separation(K: float, p: np.ndarray, q: np.ndarray) -> float:
    """Time separation between hyperquadric points (0 if not chronological)."""
    r = 1.0 / math.sqrt(abs(K))
    ip = _inner(K, p, q)
    if K > 0:
        u = ip / (r * r)
        if u <= 1.0 + _CLAMP:
            return 0.0  # not timelike related (or on the light cone)
        if _chart_time(K, q) <= _chart_time(K, p):
            return 0.0
        return r * math.acosh(max(u, 1.0))
    u = -ip / (r * r)
    # timelike iff u in (cos of separation) range; chart keeps separations < pi*r
    if u >= 1.0 - _CLAMP:
        return 0.0
    if u <= -1.0:
        raise UnsupportedRegimeError("points separated beyond the injective chart")
    dt = _chart_time(K, q) - _chart_time(K, p)
    if dt <= 0:
        return 0.0
    sep = r * math.acos(u)
    if abs(sep) >= math.pi * r - 1e-9:
        raise UnsupportedRegimeError("time separation at the chart boundary")
    # chronological iff dt beats the gap in s = r atan(sinh(x/r)), where the
    # chart metric is conformally flat: cosh^2(x/r) (-dt^2 + ds^2)
    if dt / r <= abs(math.atan(q[2] / r) - math.atan(p[2] / r)):
        return 0.0
    return sep


def l2k_time_separation(K: float, p, q) -> float:
    """Time separation in the constant-curvature Lorentzian model plane.

    Points are chart coordinates (t, x). Returns 0 when q is not in the
    chronological future of p; raises for K != 0 queries outside the chart.
    """
    if K == 0:
        t1, x1 = float(p[0]), float(p[1])
        t2, x2 = float(q[0]), float(q[1])
        dt, dx = t2 - t1, x2 - x1
        if dt <= 0 or dt < abs(dx):
            return 0.0
        return math.sqrt(max(dt * dt - dx * dx, 0.0))
    pe = p if np.shape(p) == (3,) else chart_point(K, p[0], p[1])
    qe = q if np.shape(q) == (3,) else chart_point(K, q[0], q[1])
    return embedded_time_separation(K, np.asarray(pe, float), np.asarray(qe, float))


def _cs_sn(K: float, s: float) -> tuple[float, float]:
    """(cosh, sinh)(s/r) for K > 0 and (cos, sin)(s/r) for K < 0: the two
    functions every timelike geodesic of the curved plane is built from."""
    r = 1.0 / math.sqrt(abs(K))
    if K > 0:
        return math.cosh(s / r), math.sinh(s / r)
    return math.cos(s / r), math.sin(s / r)


def _future_unit_timelike(K: float, boost: float) -> np.ndarray:
    """Future-directed unit timelike tangent at chart_point(K, 0, 0), by
    rapidity, in the orthonormal frame (e_t, e_x) there."""
    e_t, e_x = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)) if K > 0 else ((0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    return math.cosh(boost) * np.array(e_t) + math.sinh(boost) * np.array(e_x)


def geodesic_point(K: float, base: np.ndarray, tangent: np.ndarray, s: float) -> np.ndarray:
    """Point at proper time s along the timelike geodesic from `base`."""
    if K == 0:
        return base + s * tangent
    r = 1.0 / math.sqrt(abs(K))
    cs, sn = _cs_sn(K, s)
    return cs * base + r * sn * tangent


@dataclass(frozen=True)
class ComparisonTriangle:
    """Model triangle with vertices x', y', z' and prescribed side separations

    a = sep(x', y'), b = sep(y', z'), c = sep(x', z').
    Vertices are (t, x) pairs for K = 0 and embedding points otherwise.
    """

    K: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    a: float
    b: float
    c: float

    def vertex(self, name: str) -> np.ndarray:
        return {"x": self.x, "y": self.y, "z": self.z}[name]

    def side_length(self, side: str) -> float:
        return {"xy": self.a, "yz": self.b, "xz": self.c}[side]


def realize_timelike_triangle(K: float, a: float, b: float, c: float) -> ComparisonTriangle:
    """Realize side time separations (a, b, c) by timelike geodesics.

    Requires the reverse triangle inequality c >= a + b and, for K != 0,
    all sides below pi/sqrt(|K|). Degenerate sides follow the convention
    a = 0 -> y' = x' (and b = 0 -> y' = z').
    """
    if not (a >= 0 and b >= 0):
        raise ParameterError("side separations must be nonnegative")
    if not (c > 0):
        raise ParameterError("the long side c must be positive")
    if c < a + b - _CLAMP * max(1.0, c):
        raise ModelConstraintError(
            f"reverse triangle inequality fails: c={c!r} < a+b={a + b!r}"
        )
    if max(a, b, c) >= model_size_bound(K):
        raise ModelConstraintError(
            f"side length {max(a, b, c)!r} exceeds the size bound {model_size_bound(K)!r}"
        )

    if K == 0:
        x = np.array([0.0, 0.0])
        z = np.array([c, 0.0])
        if a == 0:
            y = x.copy()
        elif b == 0:
            y = z.copy()
        else:
            ty = (c * c + a * a - b * b) / (2.0 * c)
            sy = math.sqrt(max(ty * ty - a * a, 0.0))
            y = np.array([ty, sy])
        return ComparisonTriangle(K, x, y, z, float(a), float(b), float(c))

    x = chart_point(K, 0.0, 0.0)
    z = geodesic_point(K, x, _future_unit_timelike(K, 0.0), c)
    if a == 0:
        y = x.copy()
    elif b == 0:
        y = z.copy()
    else:
        (cs_a, sn_a), (cs_b, _), (cs_c, sn_c) = (_cs_sn(K, s) for s in (a, b, c))
        arg = math.copysign(1.0, K) * (cs_a * cs_c - cs_b) / (sn_a * sn_c)
        if arg < 1.0 - _CLAMP:
            raise ModelConstraintError(
                f"sides ({a!r}, {b!r}, {c!r}) not realizable at K={K!r}"
            )
        phi = math.acosh(max(arg, 1.0))
        y = geodesic_point(K, x, _future_unit_timelike(K, phi), a)
    tri = ComparisonTriangle(K, x, y, z, float(a), float(b), float(c))
    _check_realization(tri)
    return tri


def _check_realization(tri: ComparisonTriangle) -> None:
    pairs = (("x", "y", tri.a), ("y", "z", tri.b), ("x", "z", tri.c))
    for p, q, want in pairs:
        if want == 0:
            continue  # degenerate side, vertex identification convention
        got = l2k_time_separation(tri.K, tri.vertex(p), tri.vertex(q))
        if abs(got - want) > 1e-10 * max(1.0, want):
            raise ModelConstraintError(
                f"realized side {p}{q} has separation {got!r}, expected {want!r}"
            )


_SIDES = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}


def point_on_side(tri: ComparisonTriangle, side: str, s: float) -> np.ndarray:
    """Point on the realizing geodesic at time separation s from the side's
    past vertex. Affine interpolation for K = 0."""
    if side not in _SIDES:
        raise ParameterError(f"side must be one of {sorted(_SIDES)}, got {side!r}")
    length = tri.side_length(side)
    if not (0.0 <= s <= length + _CLAMP * max(1.0, length)):
        raise ParameterError(f"s={s!r} outside [0, {length!r}]")
    past, fut = (tri.vertex(v) for v in _SIDES[side])
    if length == 0 or s == 0:
        return past.copy()
    if tri.K == 0:
        return past + (s / length) * (fut - past)
    r = 1.0 / math.sqrt(abs(tri.K))
    cs, sn = _cs_sn(tri.K, length)
    tangent = (fut - cs * past) / (r * sn)
    return geodesic_point(tri.K, past, tangent, s)
