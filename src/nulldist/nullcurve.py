"""Piecewise null curves on a generalized cone.

Between any two cone points there is a piecewise null curve: segments solve
the null equation |alpha'(s)| = f(alpha(s)) at unit fiber speed, so along a
segment the t-component is the inverse of the reciprocal antiderivative G,
alpha(s) = G^{-1}(G(t_0) +/- s). The fiber component is tracked by its arc
coordinate u along a unit-speed rectified path of length d(x_p, x_q); burning
surplus t-budget at a fixed fiber endpoint uses out-and-back excursions along
the nearest neighbor direction.

A null leg moves G by exactly its arc length, so each zigzag pair is in closed
form: the two legs of a pair of fiber length s1 meet at s1 / 2. For the same
reason a segment is checked exactly, by comparing its change of G with its
fiber length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeGrid
from .errors import InvalidInputError
from .metric_core import _monotone_runs


@dataclass(frozen=True)
class NullSegment:
    """One null piece: alpha monotone with |alpha'| = f(alpha), |u'| = 1."""

    t_start: float
    t_end: float
    u_start: float
    u_end: float
    direction: int  # +1 future, -1 past

    @property
    def s_length(self) -> float:
        return abs(self.u_end - self.u_start)


@dataclass
class PiecewiseNullCurve:
    grid: ConeGrid
    p: tuple
    q: tuple
    segments: list = field(default_factory=list)

    def null_length(self) -> float:
        """Sum of |t increments| over maximal monotone runs."""
        if not self.segments:
            return 0.0
        # vertex k of the curve is the start of segment k, the last its end
        t = [seg.t_start for seg in self.segments] + [self.segments[-1].t_end]
        runs = _monotone_runs([seg.direction for seg in self.segments])
        return sum(abs(t[b] - t[a]) for a, b in runs)

    def total_variation(self) -> float:
        return sum(abs(seg.t_end - seg.t_start) for seg in self.segments)

    def endpoint(self) -> tuple[float, float]:
        if not self.segments:
            i, j = self.p
            return float(self.grid.t_levels[i]), 0.0
        last = self.segments[-1]
        return last.t_end, last.u_end


def _nearest_neighbor_distance(grid: ConeGrid, j: int) -> float:
    d = grid.fiber.dist[j].copy()
    d[j] = np.inf
    val = float(d.min())
    if not math.isfinite(val):
        raise InvalidInputError("fiber has a single point; no null curve can move")
    return val


def null_curve(grid: ConeGrid, p: tuple[int, int], q: tuple[int, int]) -> PiecewiseNullCurve:
    """Construct a piecewise null curve from grid point p to grid point q.

    Endpoints are exact in the fiber; the t-endpoint is accurate to the
    tolerance of `recip_integral_inverse`. A zigzag pair of fiber length s1
    turns at G(t) +/- s1 / 2, and s1 is at most twice the headroom, so the
    turn stays inside the interval.
    """
    p = (int(p[0]), int(p[1]))
    q = (int(q[0]), int(q[1]))
    grid._check_point(*p)
    grid._check_point(*q)
    curve = PiecewiseNullCurve(grid, p, q)
    if p == q:
        return curve
    if grid.t_levels[p[0]] > grid.t_levels[q[0]]:
        rev = null_curve(grid, q, p)
        total = rev.endpoint()[1]
        curve.segments = [
            NullSegment(s.t_end, s.t_start, total - s.u_end, total - s.u_start, -s.direction)
            for s in reversed(rev.segments)
        ]
        return curve

    w = grid.warping
    a, b = grid.interval.a, grid.interval.b
    t_p, t_q = float(grid.t_levels[p[0]]), float(grid.t_levels[q[0]])
    fiber_len = float(grid.fiber.dist[p[1], q[1]])
    u = 0.0
    t_cur = t_p

    # ascent phase: reach the target level along the fiber track
    if t_q > t_p:
        budget = float(w.recip_integral(t_q) - w.recip_integral(t_p))
        forward = min(budget, fiber_len)
        if forward > 0:
            t_mid = w.recip_integral_inverse(float(w.recip_integral(t_p)) + forward)
            curve.segments.append(NullSegment(t_p, t_mid, u, u + forward, +1))
            u += forward
            t_cur = t_mid
        surplus = budget - forward
        if surplus > 0:
            # out-and-back excursions at a fixed fiber endpoint, still
            # ascending; targets hit G(t_q) exactly to avoid drift
            room = _nearest_neighbor_distance(grid, q[1] if fiber_len > 0 else p[1])
            bounces = max(1, math.ceil(surplus / (2.0 * room)))
            g_here = float(w.recip_integral(t_cur))
            g_end = float(w.recip_integral(t_q))
            targets = np.linspace(g_here, g_end, 2 * bounces + 1)[1:]
            u_anchor = u
            g_prev = g_here
            sign = -1.0
            for tgt in targets:
                t_next = w.recip_integral_inverse(tgt)
                u_next = u + sign * (tgt - g_prev)
                curve.segments.append(NullSegment(t_cur, t_next, u, u_next, +1))
                u, t_cur, g_prev, sign = u_next, t_next, float(tgt), -sign
            u = u_anchor  # exact out-and-back
        if abs(t_cur - t_q) < 1e-9:
            t_cur = t_q

    # zigzag phase: remaining fiber length at constant level
    remaining = fiber_len - u
    guard = 0
    while remaining > 1e-12:
        guard += 1
        if guard > 10000:
            raise RuntimeError("zigzag phase failed to terminate")
        g_cur = float(w.recip_integral(t_cur))
        g_lo = float(w.recip_integral(a))
        g_hi = float(w.recip_integral(b))
        head_up = g_hi - g_cur
        head_dn = g_cur - g_lo
        go_up = head_up >= head_dn
        # head >= (G(b) - G(a)) / 2 > 0: ConeGrid refuses a G that does not strictly increase
        head = head_up if go_up else head_dn
        s1 = min(remaining, 2.0 * head)
        half = 0.5 * s1
        direction = 1 if go_up else -1
        t_turn = w.recip_integral_inverse(
            min(g_cur + half, g_hi) if go_up else max(g_cur - half, g_lo)
        )
        curve.segments.append(NullSegment(t_cur, t_turn, u, u + half, direction))
        curve.segments.append(NullSegment(t_turn, t_cur, u + half, u + s1, -direction))
        u += s1
        remaining = fiber_len - u
    return curve


def verify_null_curve(grid: ConeGrid, curve: PiecewiseNullCurve) -> dict:
    """Measure endpoint accuracy, the per-segment nullity defect and the null
    length vs total variation gap.

    A segment is null exactly when direction * (G(t_end) - G(t_start)) equals
    its fiber length |u_end - u_start|; the defect is the largest deviation
    from that identity (0 without segments)."""
    t_end, u_end = curve.endpoint()
    t_target = float(grid.t_levels[curve.q[0]])
    fiber_target = float(grid.fiber.dist[curve.p[1], curve.q[1]])
    G = grid.warping.recip_integral
    worst_null = max(
        (
            abs(seg.direction * (float(G(seg.t_end)) - float(G(seg.t_start))) - seg.s_length)
            for seg in curve.segments
        ),
        default=0.0,
    )
    return {
        "t_endpoint_error": abs(t_end - t_target),
        "fiber_endpoint_error": abs(u_end - fiber_target),
        "max_nullity_defect": worst_null,
        "null_length": curve.null_length(),
        "total_variation": curve.total_variation(),
        "n_segments": len(curve.segments),
    }
