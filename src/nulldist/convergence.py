"""Convergence machinery for families of warped cones.

Uniformly convergent warping functions give uniformly convergent null
distances with an explicit two-sided estimate; correspondences between
fibers lift to product cones keeping their distortion exactly; a uniform
upper bound on the warpings makes the whole family totally bounded with a
single product net. The bounds f_min and f_max these estimates use are the
exact extrema of each warping kind, not samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cone import ConeGrid, null_distance, stratified_sources
from .errors import InvalidInputError, ParameterError
from .metric_core import (
    Correspondence,
    EpsilonNet,
    FiniteLengthSpace,
    distortion,
    epsilon_net,
)
from .warping import Interval, WarpingFunction

PAIR_BUDGET = 1_000_000  # full pair coverage up to this many checked entries


@dataclass(frozen=True, eq=False)
class WarpingSequence:
    members: tuple
    limit: WarpingFunction
    lower_bound: float

    def __post_init__(self):
        if not (self.lower_bound > 0):
            raise ParameterError("the uniform lower bound must be positive")
        dom = self.limit.domain
        for j, f in enumerate(self.members):
            if f.domain != dom:
                raise InvalidInputError(f"member {j} has a different domain")
            if f.extrema()[0] < self.lower_bound - 1e-12:
                raise InvalidInputError(
                    f"member {j} drops below the lower bound {self.lower_bound!r}"
                )
        object.__setattr__(self, "members", tuple(self.members))


def sup_norm(f: WarpingFunction, g: WarpingFunction) -> float:
    """max |f - g| on a shared 2001-point grid joined with the critical
    points of both warpings; exact when both are piecewise linear, since
    f - g is then linear between consecutive points. Exact as well when one
    side is a constant c: |f - c| peaks where f does, at one of f's critical
    points, so this is max(|f_max - c|, |f_min - c|) with extrema's values."""
    if f.domain != g.domain:
        raise InvalidInputError("sup norm needs a shared domain")
    ts = np.concatenate(
        [f.domain.grid(2000), f.critical_points(), g.critical_points()]
    )
    return float(np.max(np.abs(np.asarray(f.value(ts)) - np.asarray(g.value(ts)))))


@dataclass
class MemberCheck:
    index: int
    eps: float
    sup_deviation: float
    lower_margin: float  # min over pairs of dhat_j - lower sandwich bound
    upper_margin: float  # min over pairs of upper sandwich bound - dhat_j
    n_pairs: int
    excluded: bool = False
    diagnostic: str = ""


@dataclass
class ConvergenceReport:
    members: list
    monotone_ok: bool
    note: str = ""

    @property
    def all_sandwich_ok(self) -> bool:
        return all(
            m.excluded or (m.lower_margin >= -1e-12 and m.upper_margin >= -1e-12)
            for m in self.members
        )


def null_convergence_check(
    seq: WarpingSequence,
    fiber: FiniteLengthSpace,
    n_t: int,
    max_entries: int = PAIR_BUDGET,
    seed: int = 0,
) -> ConvergenceReport:
    """Check the two-sided deviation estimate between the limit cone and each
    member cone on identical grids:

        dhat_f - eps (1 + 3 dhat_f / f_min)
            <= dhat_fj <=
        dhat_f + eps (1 + 8 eps / f_min + 8 dhat_f / f_min)

    Members with eps >= f_min / 4 are excluded with a diagnostic. Pairs are
    all grid pairs while the count stays within `max_entries`, otherwise a
    deterministic stratified source sample.
    """
    interval = (seq.limit.domain.a, seq.limit.domain.b)
    grid_lim = ConeGrid(Interval(*interval), fiber, seq.limit, n_t)
    f_min = grid_lim.f_min
    sources = stratified_sources(grid_lim, max_entries, seed)
    base = null_distance(grid_lim, sources=sources)

    members: list[MemberCheck] = []
    for j, f_j in enumerate(seq.members):
        eps = sup_norm(seq.limit, f_j)
        if eps > f_min / 4.0:
            members.append(
                MemberCheck(j, eps, math.nan, math.nan, math.nan, 0, True,
                            f"eps={eps!r} > f_min/4={f_min / 4.0!r}")
            )
            continue
        grid_j = ConeGrid(Interval(*interval), fiber, f_j, n_t)
        rows_j = null_distance(grid_j, sources=sources)
        d_f = base.rows
        d_j = rows_j.rows
        lower = d_f - eps * (1.0 + 3.0 / f_min * d_f)
        upper = d_f + eps * (1.0 + 8.0 * eps / f_min + 8.0 / f_min * d_f)
        members.append(
            MemberCheck(
                j,
                eps,
                float(np.max(np.abs(d_j - d_f))),
                float(np.min(d_j - lower)),
                float(np.min(upper - d_j)),
                d_f.size,
            )
        )

    active = [m for m in members if not m.excluded]
    by_eps = sorted(active, key=lambda m: -m.eps)
    grid_tol = 2.0 / n_t
    monotone = all(
        b.sup_deviation <= a.sup_deviation + grid_tol
        for a, b in zip(by_eps, by_eps[1:])
    )
    return ConvergenceReport(members, monotone, note=f"{len(sources)} source rows")


# ---------------------------------------------------------------------------
# lifting correspondences to product cones


@dataclass
class LiftResult:
    lifted: Correspondence
    distortion: float


def lift_correspondence(
    corr: Correspondence,
    fiber_a: FiniteLengthSpace,
    fiber_b: FiniteLengthSpace,
    t_grid: Sequence[float],
) -> LiftResult:
    """Lift a fiber correspondence to the product cones over a shared t-grid,
    gluing equal t-slices. The lift keeps the fiber distortion exactly, since
    the product null distance is max(d, |dt|): equal-slice pairs (dt = 0)
    reproduce the base pairs, and |max(a, dt) - max(b, dt)| <= |a - b| holds
    for every other pair (also in floating point, as rounding is monotone).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise InvalidInputError("need a nonempty shared t-grid")
    lifted = Correspondence(
        tuple(
            (i * fiber_a.n + xa, i * fiber_b.n + xb)
            for i in range(t_grid.size)
            for xa, xb in corr.pairs
        )
    )
    return LiftResult(lifted, distortion(corr, fiber_a, fiber_b))


# ---------------------------------------------------------------------------
# the almost-isometry construction


@dataclass
class EpsilonIsometryResult:
    passed: bool
    eps: float
    gh_bound: float
    max_distortion: float
    net_defect: float
    ball_size: int
    target_ball_size: int
    failure: str = ""


def epsilon_isometry(
    grid_f: ConeGrid,
    grid_fn: ConeGrid,
    r: float,
    p0: tuple[int, int],
    eps: float,
) -> EpsilonIsometryResult:
    """Build the almost-isometry between closed r-balls around p0: identity on
    the shrunken ball, nearest-point reassignment within eps elsewhere.

    Checks, in order: the two ball inclusions and the pointwise deviation
    below eps (failing these reports which inclusion broke), then that the
    image is an eps-net of the target ball and that distances are preserved
    within 3 eps. A pass certifies a Gromov-Hausdorff bound of 6 eps.
    """
    if grid_f.n_points != grid_fn.n_points or grid_f.m != grid_fn.m:
        raise InvalidInputError("cones must share the grid")
    if not (r > 0 and eps > 0):
        raise ParameterError("need positive radius and eps")
    mat_f = null_distance(grid_f).full_matrix()
    mat_fn = null_distance(grid_fn).full_matrix()
    c0 = grid_f.node(*p0)
    ball_f = np.nonzero(mat_f[c0] <= r + 1e-12)[0]
    ball_fn = np.nonzero(mat_fn[c0] <= r + 1e-12)[0]
    inner_fn = np.nonzero(mat_fn[c0] <= (1.0 - eps) * r + 1e-12)[0]
    outer_fn = set(np.nonzero(mat_fn[c0] <= (1.0 + eps) * r + 1e-12)[0].tolist())

    ball_f_set = set(ball_f.tolist())
    if not set(inner_fn.tolist()) <= ball_f_set:
        return EpsilonIsometryResult(
            False, eps, math.nan, math.nan, math.nan, ball_f.size, ball_fn.size,
            failure="inclusion D_fn_(1-eps)r !<= D_f_r",
        )
    if not ball_f_set <= outer_fn:
        return EpsilonIsometryResult(
            False, eps, math.nan, math.nan, math.nan, ball_f.size, ball_fn.size,
            failure="inclusion D_f_r !<= D_fn_(1+eps)r",
        )
    dev = float(np.max(np.abs(mat_f[np.ix_(ball_f, ball_f)] - mat_fn[np.ix_(ball_f, ball_f)])))
    if dev > eps + 1e-12:
        return EpsilonIsometryResult(
            False, eps, math.nan, math.nan, math.nan, ball_f.size, ball_fn.size,
            failure=f"pointwise deviation {dev!r} exceeds eps",
        )

    inner_set = set(inner_fn.tolist())
    ball_fn_set = ball_fn
    image = np.empty(ball_f.size, dtype=np.int64)
    for idx, p in enumerate(ball_f):
        if int(p) in inner_set:
            image[idx] = p
            continue
        cand = ball_fn_set[np.argmin(mat_fn[p, ball_fn_set])]
        if mat_fn[p, cand] > eps + 1e-12:
            return EpsilonIsometryResult(
                False, eps, math.nan, math.nan, math.nan, ball_f.size, ball_fn.size,
                failure=f"no reassignment within eps for node {int(p)}",
            )
        image[idx] = cand

    net_defect = float(np.max(np.min(mat_fn[np.ix_(ball_fn, image)], axis=1)))
    dis = float(
        np.max(
            np.abs(
                mat_f[np.ix_(ball_f, ball_f)] - mat_fn[np.ix_(image, image)]
            )
        )
    )
    passed = net_defect <= eps + 1e-12 and dis <= 3.0 * eps + 1e-12
    return EpsilonIsometryResult(
        passed,
        eps,
        6.0 * eps if passed else math.nan,
        dis,
        net_defect,
        ball_f.size,
        ball_fn.size,
        failure="" if passed else "distortion or net property failed",
    )


# ---------------------------------------------------------------------------
# uniform total boundedness


@dataclass
class NetCertificate:
    t_net: EpsilonNet
    fiber_net: EpsilonNet
    mesh: float
    net_size: int
    member_worst: list  # (index, worst distance to the net) per certified member
    excluded: list  # (index, diagnostic)

    @property
    def certified(self) -> bool:
        return all(w <= self.mesh + 1e-12 for _, w in self.member_worst)


def uniform_total_boundedness(
    family: Sequence[WarpingFunction],
    fiber: FiniteLengthSpace,
    interval: tuple[float, float],
    eps: float,
    bound: float,
    n_t: int = 50,
) -> NetCertificate:
    """Certify one eps*max(1,C) product net for every cone in the family.

    Builds eps-nets on the interval grid and on the fiber, and verifies by
    exhaustive distance evaluation that their product is an eps*max(1,C)-net
    of (cone, dhat_f) for every member with f <= C; members exceeding the
    bound are excluded with a diagnostic. The nets are built to a covering
    radius slightly inside eps (by the grid quantum) so that the certificate
    survives the exhaustive check despite discretization.
    """
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    iv = Interval(*interval)
    slack = (2.0 + bound) * (iv.length / n_t) / max(1.0, bound)
    eff = eps - slack
    if eff <= 0:
        raise ParameterError(
            f"eps={eps!r} below the grid quantum; refine the grid (n_t={n_t})"
        )
    t_vals = iv.grid(n_t)
    t_space = FiniteLengthSpace(
        tuple(range(t_vals.size)), np.abs(t_vals[:, None] - t_vals[None, :])
    )
    t_net = epsilon_net(t_space, eff)
    fiber_net = epsilon_net(fiber, eff)
    mesh = eps * max(1.0, bound)
    net_points = [
        (int(i), int(j))
        for i in t_net.center_indices
        for j in fiber_net.center_indices
    ]

    worst: list[tuple[int, float]] = []
    excluded: list[tuple[int, str]] = []
    for idx, f in enumerate(family):
        f_max = f.extrema()[1]
        if f_max > bound + 1e-12:
            excluded.append((idx, f"max f = {f_max!r} exceeds the bound {bound!r}"))
            continue
        grid = ConeGrid(iv, fiber, f, n_t)
        rows = null_distance(grid, sources=net_points)
        worst.append((idx, float(np.max(np.min(rows.rows, axis=0)))))
    return NetCertificate(t_net, fiber_net, mesh, len(net_points), worst, excluded)
