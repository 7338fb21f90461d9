"""Convergence machinery for families of warped cones.

Uniformly convergent warping functions give uniformly convergent null
distances with an explicit two-sided estimate; correspondences between
fibers lift to product cones keeping their distortion exactly; a uniform
upper bound on the warpings makes the whole family totally bounded with a
single product net. The bounds f_min and f_max these estimates use are the
exact extrema of each warping kind, not samples. The deviation check sweeps
the limit and the members one chunk of sources at a time, so it holds two
chunks of null-distance rows, not one matrix per cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cone import (
    PAIR_BUDGET,
    _GATHER_CAP,
    ConeGrid,
    _grid_error,
    _sweep_chunks,
    null_distance,
    stratified_sources,
)
from .errors import InvalidInputError, ParameterError
from .metric_core import (
    Correspondence,
    EpsilonNet,
    FiniteLengthSpace,
    distortion,
    epsilon_net,
)
from .warping import SAMPLE_SEGMENTS, Interval, WarpingFunction


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
    """max |f - g| on a shared grid of SAMPLE_SEGMENTS segments joined with
    the critical points of both warpings; exact when both are piecewise
    linear, since f - g is then linear between consecutive points. Exact as
    well when one side is affine of slope 0, a constant c: |f - c| peaks
    where f does, at one of f's critical points, so this is
    max(|f_max - c|, |f_min - c|)."""
    if f.domain != g.domain:
        raise InvalidInputError("sup norm needs a shared domain")
    ts = np.concatenate([f.domain.grid(SAMPLE_SEGMENTS), f.critical_points(), g.critical_points()])
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


def _sandwich_margins(
    d_f: np.ndarray, d_j: np.ndarray, eps: float, f_min: float
) -> tuple[float, float, float]:
    """sup |d_j - d_f| and the lower and upper margins of the two-sided
    estimate of `null_convergence_check`, in blocks of rows under
    _GATHER_CAP entries: the extrema are exact, so the blocks change no bit
    and no temporary is full size."""
    block = max(1, _GATHER_CAP // d_f.shape[1])
    dev, low, up = [], [], []
    for lo in range(0, len(d_f), block):
        f, fj = d_f[lo : lo + block], d_j[lo : lo + block]
        lower = f - eps * (1.0 + 3.0 / f_min * f)
        upper = f + eps * (1.0 + 8.0 * eps / f_min + 8.0 / f_min * f)
        dev.append(np.max(np.abs(fj - f)))
        low.append(np.min(fj - lower))
        up.append(np.min(upper - fj))
    return float(np.max(dev)), float(np.min(low)), float(np.min(up))


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

    The sources go in the sweep engine's chunks (`cone._sweep_chunks`): the
    limit's rows of a chunk, then each member's, which are checked against
    them and dropped. Each member's margins over the chunks fold by max and
    min, which is exact, so no more than two chunks of rows are alive at
    once and the margins equal those of the full matrices bit for bit.
    """
    interval = Interval(seq.limit.domain.a, seq.limit.domain.b)
    grid_lim = ConeGrid(interval, fiber, seq.limit, n_t)
    f_min = grid_lim.f_min
    sources = stratified_sources(grid_lim, max_entries, seed)
    eps = [sup_norm(seq.limit, f_j) for f_j in seq.members]
    grids = {
        j: ConeGrid(interval, fiber, f_j, n_t)
        for j, f_j in enumerate(seq.members)
        if not eps[j] > f_min / 4.0
    }

    def chunk_margins(chunk):
        base = null_distance(grid_lim, sources=chunk).rows
        return [
            _sandwich_margins(base, null_distance(grid_j, sources=chunk).rows, eps[j], f_min)
            for j, grid_j in grids.items()
        ]

    per_chunk = [chunk_margins(chunk) for _, chunk in _sweep_chunks(grid_lim, sources)]
    # each checked member's (sup_deviation, lower, upper) per chunk
    margins = {j: np.array([c[k] for c in per_chunk]).T for k, j in enumerate(grids)}
    n_pairs = len(sources) * grid_lim.n_points
    members: list[MemberCheck] = []
    for j, e in enumerate(eps):
        if j not in margins:
            members.append(
                MemberCheck(j, e, math.nan, math.nan, math.nan, 0, True,
                            f"eps={e!r} > f_min/4={f_min / 4.0!r}")
            )
            continue
        dev, low, up = margins[j]
        members.append(MemberCheck(j, e, float(np.max(dev)), float(np.min(low)), float(np.min(up)), n_pairs))

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
    in_f = mat_f[c0] <= r + 1e-12
    inner = mat_fn[c0] <= (1.0 - eps) * r + 1e-12
    outer = mat_fn[c0] <= (1.0 + eps) * r + 1e-12
    ball_f = np.flatnonzero(in_f)
    ball_fn = np.flatnonzero(mat_fn[c0] <= r + 1e-12)

    def failed(why: str) -> EpsilonIsometryResult:
        return EpsilonIsometryResult(
            False, eps, math.nan, math.nan, math.nan, ball_f.size, ball_fn.size, failure=why
        )

    if not in_f[inner].all():
        return failed("inclusion D_fn_(1-eps)r !<= D_f_r")
    if not outer[in_f].all():
        return failed("inclusion D_f_r !<= D_fn_(1+eps)r")
    sub_f = mat_f[np.ix_(ball_f, ball_f)]
    dev = float(np.max(np.abs(sub_f - mat_fn[np.ix_(ball_f, ball_f)])))
    if dev > eps + 1e-12:
        return failed(f"pointwise deviation {dev!r} exceeds eps")

    # the inner ball maps to itself, every other point of D_f_r to its
    # nearest point of D_fn_r (the first one on ties)
    nearest = ball_fn[np.argmin(mat_fn[np.ix_(ball_f, ball_fn)], axis=1)]
    far = ~inner[ball_f] & (mat_fn[ball_f, nearest] > eps + 1e-12)
    if far.any():
        return failed(f"no reassignment within eps for node {int(ball_f[far.argmax()])}")
    image = np.where(inner[ball_f], ball_f, nearest)

    net_defect = float(np.max(np.min(mat_fn[np.ix_(ball_fn, image)], axis=1)))
    dis = float(np.max(np.abs(sub_f - mat_fn[np.ix_(image, image)])))
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
    n_t: int,
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
    slack = _grid_error(bound, iv.length / n_t) / max(1.0, bound)
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
