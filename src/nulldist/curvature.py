"""Synthetic timelike curvature bounds on cone grids.

Triangles with chronologically ordered vertices are compared against their
realization in the constant-curvature Lorentzian model plane: a lower bound
K requires cone time separations between side points to stay at or below the
model values at equal separations from the vertices; an upper bound reverses
the inequality. Warping-function concavity (f'' - K'f <= 0) and the induced
fiber bound sup(K'f^2 - f'^2) feed the curvature-persistence experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cone import ConeGrid, _level_step_weights, time_separation, time_separation_path
from .errors import InvalidInputError, ModelConstraintError, ParameterError
from .metric_core import (
    GH_SIZE_CAP,
    FiniteLengthSpace,
    gh_distance_exact,
    quadruple_curvature_check,
)
from .model_spaces import (
    l2k_time_separation,
    model_size_bound,
    point_on_side,
    realize_timelike_triangle,
)
from .reporting import Verdict
from .warping import Interval, WarpingFunction

LOWER, UPPER = "lower", "upper"


@dataclass
class TimelikeTriangle:
    x: tuple
    y: tuple
    z: tuple
    a: float  # rho(x, y)
    b: float  # rho(y, z)
    c: float  # rho(x, z)
    side_paths: dict  # side -> (vertex list, accumulated rho along the path)

    def vertices(self) -> tuple:
        return (self.x, self.y, self.z)


@dataclass
class CurvatureVerdict:
    bound: float
    direction: str
    passed: bool
    tol: float
    worst_witness: Optional[dict] = None
    n_probes: int = 0

    def __bool__(self) -> bool:
        return self.passed


def _accumulate(grid: ConeGrid, path: list) -> np.ndarray:
    """Accumulated single-step segment lengths along a DP path."""
    acc = [0.0]
    for (i, j), (_, k) in zip(path, path[1:]):
        acc.append(acc[-1] + float(_level_step_weights(grid, i, grid.fiber.dist[j, k])))
    return np.asarray(acc)


def _triangle_from_vertices(
    grid: ConeGrid, x: tuple, y: tuple, z: tuple
) -> Optional[TimelikeTriangle]:
    sides = {}
    lengths = {}
    for name, (p, q) in (("xy", (x, y)), ("yz", (y, z)), ("xz", (x, z))):
        val, path = time_separation_path(grid, p, q)
        if val <= 0 or not path:
            return None
        sides[name] = (path, _accumulate(grid, path))
        lengths[name] = val
    return TimelikeTriangle(
        tuple(x), tuple(y), tuple(z),
        lengths["xy"], lengths["yz"], lengths["xz"], sides,
    )


def sample_timelike_triangles(
    grid: ConeGrid,
    count: int,
    seed: int,
    size_bound: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> tuple[list, dict]:
    """Seeded sample of chronologically ordered vertex triples with positive
    time separations and attached maximizing paths.

    Triples whose sides exceed `size_bound` are filtered and counted. Returns
    (triangles, diagnostics)."""
    rng = np.random.default_rng(seed)
    triangles: list[TimelikeTriangle] = []
    filtered = 0
    attempts = 0
    cap = max_attempts if max_attempts is not None else max(200, 60 * count)
    row_cache: dict[tuple, np.ndarray] = {}

    def rho_row(p: tuple) -> np.ndarray:
        if p not in row_cache:
            row_cache[p] = time_separation(grid, sources=[p]).rows[0]
        return row_cache[p]

    def admit(x: tuple, y: tuple, z: tuple) -> None:
        nonlocal filtered
        if rho_row(x)[grid.node(*y)] <= 0 or rho_row(y)[grid.node(*z)] <= 0:
            return
        if rho_row(x)[grid.node(*z)] <= 0:
            return
        tri = _triangle_from_vertices(grid, x, y, z)
        if tri is None:
            return
        if size_bound is not None and max(tri.a, tri.b, tri.c) >= size_bound:
            filtered += 1
            return
        triangles.append(tri)

    # extremal seeds first: vertices spread across the fiber catch branching
    # geometry that uniform sampling tends to miss
    d = grid.fiber.dist
    j1, j2 = map(int, np.unravel_index(int(np.argmax(d)), d.shape))
    j3 = int(np.argmax(np.minimum(d[j1], d[j2])))
    mid = grid.n_levels // 2
    top = grid.n_levels - 1
    for x, y, z in (
        ((0, j1), (mid, j3), (top, j2)),
        ((0, j1), (mid, j2), (top, j1)),
        ((0, j3), (mid, j1), (top, j2)),
    ):
        if len(triangles) < count and grid.m > 1:
            admit(x, y, z)

    while len(triangles) < count and attempts < cap:
        attempts += 1
        i_x = int(rng.integers(0, max(1, grid.n_levels - 2)))
        j_x = int(rng.integers(0, grid.m))
        x = (i_x, j_x)
        fut_x = np.nonzero(rho_row(x) > 0)[0]
        if fut_x.size == 0:
            continue
        y = grid.point(int(rng.choice(fut_x)))
        fut_y = np.nonzero(rho_row(y) > 0)[0]
        good = fut_y[rho_row(x)[fut_y] > 0]
        if good.size == 0:
            continue
        admit(x, y, grid.point(int(rng.choice(good))))
    diag = {
        "attempts": attempts,
        "filtered_by_size": filtered,
        "found": len(triangles),
    }
    if not triangles:
        diag["note"] = "no admissible triangles (size filter or too few chronological triples)"
    return triangles, diag


_PROBE_SCHEME = (
    ("xy", 0.5, "xz", 0.5),
    ("yz", 0.5, "xz", 0.5),
    ("xy", 0.5, "yz", 0.5),
    ("xy", 0.25, "xz", 0.75),
    ("xz", 0.25, "yz", 0.75),
    ("xy", 0.75, "xz", 0.25),
    ("yz", 0.25, "xz", 0.5),
    ("xy", 0.5, "xz", 0.75),
    ("xy", 0.25, "yz", 0.75),
    ("xz", 0.5, "yz", 0.75),
)


def _snap(tri: TimelikeTriangle, side: str, frac: float) -> tuple[tuple, float, float]:
    """Nearest path vertex to the requested fractional separation; returns
    (vertex, achieved separation, snap error)."""
    path, acc = tri.side_paths[side]
    target = frac * acc[-1]
    k = int(np.argmin(np.abs(acc - target)))
    return path[k], float(acc[k]), float(abs(acc[k] - target))


def triangle_comparison(
    grid: ConeGrid,
    tri: TimelikeTriangle,
    bound: float,
    direction: str,
    n_probe: int,
    tol: float,
    rho_cache: Optional[dict] = None,
) -> CurvatureVerdict:
    """Compare probe-pair time separations against the model triangle.

    Probes sit on the maximizing side paths at prescribed fractions of the
    side separations, snapped to path vertices; the model points use the
    achieved separations. The measured snap errors are added to the
    tolerance for the pass/fail decision, and both the raw margin and the
    slack are reported. direction "lower" demands rho <= rho' on every probe
    pair, "upper" the reverse.
    """
    if direction not in (LOWER, UPPER):
        raise ParameterError(f"direction must be '{LOWER}' or '{UPPER}'")
    if tol < 0:
        raise ParameterError("tol must be nonnegative")
    if n_probe < 1:
        raise ParameterError(f"n_probe must be at least 1, got {n_probe!r}")
    model = realize_timelike_triangle(bound, tri.a, tri.b, tri.c)
    cache = rho_cache if rho_cache is not None else {}

    def rho(p: tuple, q: tuple) -> float:
        if p[0] > q[0]:
            return 0.0
        if p not in cache:
            cache[p] = time_separation(grid, sources=[p]).rows[0]
        return float(cache[p][grid.node(*q)])

    worst = None
    worst_adjusted = math.inf
    n_done = 0
    for side_a, frac_a, side_b, frac_b in _PROBE_SCHEME[:n_probe]:
        p, s_a, err_a = _snap(tri, side_a, frac_a)
        q, s_b, err_b = _snap(tri, side_b, frac_b)
        slack = err_a + err_b
        p_model = point_on_side(model, side_a, min(s_a, model.side_length(side_a)))
        q_model = point_on_side(model, side_b, min(s_b, model.side_length(side_b)))
        if p[0] <= q[0]:
            rho_cone = rho(p, q)
            rho_model = l2k_time_separation(bound, p_model, q_model)
        else:
            rho_cone = rho(q, p)
            rho_model = l2k_time_separation(bound, q_model, p_model)
        margin = (rho_model - rho_cone) if direction == LOWER else (rho_cone - rho_model)
        n_done += 1
        if margin + slack < worst_adjusted:
            worst_adjusted = margin + slack
            worst = {
                "triangle": tri.vertices(),
                "probes": (tuple(p), tuple(q)),
                "rho_cone": rho_cone,
                "rho_model": rho_model,
                "margin": margin,
                "snap_slack": slack,
            }
    return CurvatureVerdict(
        bound,
        direction,
        bool(worst_adjusted >= -tol),
        tol,
        worst,
        n_done,
    )


def dp_refinement_error(
    grid: ConeGrid, pairs: Sequence[tuple[tuple, tuple]]
) -> float:
    """Measured time-separation change when the t-grid is halved; a proxy for
    the DP discretization error on the given pairs."""
    if grid.n_t % 2 or grid.n_t < 2:
        raise ParameterError("need an even t-resolution to halve")
    coarse = ConeGrid(grid.interval, grid.fiber, grid.warping, grid.n_t // 2)
    worst = 0.0
    for p, q in pairs:
        if p[0] % 2 or q[0] % 2:
            continue
        fine_val = time_separation(grid, sources=[p]).value(p, q)
        cp, cq = (p[0] // 2, p[1]), (q[0] // 2, q[1])
        coarse_val = time_separation(coarse, sources=[cp]).value(cp, cq)
        worst = max(worst, abs(fine_val - coarse_val))
    return worst


# ---------------------------------------------------------------------------
# warping-function conditions


def concavity_check(
    warping: WarpingFunction, k_prime: float, mode: str = "concave"
) -> Verdict:
    """Evaluate f'' - K'f on an oversampled grid: concave mode passes when it
    stays below 1e-9 everywhere, convex mode when it stays above -1e-9."""
    if mode not in ("concave", "convex"):
        raise ParameterError("mode must be 'concave' or 'convex'")
    ts = warping.domain.grid(2000)
    vals = np.asarray(warping.second_derivative(ts)) - k_prime * np.asarray(
        warping.value(ts)
    )
    detail = ""
    if warping.kind == "tabulated":
        h = warping.tabulated_step() or 1.0
        noise = 4.0 * np.finfo(float).eps * float(np.max(np.abs(warping.value(ts)))) / h**2
        scale = float(np.max(np.abs(vals))) or 1.0
        if noise > 0.1 * scale:
            detail = (
                f"tabulated grid too coarse: second differences carry noise "
                f"~{noise:.2e} against signal {scale:.2e}"
            )
    if mode == "concave":
        worst = float(vals.max())
        return Verdict(worst <= 1e-9, witness=worst, detail=detail)
    worst = float(vals.min())
    return Verdict(worst >= -1e-9, witness=worst, detail=detail)


def compute_fiber_bound(warping: WarpingFunction, k_prime: float) -> float:
    """sup over the domain of K' f^2 - (f')^2, the induced fiber curvature bound."""
    ts = warping.domain.grid(2000)
    f = np.asarray(warping.value(ts), dtype=float)
    df = np.asarray(warping.derivative(ts), dtype=float)
    return float(np.max(k_prime * f * f - df * df))


# ---------------------------------------------------------------------------
# persistence experiments


@dataclass
class PersistenceReport:
    mode: str
    fiber_quadruples: list  # (label, k, QuadrupleVerdict)
    cone_verdicts: list  # (label, CurvatureVerdict)
    gh_precondition: list  # (label, 2 * exact GH distance to the limit, nan above GH_SIZE_CAP)
    concavity: list = field(default_factory=list)
    fiber_bounds: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    cone_n_t: list = field(default_factory=list)  # (label, n_t after _adapted_n_t)

    def cross_tab(self) -> list:
        rows = []
        for (label, k, qv) in self.fiber_quadruples:
            cone = next((cv for lbl, cv in self.cone_verdicts if lbl == label), None)
            rows.append(
                {
                    "label": label,
                    "fiber_k": k,
                    "fiber_pass": bool(qv.passed),
                    "cone_pass": None if cone is None else bool(cone.passed),
                }
            )
        return rows


def _gh_precondition(
    fibers: Sequence[FiniteLengthSpace], limit: FiniteLengthSpace
) -> list:
    out = []
    for idx, fib in enumerate(fibers):
        if fib.n * limit.n <= GH_SIZE_CAP:
            out.append((f"fiber{idx}", 2.0 * gh_distance_exact(fib, limit).distance))
        else:
            out.append((f"fiber{idx}", math.nan))
    return out


def _adapted_n_t(interval: tuple[float, float], fiber: FiniteLengthSpace,
                 warping: WarpingFunction, n_t: int) -> int:
    """Clamp the t-resolution so single-level steps can traverse typical
    fiber gaps: the longest-path construction needs several fiber moves
    (five) per time step to resolve maximizers."""
    d = fiber.dist.copy()
    np.fill_diagonal(d, np.inf)
    nn = np.min(d, axis=1)
    h_typ = float(np.median(nn[np.isfinite(nn)])) if np.isfinite(nn).any() else 0.0
    if h_typ <= 0:
        return n_t
    length = interval[1] - interval[0]
    f_lo, f_hi = warping.extrema()
    f_ref = 0.5 * (f_lo + f_hi)
    target = int(round(length / (5.0 * h_typ * f_ref)))
    return max(6, min(n_t, target))


def persistence_experiment(
    mode: str,
    fibers: Sequence[FiniteLengthSpace],
    fiber_limit: FiniteLengthSpace,
    interval: tuple[float, float],
    n_t: int,
    seed: int,
    n_triangles: int,
    n_probe: int,
    tol: float,
    side_cap: Optional[float] = None,
    warpings: Optional[Sequence[WarpingFunction]] = None,
    warping_limit: Optional[WarpingFunction] = None,
    k_primes: Optional[Sequence[float]] = None,
    k_prime: float = 0.0,
    quad_tol: float = 1e-6,
) -> PersistenceReport:
    """Cross-tabulate fiber curvature bounds against cone triangle comparisons.

    mode "product": unit warping, fiber quadruple test at k = 0 against cone
    comparisons at K = 0. mode "minkowski-cone": identity warping on a
    truncated interval, fiber test at k = -1 against cone comparisons at
    K = 0. mode "warped": concavity of each warping at its K', fiber tests at
    k = sup(K' f^2 - f'^2), limit cone comparison at K = K'.
    """
    report = PersistenceReport(mode, [], [], _gh_precondition(fibers, fiber_limit))
    iv = Interval(*interval)

    if mode == "warped":
        if warpings is None or warping_limit is None:
            raise InvalidInputError("warped mode needs the warping sequence and its limit")
        kps = list(k_primes) if k_primes is not None else [k_prime] * len(warpings)
        for idx, (w, kp) in enumerate(zip(warpings, kps)):
            report.concavity.append((f"warping{idx}", concavity_check(w, kp)))
            k_n = compute_fiber_bound(w, kp)
            report.fiber_bounds.append((f"warping{idx}", k_n))
            if idx < len(fibers):
                report.fiber_quadruples.append(
                    (f"fiber{idx}", k_n, quadruple_curvature_check(fibers[idx], k_n, quad_tol))
                )
        report.concavity.append(("limit", concavity_check(warping_limit, k_prime)))
        k_lim = compute_fiber_bound(warping_limit, k_prime)
        report.fiber_bounds.append(("limit", k_lim))
        report.fiber_quadruples.append(
            ("limit", k_lim, quadruple_curvature_check(fiber_limit, k_lim, quad_tol))
        )
        grid = ConeGrid(
            iv, fiber_limit, warping_limit, _adapted_n_t(interval, fiber_limit, warping_limit, n_t)
        )
        report.cone_n_t.append(("limit", grid.n_t))
        report.cone_verdicts.append(
            ("limit", _best_triangle_verdict(grid, k_prime, LOWER, n_triangles, n_probe, tol, seed, side_cap))
        )
        return report

    # the two flat modes: fiber test at k against cone comparisons at K = 0
    if mode == "product":
        warp, k = WarpingFunction.constant(1.0, iv), 0.0
    elif mode == "minkowski-cone":
        if iv.a <= 0:
            raise ParameterError("minkowski-cone mode needs a truncated interval with a > 0")
        warp, k = WarpingFunction.affine(0.0, 1.0, iv), -1.0
        report.notes.append(
            "agreement of the two columns is the expected equivalence; "
            "disagreement at coarse grids may be discretization error"
        )
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    labels = [f"fiber{idx}" for idx in range(len(fibers))] + ["limit"]
    for label, fib in zip(labels, list(fibers) + [fiber_limit]):
        report.fiber_quadruples.append((label, k, quadruple_curvature_check(fib, k, quad_tol)))
        grid = ConeGrid(iv, fib, warp, _adapted_n_t(interval, fib, warp, n_t))
        report.cone_n_t.append((label, grid.n_t))
        report.cone_verdicts.append(
            (label, _best_triangle_verdict(grid, 0.0, LOWER, n_triangles, n_probe, tol, seed))
        )
    return report


def _margin_with_snap(v: CurvatureVerdict) -> float:
    """The verdict's worst probe margin plus its snap slack (inf without one)."""
    w = v.worst_witness or {}
    return w.get("margin", math.inf) + w.get("snap_slack", 0.0)


def _best_triangle_verdict(
    grid: ConeGrid,
    bound: float,
    direction: str,
    n_triangles: int,
    n_probe: int,
    tol: float,
    seed: int,
    side_cap: Optional[float] = None,
) -> CurvatureVerdict:
    """Sample triangles and return the verdict carrying the worst probe margin."""
    size_bound = model_size_bound(bound)
    if side_cap is not None:
        size_bound = min(side_cap, size_bound)
    tris, diag = sample_timelike_triangles(grid, n_triangles, seed, size_bound)
    if not tris:
        return CurvatureVerdict(bound, direction, False, tol, {"diagnostic": diag})
    worst: Optional[CurvatureVerdict] = None
    worst_key = math.inf
    cache: dict = {}
    for tri in tris:
        try:
            v = triangle_comparison(grid, tri, bound, direction, n_probe, tol, cache)
        except ModelConstraintError:
            continue
        key = _margin_with_snap(v)
        if worst is None or key < worst_key:
            worst, worst_key = v, key
    if worst is None:
        return CurvatureVerdict(
            bound, direction, False, tol, {"diagnostic": "all sampled triangles inadmissible"}
        )
    return worst
