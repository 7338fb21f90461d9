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
from typing import Callable, Optional, Sequence

import numpy as np

from .cone import ConeGrid, _dp_rows, _read_back, time_separation
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
from .warping import SAMPLE_SEGMENTS, Interval, WarpingFunction

LOWER, UPPER = "lower", "upper"
_QUAD_TOL = 1e-6  # angle-sum tolerance of the fiber quadruple tests in persistence_experiment


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


def _triangle(
    grid: ConeGrid, x: tuple, y: tuple, z: tuple, row_of: Callable[[tuple], np.ndarray]
) -> Optional[TimelikeTriangle]:
    """The triangle x, y, z with its sides read back from the raw DP rows of x
    and y that `row_of` returns (None unless every side is positive)."""
    sides = {}
    lengths = {}
    for name, (p, q) in (("xy", (x, y)), ("yz", (y, z)), ("xz", (x, z))):
        val, path, acc = _read_back(grid, row_of(p), p, q)
        if val <= 0:
            return None
        sides[name] = (path, acc)
        lengths[name] = val
    return TimelikeTriangle(
        tuple(x), tuple(y), tuple(z),
        lengths["xy"], lengths["yz"], lengths["xz"], sides,
    )


def _triangle_from_vertices(
    grid: ConeGrid, x: tuple, y: tuple, z: tuple
) -> Optional[TimelikeTriangle]:
    """The triangle x, y, z from one DP run over the sources x and y."""
    for i, j in (x, y, z):
        grid._check_point(int(i), int(j))
    rows = dict(zip((tuple(x), tuple(y)), _dp_rows(grid, [x, y], grid.n_t)))
    return _triangle(grid, x, y, z, lambda p: rows[tuple(p)])


def sample_timelike_triangles(
    grid: ConeGrid,
    count: int,
    seed: int,
    size_bound: float = math.inf,
) -> tuple[list, dict]:
    """Seeded sample of chronologically ordered vertex triples with positive
    time separations and attached maximizing paths.

    Triples with a side of at least `size_bound` are filtered and counted.
    The extremal seed triples come first, then up to max(200, 60 * count)
    random attempts. Returns (triangles, diagnostics)."""
    rng = np.random.default_rng(seed)
    triangles: list[TimelikeTriangle] = []
    filtered = 0
    attempts = 0
    cap = max(200, 60 * count)
    row_cache: dict[tuple, np.ndarray] = {}

    def rho_row(p: tuple) -> np.ndarray:
        # raw rows (-inf off the future) pass the > 0 tests where clamped rows
        # do, and the sides of an admitted triangle are read back from them
        if p not in row_cache:
            row_cache[p] = _dp_rows(grid, [p], grid.n_t)[0]
        return row_cache[p]

    def admit(x: tuple, y: tuple, z: tuple) -> None:
        # the sides are the raw rows' entries, so the sign and size tests
        # need no path: only a triangle that passes both is read back
        nonlocal filtered
        sides = [rho_row(p)[grid.node(*q)] for p, q in ((x, y), (y, z), (x, z))]
        if min(sides) <= 0:  # -inf off the future: _triangle returns None
            return
        if max(sides) >= size_bound:
            filtered += 1
            return
        triangles.append(_triangle(grid, x, y, z, rho_row))

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


def _check_comparison(direction: str, n_probe: int, tol: float) -> None:
    if direction not in (LOWER, UPPER):
        raise ParameterError(f"direction must be '{LOWER}' or '{UPPER}'")
    if not (tol >= 0):
        raise ParameterError("tol must be nonnegative")
    if not 1 <= n_probe <= len(_PROBE_SCHEME):
        raise ParameterError(
            f"n_probe must be between 1 and {len(_PROBE_SCHEME)}, got {n_probe!r}"
        )


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
    _check_comparison(direction, n_probe, tol)
    model = realize_timelike_triangle(bound, tri.a, tri.b, tri.c)
    cache = rho_cache if rho_cache is not None else {}
    probes = []
    for side_a, frac_a, side_b, frac_b in _PROBE_SCHEME[:n_probe]:
        p, s_a, err_a = _snap(tri, side_a, frac_a)
        q, s_b, err_b = _snap(tri, side_b, frac_b)
        probes.append((p, q, side_a, s_a, side_b, s_b, err_a + err_b))
    # the earlier probe of a pair is its source: one DP run for those not cached
    sources = dict.fromkeys(p if p[0] <= q[0] else q for p, q, *_ in probes)
    missing = [s for s in sources if s not in cache]
    if missing:
        cache.update(zip(missing, time_separation(grid, sources=missing).rows))

    worst = None
    worst_adjusted = math.inf
    for p, q, side_a, s_a, side_b, s_b, slack in probes:
        p_model = point_on_side(model, side_a, min(s_a, model.side_length(side_a)))
        q_model = point_on_side(model, side_b, min(s_b, model.side_length(side_b)))
        if p[0] <= q[0]:
            rho_cone = float(cache[p][grid.node(*q)])
            rho_model = l2k_time_separation(bound, p_model, q_model)
        else:
            rho_cone = float(cache[q][grid.node(*p)])
            rho_model = l2k_time_separation(bound, q_model, p_model)
        margin = (rho_model - rho_cone) if direction == LOWER else (rho_cone - rho_model)
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
        n_probe,
    )


# ---------------------------------------------------------------------------
# warping-function conditions


def concavity_check(warping: WarpingFunction, k_prime: float) -> Verdict:
    """Evaluate f'' - K'f on an oversampled grid: passes when it stays below
    1e-9 everywhere."""
    ts = warping.domain.grid(SAMPLE_SEGMENTS)
    vals = np.asarray(warping.second_derivative(ts)) - k_prime * np.asarray(
        warping.value(ts)
    )
    detail = ""
    if warping.kind == "tabulated":
        h = warping.tabulated_step()
        noise = 4.0 * np.finfo(float).eps * float(np.max(np.abs(warping.value(ts)))) / h**2
        scale = float(np.max(np.abs(vals))) or 1.0
        if noise > 0.1 * scale:
            detail = (
                f"tabulated grid too coarse: second differences carry noise "
                f"~{noise:.2e} against signal {scale:.2e}"
            )
    worst = float(vals.max())
    return Verdict(worst <= 1e-9, witness=worst, detail=detail)


def compute_fiber_bound(warping: WarpingFunction, k_prime: float) -> float:
    """sup over the domain of K' f^2 - (f')^2, the induced fiber curvature bound."""
    ts = warping.domain.grid(SAMPLE_SEGMENTS)
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


def _sample_and_compare(grid: ConeGrid, bound: float, direction: str, n_triangles: int,
                        n_probe: int, tol: float, seed: int,
                        side_cap: Optional[float]) -> tuple[list, dict]:
    """Sample triangles under the model size bound (capped by `side_cap`) and
    compare each through one probe-row cache; returns (verdicts, diag). A
    triangle the model plane cannot realize is skipped and counted in
    diag["inadmissible"], a key written only when it is nonzero. The comparison
    parameters are checked before sampling, so their refusal does not depend
    on whether a triangle is found."""
    _check_comparison(direction, n_probe, tol)
    size_bound = model_size_bound(bound)
    if side_cap is not None:
        side_cap = float(side_cap)
        if math.isnan(side_cap):
            raise ParameterError("side_cap must not be NaN")
        size_bound = min(side_cap, size_bound)
    tris, diag = sample_timelike_triangles(grid, n_triangles, seed, size_bound)
    verdicts = []
    cache: dict = {}
    for tri in tris:
        try:
            verdicts.append(triangle_comparison(grid, tri, bound, direction, n_probe, tol, cache))
        except ModelConstraintError:
            diag["inadmissible"] = diag.get("inadmissible", 0) + 1
    return verdicts, diag


def _margin_with_snap(v: CurvatureVerdict) -> float:
    """The verdict's worst probe margin plus its snap slack: every verdict
    of `_sample_and_compare` has both, since it checks n_probe >= 1."""
    return v.worst_witness["margin"] + v.worst_witness["snap_slack"]


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
) -> PersistenceReport:
    """Cross-tabulate fiber curvature bounds against cone triangle comparisons.

    mode "product": unit warping, fiber quadruple test at k = 0 against cone
    comparisons at K = 0. mode "minkowski-cone": identity warping on a
    truncated interval, fiber test at k = -1 against cone comparisons at
    K = 0. mode "warped": concavity of each warping at its K', fiber tests at
    k = sup(K' f^2 - f'^2), limit cone comparison at K = K'.

    `side_cap` caps the triangle sides of the warped mode's limit cone only.
    Each cone verdict is the sampled one of lowest margin plus snap slack.
    """
    report = PersistenceReport(mode, [], [], _gh_precondition(fibers, fiber_limit))
    iv = Interval(*interval)

    # quadruple tests (label, fiber, k), cone cases (label, fiber, warping, K, side cap)
    if mode == "warped":
        if warpings is None or warping_limit is None:
            raise InvalidInputError("warped mode needs the warping sequence and its limit")
        kps = list(k_primes) if k_primes is not None else [k_prime] * len(warpings)
        if len(kps) != len(warpings):
            raise InvalidInputError(
                f"k_primes has {len(kps)} entries for {len(warpings)} warpings"
            )
        quads = []
        for idx, (w, kp) in enumerate(zip(warpings, kps)):
            report.concavity.append((f"warping{idx}", concavity_check(w, kp)))
            k_n = compute_fiber_bound(w, kp)
            report.fiber_bounds.append((f"warping{idx}", k_n))
            if idx < len(fibers):
                quads.append((f"fiber{idx}", fibers[idx], k_n))
        report.concavity.append(("limit", concavity_check(warping_limit, k_prime)))
        k_lim = compute_fiber_bound(warping_limit, k_prime)
        report.fiber_bounds.append(("limit", k_lim))
        quads.append(("limit", fiber_limit, k_lim))
        cones = [("limit", fiber_limit, warping_limit, k_prime, side_cap)]
    else:
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
        quads = [(label, fib, k) for label, fib in zip(labels, [*fibers, fiber_limit])]
        cones = [(label, fib, warp, 0.0, None) for label, fib, _ in quads]

    for label, fib, k in quads:
        report.fiber_quadruples.append((label, k, quadruple_curvature_check(fib, k, _QUAD_TOL)))
    for label, fib, warp, bound, cap in cones:
        grid = ConeGrid(iv, fib, warp, _adapted_n_t(interval, fib, warp, n_t))
        report.cone_n_t.append((label, grid.n_t))
        verdicts, diag = _sample_and_compare(grid, bound, LOWER, n_triangles, n_probe, tol, seed, cap)
        if verdicts:
            verdict = min(verdicts, key=_margin_with_snap)
        else:
            why = "all sampled triangles inadmissible" if diag["found"] else diag
            verdict = CurvatureVerdict(bound, LOWER, False, tol, {"diagnostic": why})
        report.cone_verdicts.append((label, verdict))
    return report
