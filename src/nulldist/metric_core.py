"""Finite length spaces, epsilon-nets, exact Gromov-Hausdorff distance and
the quadruple test for lower curvature bounds.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DisconnectedGraphError,
    InvalidInputError,
    ParameterError,
    SizeBoundError,
)
from .model_spaces import comparison_angle_many
from .reporting import ValidationReport, Verdict

METRIC_TOL = 1e-12

# Exhaustive correspondence search is refused above this |A|*|B| product.
GH_SIZE_CAP = 25


@dataclass(frozen=True, eq=False)
class FiniteLengthSpace:
    """A finite point set with an intrinsic (shortest-path style) metric.

    `dist` is a symmetric nonnegative matrix; `provenance` records whether it
    was supplied directly or induced from a weighted graph.
    """

    point_ids: tuple
    dist: np.ndarray
    provenance: str = "matrix-input"

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError(f"distance matrix must be square, got {d.shape}")
        if len(self.point_ids) != d.shape[0]:
            raise InvalidInputError("point_ids length does not match matrix size")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "point_ids", tuple(self.point_ids))

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def path_space(n_points: int, length: float = 1.0) -> FiniteLengthSpace:
    """Evenly spaced points on a segment of the given length."""
    if n_points < 1:
        raise ParameterError("need at least one point")
    xs = np.linspace(0.0, length, n_points)
    dist = np.abs(xs[:, None] - xs[None, :])
    return FiniteLengthSpace(tuple(range(n_points)), dist, "matrix-input")


def circle_space(n_points: int, circumference: float = 1.0) -> FiniteLengthSpace:
    """Evenly spaced points on a circle with the arc-length metric."""
    if n_points < 1:
        raise ParameterError("need at least one point")
    idx = np.arange(n_points)
    steps = np.abs(idx[:, None] - idx[None, :])
    steps = np.minimum(steps, n_points - steps)
    dist = steps * (circumference / n_points)
    return FiniteLengthSpace(tuple(range(n_points)), dist.astype(float), "matrix-input")


def tripod_space(leg_points: int, leg_length: float = 1.0) -> FiniteLengthSpace:
    """Three segments of equal length glued at a hub.

    Point 0 is the hub; leg k occupies indices [1 + k*leg_points,
    1 + (k+1)*leg_points), ordered outward. Distances go through the hub
    whenever the endpoints sit on different legs.
    """
    if leg_points < 1:
        raise ParameterError("need at least one point per leg")
    h = leg_length / leg_points
    # radial coordinate of every point (hub has 0)
    radius = np.zeros(1 + 3 * leg_points)
    leg = np.zeros(1 + 3 * leg_points, dtype=int)
    for k in range(3):
        sl = slice(1 + k * leg_points, 1 + (k + 1) * leg_points)
        radius[sl] = h * np.arange(1, leg_points + 1)
        leg[sl] = k + 1
    same = leg[:, None] == leg[None, :]
    through_hub = radius[:, None] + radius[None, :]
    along_leg = np.abs(radius[:, None] - radius[None, :])
    dist = np.where(same, along_leg, through_hub)
    return FiniteLengthSpace(tuple(range(dist.shape[0])), dist, "matrix-input")


def validate_metric(space: FiniteLengthSpace) -> ValidationReport:
    """Check the finite-metric axioms to within METRIC_TOL, listing every
    violation with witnesses."""
    d = np.asarray(space.dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidInputError(f"distance matrix must be square, got {d.shape}")
    if not np.all(np.isfinite(d)):
        bad = np.argwhere(~np.isfinite(d))
        raise InvalidInputError(f"non-finite entries at {bad[:5].tolist()}")

    report = ValidationReport()
    n = d.shape[0]
    for i in np.nonzero(np.abs(np.diag(d)) > METRIC_TOL)[0]:
        report.add("nonzero-diagonal", (int(i),), f"d[{i},{i}]={d[i, i]!r}")
    asym = np.argwhere(np.abs(d - d.T) > METRIC_TOL)
    for i, j in asym:
        if i < j:
            report.add("asymmetry", (int(i), int(j)), f"{d[i, j]!r} != {d[j, i]!r}")
    nonpos = np.argwhere((d <= 0) & ~np.eye(n, dtype=bool))
    for i, j in nonpos:
        if i < j:
            report.add("nonpositive-off-diagonal", (int(i), int(j)), f"d={d[i, j]!r}")

    # triangle inequality, chunked over the middle index to bound memory
    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        bad = np.argwhere(slack > METRIC_TOL)
        for i, j in bad:
            if i != k and j != k and i != j:
                report.add(
                    "triangle",
                    (int(i), int(k), int(j)),
                    f"d[{i},{j}]={d[i, j]!r} > {d[i, k] + d[k, j]!r}",
                )
    return report


def _components(adj: np.ndarray) -> list[list[int]]:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        comps.append(comp)
    return comps


def intrinsic_metric(
    n_points: int, edges: Iterable[tuple[int, int, float]]
) -> FiniteLengthSpace:
    """All-pairs shortest-path metric of a weighted undirected graph."""
    weights = np.full((n_points, n_points), np.inf)
    np.fill_diagonal(weights, 0.0)
    touched = np.zeros((n_points, n_points), dtype=bool)
    for src, dst, w in edges:
        if not (0 <= src < n_points and 0 <= dst < n_points):
            raise InvalidInputError(f"edge ({src},{dst}) out of range")
        if src == dst:
            raise InvalidInputError(f"self-loop at {src}")
        if not (w > 0) or not math.isfinite(w):
            raise InvalidInputError(f"edge weight must be positive, got {w!r}")
        w = float(w)
        if w < weights[src, dst]:
            weights[src, dst] = weights[dst, src] = w
        touched[src, dst] = touched[dst, src] = True

    comps = _components(touched)
    if len(comps) > 1:
        raise DisconnectedGraphError(comps)

    return FiniteLengthSpace(tuple(range(n_points)), floyd_warshall(weights), "graph-induced")


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths over a dense weight matrix (+inf for no edge,
    0 on the diagonal), computed in place and returned. A symmetric input
    gives an exactly symmetric output."""
    dist = weights
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :], out=dist)
    return dist


def read_back_path(
    dist: np.ndarray, weight_row: Callable[[int], np.ndarray], src: int, dst: int
) -> list[int]:
    """Node sequence src -> dst of a shortest path, read back from the
    distances `dist` from src; weight_row(v) gives the edge weights w(u, v)
    into v from every node u (+inf for no edge).

    Walks from dst to src. Each step goes to an unvisited u with
    dist[u] + w(u, cur) within 1e-12 of dist[cur], taking the smallest
    dist[u] and then the smallest index (the order in which Dijkstra would
    settle them). Never revisiting a node keeps zero-weight edges from
    looping. Raises RuntimeError when no neighbour matches.
    """
    path = [dst]
    visited = np.zeros(dist.size, dtype=bool)
    visited[dst] = True
    while path[-1] != src:
        cur = path[-1]
        hit = np.abs(dist + weight_row(cur) - dist[cur]) <= 1e-12
        cand = np.nonzero(hit & ~visited)[0]
        if cand.size == 0:
            raise RuntimeError("backtracking lost the minimizing path")
        u = int(cand[np.argmin(dist[cand])])
        visited[u] = True
        path.append(u)
    return path[::-1]


@dataclass(frozen=True)
class EpsilonNet:
    center_indices: tuple
    radius: float
    covering_radius_achieved: float


def epsilon_net(space: FiniteLengthSpace, eps: float) -> EpsilonNet:
    """Greedy farthest-point net with exhaustively verified covering radius.

    Deterministic: starts from index 0, ties broken by smallest index.
    Centers are pairwise more than `eps` apart by construction.
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps!r}")
    d = space.dist
    centers = [0]
    min_dist = d[0].copy()
    while True:
        cov = float(min_dist.max())
        if cov <= eps:
            break
        far = int(np.argmax(min_dist))
        centers.append(far)
        np.minimum(min_dist, d[far], out=min_dist)
    cov = float(np.max(np.min(d[:, centers], axis=1)))
    return EpsilonNet(tuple(centers), float(eps), cov)


# ---------------------------------------------------------------------------
# correspondences, distortion, exact Gromov-Hausdorff distance


@dataclass(frozen=True)
class Correspondence:
    """A relation between index sets of two spaces with full projections."""

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(map(tuple, self.pairs)))))

    def is_valid_for(self, n_a: int, n_b: int) -> bool:
        if not self.pairs:
            return False
        left = {p[0] for p in self.pairs}
        right = {p[1] for p in self.pairs}
        if not all(0 <= i < n_a for i in left) or not all(0 <= j < n_b for j in right):
            raise InvalidInputError("correspondence index out of range")
        return left == set(range(n_a)) and right == set(range(n_b))


def identity_correspondence(n: int) -> Correspondence:
    return Correspondence(tuple((i, i) for i in range(n)))


def full_correspondence(n_a: int, n_b: int) -> Correspondence:
    return Correspondence(tuple(itertools.product(range(n_a), range(n_b))))


def all_correspondences(n_a: int, n_b: int) -> Iterator[Correspondence]:
    """Every correspondence between index sets (exhaustive; tiny inputs only)."""
    if n_a * n_b > 12:
        raise SizeBoundError("full enumeration limited to |A|*|B| <= 12")
    cells = list(itertools.product(range(n_a), range(n_b)))
    for mask in range(1, 1 << len(cells)):
        pairs = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        corr = Correspondence(pairs)
        if corr.is_valid_for(n_a, n_b):
            yield corr


def distortion(corr: Correspondence, a: FiniteLengthSpace, b: FiniteLengthSpace) -> float:
    """sup over related pairs of |d_A(i,i') - d_B(j,j')|."""
    if not corr.is_valid_for(a.n, b.n):
        raise InvalidInputError("correspondence does not have full projections")
    pairs = np.array(corr.pairs)
    da = a.dist[np.ix_(pairs[:, 0], pairs[:, 0])]
    db = b.dist[np.ix_(pairs[:, 1], pairs[:, 1])]
    return float(np.abs(da - db).max())


@dataclass(frozen=True)
class GHResult:
    distance: float
    witness: Correspondence


def gh_distance_exact(a: FiniteLengthSpace, b: FiniteLengthSpace) -> GHResult:
    """Exact Gromov-Hausdorff distance, (1/2) min over correspondences of the
    distortion, with one optimal correspondence as witness.

    Branch and bound over minimal correspondences: every column of B picks a
    row of A, then rows of A left uncovered pick a column each. Some optimal
    correspondence has this shape because distortion is monotone under adding
    pairs. Refuses instances with |A|*|B| > 25.
    """
    if a.n * b.n > GH_SIZE_CAP:
        raise SizeBoundError(
            f"exhaustive search refused: {a.n}*{b.n} > {GH_SIZE_CAP}; "
            "use distortion() with a supplied correspondence for an upper bound"
        )
    da, db = a.dist, b.dist
    best = [math.inf, None]

    def pair_stretch(pairs: list[tuple[int, int]], new: tuple[int, int]) -> float:
        i, j = new
        worst = 0.0
        for i2, j2 in pairs:
            worst = max(worst, abs(da[i, i2] - db[j, j2]))
        return worst

    def assign_rows(pairs: list[tuple[int, int]], rows: list[int], cur: float):
        # rows of A still uncovered each pick one column of B
        if cur >= best[0]:
            return
        if not rows:
            if cur < best[0]:
                best[0] = cur
                best[1] = tuple(pairs)
            return
        r, rest = rows[0], rows[1:]
        cands = sorted(range(b.n), key=lambda j: pair_stretch(pairs, (r, j)))
        for j in cands:
            inc = pair_stretch(pairs, (r, j))
            nxt = max(cur, inc)
            if nxt >= best[0]:
                # candidates are sorted by incremental stretch: no later column helps
                break
            pairs.append((r, j))
            assign_rows(pairs, rest, nxt)
            pairs.pop()

    def assign_cols(col: int, pairs: list[tuple[int, int]], covered: set[int], cur: float):
        if cur >= best[0]:
            return
        if col == b.n:
            rows_left = [i for i in range(a.n) if i not in covered]
            assign_rows(pairs, rows_left, cur)
            return
        cands = sorted(range(a.n), key=lambda i: pair_stretch(pairs, (i, col)))
        for i in cands:
            inc = pair_stretch(pairs, (i, col))
            nxt = max(cur, inc)
            if nxt >= best[0]:
                break
            pairs.append((i, col))
            newly = i not in covered
            if newly:
                covered.add(i)
            assign_cols(col + 1, pairs, covered, nxt)
            pairs.pop()
            if newly:
                covered.discard(i)

    assign_cols(0, [], set(), 0.0)
    return GHResult(0.5 * best[0], Correspondence(best[1]))


# ---------------------------------------------------------------------------
# quadruple test for a lower curvature bound


@dataclass(frozen=True)
class QuadrupleVerdict:
    k: float
    tol: float
    passed: bool
    worst_quadruple: Optional[tuple] = None
    worst_excess: float = -math.inf
    model_failure: Optional[tuple] = None
    subsampled_to: Optional[int] = None  # points kept when the space was subsampled

    def __bool__(self) -> bool:
        return self.passed


QUADRUPLE_SAMPLE_CAP = 60


def quadruple_curvature_check(
    space: FiniteLengthSpace,
    k: float,
    tol: float = 1e-9,
) -> QuadrupleVerdict:
    """Lower-curvature-bound test: for every ordered quadruple (p; a, b, c)
    the three comparison angles at p in the curvature-k model plane must sum
    to at most 2*pi + tol.

    Quadruples whose side lengths violate the model plane's constraints are
    reported as a model-constraint failure. Spaces larger than
    QUADRUPLE_SAMPLE_CAP points are reduced to a deterministic farthest-point
    subsample first, since the exhaustive quadruple count grows with the
    fourth power of the size.

    Work per base point: one comparison_angle_many call over the C(n - 1, 2)
    pairs of the other points and C(n - 1, 3) triple sums gathered from it.
    Spaces with a non-finite distance (points in different components) are
    refused: their comparison angles are undefined.
    """
    if tol < 0:
        raise ParameterError("tol must be nonnegative")
    if not np.all(np.isfinite(space.dist)):
        raise InvalidInputError("quadruple test needs finite distances")
    n = space.n
    subsampled_to: Optional[int] = None
    index_map = np.arange(n)
    d = space.dist
    if n > QUADRUPLE_SAMPLE_CAP:
        picks = [0]
        min_dist = d[0].copy()
        while len(picks) < QUADRUPLE_SAMPLE_CAP:
            far = int(np.argmax(min_dist))
            picks.append(far)
            np.minimum(min_dist, d[far], out=min_dist)
        index_map = np.array(sorted(set(picks)))
        d = d[np.ix_(index_map, index_map)]
        n = subsampled_to = int(index_map.size)
    if n < 4:
        return QuadrupleVerdict(k, tol, True, subsampled_to=subsampled_to)

    # pairs s < t of the n - 1 other points in triu order (the order of the
    # angles at p); triples a < b < c in lexicographic order as the positions
    # of their pairs ab, ac, bc; legs[j]:legs[j + 1] are the triples with a = j
    m = n - 1
    iu = np.triu_indices(m, k=1)
    pair = np.zeros((m, m), dtype=np.intp)
    pair[iu] = np.arange(iu[0].size)
    i = np.arange(m)
    ta, tb, tc = np.nonzero((i[:, None, None] < i[:, None]) & (i[:, None] < i))
    ab, ac, bc = pair[ta, tb], pair[ta, tc], pair[tb, tc]
    legs = np.searchsorted(ta, np.arange(m - 1))
    worst_excess = -math.inf
    worst_quad = None
    for p in range(n):
        oth = np.delete(np.arange(n), p)
        s, t = oth[iu[0]], oth[iu[1]]
        ax, bx, cy = d[s, t], d[p, s], d[p, t]
        try:
            angles = comparison_angle_many(k, ax, bx, cy)
        except ValueError as exc:
            # locate one offending pair for the witness
            for j in range(ax.size):
                try:
                    comparison_angle_many(k, ax[j : j + 1], bx[j : j + 1], cy[j : j + 1])
                except ValueError:
                    return QuadrupleVerdict(
                        k,
                        tol,
                        False,
                        model_failure=(
                            int(index_map[p]),
                            int(index_map[s[j]]),
                            int(index_map[t[j]]),
                            str(exc),
                        ),
                        subsampled_to=subsampled_to,
                    )
            raise
        tot = angles[ab] + angles[ac] + angles[bc]
        # first leg whose largest sum is strictly worst after taking off 2 pi,
        # then its first largest sum (sums below pi round together there, so
        # one argmax over tot may name another quadruple)
        excess = np.maximum.reduceat(tot, legs[:-1]) - 2.0 * math.pi
        g = int(np.argmax(excess))
        if excess[g] > worst_excess:
            worst_excess = float(excess[g])
            pos = legs[g] + int(np.argmax(tot[legs[g] : legs[g + 1]]))
            worst_quad = tuple(
                int(index_map[q]) for q in (p, oth[ta[pos]], oth[tb[pos]], oth[tc[pos]])
            )
    return QuadrupleVerdict(
        k,
        tol,
        bool(worst_excess <= tol),
        worst_quad,
        float(worst_excess),
        subsampled_to=subsampled_to,
    )


def verify_net(space: FiniteLengthSpace, net: EpsilonNet) -> Verdict:
    """Exhaustive check that every point lies within the achieved radius of a center."""
    cov = np.min(space.dist[:, list(net.center_indices)], axis=1)
    worst = int(np.argmax(cov))
    ok = bool(cov[worst] <= net.covering_radius_achieved + METRIC_TOL)
    return Verdict(ok, witness=None if ok else worst, detail=f"max min-dist {cov[worst]!r}")
