import itertools
import math
from typing import Iterator, Sequence

import numpy as np
import pytest

from nulldist import (
    Correspondence,
    DiscretePreLengthSpace,
    FiniteLengthSpace,
    Interval,
    WarpingFunction,
)
from nulldist.cone import _level_step_weights
from nulldist.formats import write_report_json
from nulldist.metric_core import distortion


def random_pre_length_space(n: int, seed: int) -> tuple[DiscretePreLengthSpace, np.ndarray]:
    """Random valid instance: a weighted random DAG induces the causal relation
    (reachability), rho (longest-path weights, so the reverse triangle
    inequality holds by construction) and chrono (positive rho). tau follows
    the topological order with jitter."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    weights = np.full((n, n), -np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.55:
                w = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 1.0))
                weights[order[a], order[b]] = w
    # max-plus closure over the DAG
    rho = weights.copy()
    for k in range(n):
        via = rho[:, k][:, None] + rho[k, :][None, :]
        rho = np.maximum(rho, via)
    reach = np.isfinite(rho)
    causal = reach | np.eye(n, dtype=bool)
    rho_mat = np.where(reach, np.maximum(rho, 0.0), 0.0)
    np.fill_diagonal(rho_mat, 0.0)
    chrono = rho_mat > 0

    pts = rng.uniform(0.0, 1.0, (n, 2))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dist, 0.0)
    base = FiniteLengthSpace(tuple(range(n)), dist)

    pos = np.empty(n)
    pos[order] = np.arange(n)
    tau = pos + rng.uniform(0.0, 0.45, n)
    return DiscretePreLengthSpace(base, causal, chrono, rho_mat), tau


def save_pls_json(path, space: DiscretePreLengthSpace, tau=None) -> None:
    """A pre-length-space document as `load_pls_json` reads it, with tau
    when given."""
    doc = {
        "points": list(space.base.point_ids),
        "dist": space.base.dist,
        "causal": space.causal.astype(int),
        "chrono": space.chrono.astype(int),
        "rho": space.rho,
    }
    if tau is not None:
        doc["tau"] = list(map(float, tau))
    write_report_json(path, doc)


def all_correspondences(n_a: int, n_b: int) -> Iterator[Correspondence]:
    """Every correspondence between index sets: the brute-force reference of
    the exact GH distance (tiny inputs only)."""
    assert n_a * n_b <= 12, "full enumeration limited to |A|*|B| <= 12"
    cells = list(itertools.product(range(n_a), range(n_b)))
    for mask in range(1, 1 << len(cells)):
        pairs = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        corr = Correspondence(pairs)
        if corr.is_valid_for(n_a, n_b):
            yield corr


@pytest.fixture
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture
def unit_warping(unit_interval):
    return WarpingFunction.constant(1.0, unit_interval)


def lifted_product_space(
    fiber: FiniteLengthSpace, t_grid: Sequence[float]
) -> FiniteLengthSpace:
    """The product cone over a shared t-grid as a finite metric space, with
    the closed-form unit-warping null distance."""
    t_grid = np.asarray(t_grid, dtype=float)
    n_lv = t_grid.size
    m = fiber.n
    dt = np.abs(t_grid[:, None] - t_grid[None, :])
    dist = np.maximum(dt[:, None, :, None], fiber.dist[None, :, None, :])
    dist = dist.reshape(n_lv * m, n_lv * m)
    ids = tuple((i, j) for i in range(n_lv) for j in range(m))
    return FiniteLengthSpace(ids, dist, "matrix-input")


def dense_lift_distortion(lifted, fiber_a, fiber_b, t_grid) -> float:
    """Distortion of a lifted correspondence measured on the dense lifted
    spaces: the oracle for the product-formula value of a lift."""
    return distortion(
        lifted, lifted_product_space(fiber_a, t_grid), lifted_product_space(fiber_b, t_grid)
    )


def reference_time_separation_path(grid, p, q):
    """The DP maximizer from p to q with every step length recomputed by
    `_level_step_weights` from the moves' fiber distances: the values level
    by level over a move list of its own, the fiber pairs (src, dst) causal
    across the widest level step sorted by dst and then src, then the
    backtrack to the smallest predecessor whose value plus step length meets
    the current value within 1e-12."""
    (i0, j0), (i1, j1) = p, q
    if p == q:
        return 0.0, [p]
    if i1 < i0:
        return 0.0, []
    gap = float(np.max(np.diff(grid.g_levels)))
    dst, src = np.nonzero(grid.fiber.dist.T <= gap + grid.causal_slack)
    indptr = np.searchsorted(dst, np.arange(grid.m + 1))
    dist = grid.fiber.dist[src, dst]
    vals = np.full((i1 - i0 + 1, grid.m), -np.inf)
    vals[0, j0] = 0.0
    for i in range(i0, i1):
        cand = vals[i - i0, src] + _level_step_weights(grid, i, dist)
        vals[i - i0 + 1] = np.maximum.reduceat(cand, indptr[:-1])
    total = vals[-1, j1]
    if not math.isfinite(total):
        return 0.0, []
    path = [(i1, j1)]
    cur = j1
    for i in range(i1 - 1, i0 - 1, -1):
        prev = src[indptr[cur] : indptr[cur + 1]]
        cand = vals[i - i0, prev] + _level_step_weights(grid, i, grid.fiber.dist[prev, cur])
        hit = np.nonzero(np.isfinite(cand) & (np.abs(cand - vals[i - i0 + 1, cur]) <= 1e-12))[0]
        cur = int(prev[hit[0]])
        path.append((i, cur))
    return float(max(total, 0.0)), path[::-1]


def reference_accumulate(grid, path):
    """Accumulated step lengths along a path, each recomputed by
    `_level_step_weights` from the fiber distance of the step."""
    acc = [0.0]
    for (i, j), (_, k) in zip(path, path[1:]):
        acc.append(acc[-1] + float(_level_step_weights(grid, i, grid.fiber.dist[j, k])))
    return np.asarray(acc)
