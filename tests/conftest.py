from typing import Sequence

import numpy as np
import pytest

from nulldist import (
    DiscretePreLengthSpace,
    FiniteLengthSpace,
    Interval,
    WarpingFunction,
)
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
