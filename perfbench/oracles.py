"""Reference values computed apart from nulldist, and their self-tests.

Nothing here imports nulldist: every oracle is written from the formulas of
the setting (warped cones I x_f X, Sormani-Vega null distance, Minkowski
time separation, Gromov-Hausdorff distance by exhaustion), so a fault in the
program cannot hide in the value it is checked against.

Run `python3 perfbench/oracles.py` to run the self-tests alone; the
benchmark runs them before its first timed call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class Wrong(Exception):
    """An output disagrees with its oracle or lacks a property it must have."""


def require(cond, what: str) -> None:
    if not cond:
        raise Wrong(what)


# ---------------------------------------------------------------------------
# warping functions: value, derivative and reciprocal antiderivative G


def warp_value(kind: str, p: dict, t):
    t = np.asarray(t, dtype=float)
    if kind == "constant":
        return np.full_like(t, p["value"])
    if kind == "affine":
        return p["intercept"] + p["slope"] * t
    if kind == "exponential":
        return p["amplitude"] * np.exp(p["rate"] * t)
    if kind == "cosh":
        return p["amplitude"] * np.cosh(p["rate"] * t)
    raise ValueError(kind)


def warp_G(kind: str, p: dict, a: float, t):
    """G(t) = integral from a to t of ds / f(s), in closed form."""
    t = np.asarray(t, dtype=float)
    if kind == "constant":
        return (t - a) / p["value"]
    if kind == "affine":
        c, m = p["intercept"], p["slope"]
        if m == 0:
            return (t - a) / c
        return np.log((c + m * t) / (c + m * a)) / m
    if kind == "exponential":
        amp, r = p["amplitude"], p["rate"]
        if r == 0:
            return (t - a) / amp
        return (np.exp(-r * a) - np.exp(-r * t)) / (amp * r)
    if kind == "cosh":
        amp, r = p["amplitude"], p["rate"]
        if r == 0:
            return (t - a) / amp
        return (np.arctan(np.sinh(r * t)) - np.arctan(np.sinh(r * a))) / (amp * r)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# null distance


def product_null_distance(c: float, dt, d):
    """Null distance of the product cone I x_c X over a geodesic fiber with a
    constant warping c: max(c d, |dt|)."""
    return np.maximum(c * np.asarray(d, dtype=float), np.abs(np.asarray(dt, dtype=float)))


def cone_shortest_paths(t_levels, g_levels, dist, tol: float = 1e-12):
    """All-pairs null distance of a small cone grid by Floyd-Warshall over the
    causal graph (edge weight |dt| between causally related points). `tol`
    keeps exactly-null pairs causal when their two sides differ by rounding."""
    t = np.asarray(t_levels, dtype=float)
    g = np.asarray(g_levels, dtype=float)
    m = dist.shape[0]
    gap = np.abs(g[:, None, None, None] - g[None, None, :, None])
    causal = (dist[None, :, None, :] <= gap + tol).reshape(t.size * m, t.size * m)
    tt = np.repeat(t, m)
    w = np.where(causal, np.abs(tt[:, None] - tt[None, :]), np.inf)
    np.fill_diagonal(w, 0.0)
    for k in range(w.shape[0]):
        np.minimum(w, w[:, k][:, None] + w[k, :][None, :], out=w)
    return w


def minkowski_separation(dt, d):
    """Time separation of 1+1 Minkowski space: sqrt(dt^2 - d^2) for dt > d,
    zero otherwise. On a cone with unit warping over a geodesic fiber this
    is the exact value that a grid longest-path scheme approximates from
    below."""
    dt = np.asarray(dt, dtype=float)
    d = np.asarray(d, dtype=float)
    return np.where(dt > d, np.sqrt(np.clip(dt * dt - d * d, 0.0, None)), 0.0)


def phi_constant(dphi, f, a: float, b: float, n: int = 20001) -> float:
    """c = max over [a, b] of 1 / (phi'(t) f(t)), on a fine sample."""
    ts = np.linspace(a, b, n)
    return float(np.max(1.0 / (np.asarray(dphi(ts)) * np.asarray(f(ts)))))


# ---------------------------------------------------------------------------
# finite metric spaces


def metric_violations(d, triples) -> tuple[float, float]:
    """(worst asymmetry, worst triangle excess d(x,z) - d(x,y) - d(y,z)) over
    the given index triples."""
    d = np.asarray(d, dtype=float)
    asym = float(np.max(np.abs(d - d.T))) if d.shape[0] == d.shape[1] else 0.0
    x, y, z = (np.asarray(v) for v in zip(*triples))
    excess = float(np.max(d[x, z] - d[x, y] - d[y, z]))
    return asym, excess


def brute_force_gh(da, db) -> float:
    """Gromov-Hausdorff distance by exhausting every correspondence: half the
    least distortion over all relations whose projections are onto."""
    na, nb = da.shape[0], db.shape[0]
    if na * nb > 12:
        raise ValueError("exhaustion limited to |A|*|B| <= 12")
    cells = list(itertools.product(range(na), range(nb)))
    best = math.inf
    for mask in range(1, 1 << len(cells)):
        pairs = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if {i for i, _ in pairs} != set(range(na)) or {j for _, j in pairs} != set(range(nb)):
            continue
        ia = np.array([i for i, _ in pairs])
        ib = np.array([j for _, j in pairs])
        dis = float(np.max(np.abs(da[np.ix_(ia, ia)] - db[np.ix_(ib, ib)])))
        best = min(best, dis)
    return 0.5 * best


def net_radii(d, centers) -> tuple[float, float]:
    """(covering radius, least distance between two distinct centers)."""
    d = np.asarray(d, dtype=float)
    centers = list(centers)
    cover = float(np.max(np.min(d[:, centers], axis=1)))
    if len(centers) < 2:
        return cover, math.inf
    sub = d[np.ix_(centers, centers)] + np.diag(np.full(len(centers), np.inf))
    return cover, float(sub.min())


def flat_angle(a: float, b: float, c: float) -> float:
    """Angle opposite side a in a Euclidean triangle with sides a, b, c."""
    cos = (b * b + c * c - a * a) / (2.0 * b * c)
    return math.acos(max(-1.0, min(1.0, cos)))


def tripod_hub_excess(leg: float = 1.0) -> float:
    """Quadruple excess of a tripod at k = 0: with the hub as base point and
    the three leg tips as the others, each comparison angle is a straight
    angle, so the sum is 3 pi and the excess over 2 pi is pi."""
    return 3.0 * flat_angle(2.0 * leg, leg, leg) - 2.0 * math.pi


# ---------------------------------------------------------------------------
# Minkowski sprinkles


def diamond_sprinkle(rng, n: int):
    """n points uniform in the causal diamond between (t, x) = (0, 0) and
    (1, 0), plus both tips, so that every point lies between two related
    points and the causal graph is connected. Returns (t, x)."""
    u = rng.random(n)
    v = rng.random(n)
    t = np.concatenate([[0.0], 0.5 * (u + v), [1.0]])
    x = np.concatenate([[0.0], 0.5 * (u - v), [0.0]])
    return t, x


def minkowski_relations(t, x):
    """Causal, chronological and time-separation matrices of points of 1+1
    Minkowski space."""
    dt = t[None, :] - t[:, None]
    dx = np.abs(x[None, :] - x[:, None])
    causal = dt >= dx
    chrono = dt > dx
    rho = np.where(chrono, np.sqrt(np.clip(dt * dt - dx * dx, 0.0, None)), 0.0)
    return causal, chrono, rho


def reverse_triangle_excess(causal, rho) -> float:
    """Worst rho(x,y) + rho(y,z) - rho(x,z) over causal chains x <= y <= z."""
    worst = -math.inf
    for y in range(rho.shape[0]):
        xs = np.nonzero(causal[:, y])[0]
        zs = np.nonzero(causal[y, :])[0]
        excess = rho[xs, y][:, None] + rho[y, zs][None, :] - rho[np.ix_(xs, zs)]
        worst = max(worst, float(excess.max()))
    return worst


# ---------------------------------------------------------------------------
# self-tests


def self_test() -> None:
    """Check each oracle against an independent computation or a known value.
    Raises Wrong on the first disagreement."""
    a, b = 0.0, 1.5
    ts = np.linspace(a, b, 7)
    for kind, p in (
        ("constant", {"value": 1.7}),
        ("affine", {"intercept": 1.2, "slope": 0.8}),
        ("affine", {"intercept": 2.0, "slope": -0.9}),
        ("exponential", {"amplitude": 0.7, "rate": 1.3}),
        ("cosh", {"amplitude": 1.1, "rate": 0.9}),
    ):
        fine = np.linspace(a, b, 200001)
        inv = 1.0 / warp_value(kind, p, fine)
        h = fine[1] - fine[0]
        cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (inv[1:] + inv[:-1]))])
        quad = np.interp(ts, fine, cum)
        err = float(np.max(np.abs(warp_G(kind, p, a, ts) - quad)))
        require(err <= 1e-9, f"closed-form G of {kind} off by {err:.2e} against quadrature")

    # the product formula against Floyd-Warshall on a fine grid: grid paths
    # are admissible curves, so the grid value sits at or above the formula
    # and within a couple of t-steps of it
    n_t, m = 12, 13
    tl = np.linspace(0.0, 1.0, n_t + 1)
    xs = np.linspace(0.0, 1.0, m)
    dist = np.abs(xs[:, None] - xs[None, :])
    for c in (1.0, 1.5):
        sp = cone_shortest_paths(tl, tl / c, dist)
        lv = np.repeat(np.arange(n_t + 1), m)
        fb = np.tile(np.arange(m), n_t + 1)
        oracle = product_null_distance(c, tl[lv][:, None] - tl[lv][None, :], dist[fb][:, fb])
        gap = sp - oracle
        require(gap.min() >= -1e-12, f"product formula above a grid path at c={c}")
        require(gap.max() <= 2.0 * c / n_t + 1e-12, f"grid far above the product formula at c={c}")

    require(abs(float(minkowski_separation(2.5, 2.0)) - 1.5) <= 1e-15, "minkowski 3-4-5")
    require(float(minkowski_separation(1.0, 1.0)) == 0.0, "null pairs have zero separation")

    rng = np.random.default_rng(0)
    pts = rng.random(3)
    da = np.abs(pts[:, None] - pts[None, :])
    require(brute_force_gh(da, da) == 0.0, "GH of a space with itself")
    one = np.zeros((1, 1))
    require(
        abs(brute_force_gh(da, one) - 0.5 * float(da.max())) <= 1e-15,
        "GH to a point is half the diameter",
    )

    cover, sep = net_radii(dist, [0, 6, 12])
    require(abs(cover - 0.25) <= 1e-15 and abs(sep - 0.5) <= 1e-15, "net radii of a path")

    require(abs(tripod_hub_excess() - math.pi) <= 1e-12, "tripod excess is pi")
    require(abs(flat_angle(1.0, 1.0, 1.0) - math.pi / 3.0) <= 1e-15, "equilateral angle")

    t, x = diamond_sprinkle(np.random.default_rng(1), 40)
    causal, chrono, rho = minkowski_relations(t, x)
    require(bool(np.all(causal[0]) and np.all(causal[:, -1])), "tips bound the sprinkle")
    require(
        reverse_triangle_excess(causal, rho) <= 1e-12,
        "reverse triangle inequality of Minkowski separations",
    )

    c = phi_constant(lambda s: 1.0 + s, lambda s: np.ones_like(s), 0.0, 1.0)
    require(abs(c - 1.0) <= 1e-15, "phi constant of t + t^2/2")


if __name__ == "__main__":
    self_test()
    print("oracle self-tests passed")
