import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_time_separation_path

import nulldist
from nulldist import cone
from nulldist import (
    ConeGrid,
    DiscretePreLengthSpace,
    FiniteLengthSpace,
    Interval,
    WarpingFunction,
    circle_space,
    minimizer_analysis,
    null_distance,
    null_distance_guarantees,
    null_distance_phi,
    null_distance_matrix,
    path_space,
    sample_timelike_triangles,
    time_separation,
    time_separation_path,
    tripod_space,
)
from nulldist.cone import (
    _BATCH,
    _CHUNK_CAP,
    _GATHER_CAP,
    CAUSAL,
    CHRONOLOGICAL,
    NONE,
    PhiReport,
    _close_bands,
    _dp_rows,
    _level_step_weights,
    all_grid_points,
    stratified_sources,
)
from nulldist.errors import InvalidInputError, ParameterError, SizeBoundError
from nulldist.reporting import GuaranteeReport

IV = Interval(0.0, 1.0)
_TS = np.linspace(0.0, 1.0, 9)
TABULATED = WarpingFunction.tabulated(_TS, 1.0 + 0.5 * np.sin(3.0 * _TS) ** 2, IV)
_PTS = np.random.default_rng(3).uniform(0.0, 1.0, (15, 3))
CLOUD = FiniteLengthSpace(tuple(range(15)), np.linalg.norm(_PTS[:, None] - _PTS[None], axis=2))
# all distances equal: the relative neighbourhood graph is complete
EQUIDISTANT = FiniteLengthSpace(tuple(range(8)), 0.3 * (1.0 - np.eye(8)))


def small_grid(n_t=10, n_f=11, warping=None, interval=IV, fiber=None):
    fiber = fiber if fiber is not None else path_space(n_f, 1.0)
    warping = warping or WarpingFunction.constant(1.0, interval)
    return ConeGrid(interval, fiber, warping, n_t)


def product_oracle(grid):
    lv = np.repeat(np.arange(grid.n_levels), grid.m)
    fb = np.tile(np.arange(grid.m), grid.n_levels)
    dt = np.abs(grid.t_levels[lv][:, None] - grid.t_levels[lv][None, :])
    dd = grid.fiber.dist[np.ix_(fb, fb)]
    return np.maximum(dt, dd), dt, dd


def causal_weights(grid, pi):
    """Dense edge weights of the causal graph of every grid point: |pi gap|
    between causally comparable points, +inf elsewhere, 0 on the diagonal."""
    lv = np.repeat(np.arange(grid.n_levels), grid.m)
    fb = np.tile(np.arange(grid.m), grid.n_levels)
    gap = np.abs(grid.g_levels[lv][:, None] - grid.g_levels[lv][None, :])
    dd = grid.fiber.dist[np.ix_(fb, fb)]
    w = np.where(dd <= gap + grid.causal_slack, np.abs(pi[lv][:, None] - pi[lv][None, :]), np.inf)
    np.fill_diagonal(w, 0.0)
    return w


def per_pair_search(grid, g):
    """A 3-D sweep table by one search over all m x m distances per level:
    entry [k, a, c] is the last level i <= k with |g_i - g_k| + slack >=
    d(a, c), or -1."""
    dtype = np.int16 if g.size < 32768 else np.int32
    table = np.empty((g.size, grid.m, grid.m), dtype=dtype)
    for k in range(g.size):
        gap = np.abs(g - g[k]) + grid.causal_slack
        table[k] = k - np.searchsorted(gap[k::-1], grid.fiber.dist, side="left")
    return table


def reference_tables(grid):
    """Both 3-D sweep tables by per_pair_search: the grid's and its time
    reversal's (G replaced by -G read backwards)."""
    return per_pair_search(grid, grid.g_levels), per_pair_search(grid, -grid.g_levels[::-1])


def expanded_tables(grid):
    """The engine's per-distance sweep tables spread over the m x m fiber
    pairs through the inverse index of the distinct distances."""
    up, rev, inv = grid._level_tables()
    assert np.array_equal(np.unique(grid.fiber.dist)[inv], grid.fiber.dist)
    return up[:, inv], rev[:, inv]


class TestCausalRelation:
    def test_product_chronological(self):
        g = small_grid()
        assert g.causal_relation((0, 0), (10, 5)) == CHRONOLOGICAL

    def test_affine_not_related(self):
        # f = 1+t on [0,1]: gap over the whole interval is log 2 < 0.7
        w = WarpingFunction.affine(1.0, 1.0, IV)
        g = small_grid(warping=w)
        assert g.causal_relation((0, 0), (10, 7)) == NONE

    def test_exact_boundary_is_causal(self):
        g = small_grid()
        # d = 0.5 equals the gap G(0.5) - G(0) exactly
        assert g.causal_relation((0, 0), (5, 5)) == CAUSAL

    def test_reflexive(self):
        g = small_grid()
        assert g.causal_relation((3, 3), (3, 3)) == CAUSAL

    def test_out_of_domain(self):
        g = small_grid()
        with pytest.raises(ParameterError):
            g.causal_relation((0, 0), (11, 0))

    @pytest.mark.parametrize(
        "fiber, warping",
        [
            (path_space(17, 1.0), WarpingFunction.constant(1.0, IV)),
            (circle_space(12, 2.0), WarpingFunction.cosh_type(0.5, 2.0, IV)),
            (CLOUD, TABULATED),
        ],
        ids=["unit-path", "cosh-circle", "tabulated-cloud"],
    )
    def test_causal_row_broadcasts(self, fiber, warping):
        g = ConeGrid(IV, fiber, warping, 16)
        rng = np.random.default_rng(11)
        levels = rng.integers(0, g.n_levels, 40)
        fibers = rng.integers(0, g.m, 40)
        stack = g.causal_row(levels, fibers)
        assert stack.shape == (40, g.n_levels, g.m)
        want = np.array([g.causal_row(int(i), int(j)) for i, j in zip(levels, fibers)])
        assert want.shape == (40, g.n_levels, g.m)
        assert np.array_equal(stack, want)
        assert g.causal_row(np.int64(3), np.int64(5)).shape == (g.n_levels, g.m)

    @pytest.mark.parametrize(
        "fiber, warping",
        [
            (path_space(17, 1.0), WarpingFunction.constant(1.0, IV)),
            (circle_space(12, 2.0), WarpingFunction.cosh_type(0.5, 2.0, IV)),
            (CLOUD, TABULATED),
        ],
        ids=["exactly-null-path", "cosh-circle", "tabulated-cloud"],
    )
    def test_causal_row_is_both_classifications(self, fiber, warping):
        # minimizer_analysis reads "related in either direction" off the row
        g = ConeGrid(IV, fiber, warping, 8)
        rng = np.random.default_rng(5)
        for p in zip(rng.integers(0, g.n_levels, 12).tolist(), rng.integers(0, g.m, 12).tolist()):
            want = [[g.causal_relation(p, (k, l)) != NONE or g.causal_relation((k, l), p) != NONE
                     for l in range(g.m)] for k in range(g.n_levels)]
            assert np.array_equal(g.causal_row(*p), want)

    @pytest.mark.parametrize(
        "fiber, warping",
        [
            (path_space(17, 1.0), WarpingFunction.constant(1.0, IV)),
            (circle_space(12, 2.0), WarpingFunction.cosh_type(0.5, 2.0, IV)),
            (CLOUD, TABULATED),
        ],
        ids=["exactly-null-path", "cosh-circle", "tabulated-cloud"],
    )
    def test_chronological_row_is_the_strict_predicate(self, fiber, warping):
        g = ConeGrid(IV, fiber, warping, 8)
        rng = np.random.default_rng(7)
        levels, fibers = rng.integers(0, g.n_levels, 12), rng.integers(0, g.m, 12)
        for p in zip(levels.tolist(), fibers.tolist()):
            want = [[g.causal_relation(p, (k, l)) == CHRONOLOGICAL for l in range(g.m)]
                    for k in range(g.n_levels)]
            assert np.array_equal(g.chronological_row(*p), want)
        stack = g.chronological_row(levels, fibers)
        assert np.array_equal(stack, [g.chronological_row(int(i), int(j)) for i, j in zip(levels, fibers)])


class TestThresholdTables:
    @staticmethod
    def expected(grid):
        """Both sweep tables from causal_row, one (i, k) pair at a time."""
        n = grid.n_levels
        up = np.empty((n, grid.m, grid.m), dtype=int)
        rev = np.empty_like(up)
        for k in range(n):
            for b in range(grid.m):
                row = grid.causal_row(k, b)
                for a in range(grid.m):
                    past = [i for i in range(k + 1) if row[i, a]]
                    future = [i for i in range(k, n) if row[i, a]]
                    up[k, a, b] = past[-1] if past else -1
                    rev[n - 1 - k, a, b] = n - 1 - future[0] if future else -1
        return up, rev

    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.affine(1.0, 1.5, IV),
            WarpingFunction.cosh_type(1.0, 1.2, IV),
            TABULATED,
            WarpingFunction.constant(1.0, IV),
        ],
        ids=["affine", "cosh", "tabulated", "dyadic"],
    )
    def test_tables_follow_causal_row(self, warping):
        g = small_grid(n_t=8, n_f=9, warping=warping)
        up, rev = expanded_tables(g)
        assert up.dtype == rev.dtype == np.int16
        want_up, want_rev = self.expected(g)
        assert np.array_equal(up, want_up)
        assert np.array_equal(rev, want_rev)
        # the fiber is at least as long as G(1) - G(0): far pairs have no causal level
        assert np.any(up == -1) and np.any(rev == -1)

    @pytest.mark.parametrize(
        "fiber",
        [path_space(33, 1.0), circle_space(20, 1.0), tripod_space(6, 0.3), CLOUD],
        ids=["path", "circle", "tripod", "random"],
    )
    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.constant(1.0, IV),
            WarpingFunction.affine(1.0, 1.5, IV),
            WarpingFunction.exponential(1.0, -2.0, IV),
            WarpingFunction.cosh_type(1.0, 1.2, IV),
            TABULATED,
        ],
        ids=["constant", "affine", "exponential", "cosh", "tabulated"],
    )
    def test_tables_match_per_pair_search(self, fiber, warping):
        # n_t = 32 puts the constant warping's levels on the path's dyadic
        # spacing, so distances equal to level gaps are searched too; both
        # directions, spread through the inverse of the distinct distances
        g = ConeGrid(IV, fiber, warping, 32)
        for got, exp in zip(expanded_tables(g), reference_tables(g)):
            assert got.dtype == exp.dtype
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize("n_t", [12, 40, 200, 400])
    @pytest.mark.parametrize(
        "fiber",
        [path_space(33, 1.0), circle_space(20, 1.0), tripod_space(6, 0.3), CLOUD, None],
        ids=["path", "circle", "tripod", "random", "gap-distances"],
    )
    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.constant(1.0, IV),
            WarpingFunction.affine(1.0, 1.5, IV),
            WarpingFunction.exponential(1.0, -2.0, IV),
            WarpingFunction.cosh_type(1.0, 1.2, IV),
        ],
        ids=["constant", "affine", "exponential", "cosh"],
    )
    def test_tables_equal_the_per_level_loop(self, fiber, warping, n_t):
        # 401 levels take several blocks of levels under _GATHER_CAP entries
        if fiber is None:
            # distances equal to |G_i - G_0| + slack as the tables compute
            # it: those pairs are causal, which a strict comparison would
            # lose. d(0, j) is the j-th gap and d(i, j) the larger of two
            # gaps, a metric; it stays under G's range, so the slack holds
            probe = ConeGrid(IV, path_space(2, 0.5), warping, n_t)
            gaps = np.abs(probe.g_levels - probe.g_levels[0]) + probe.causal_slack
            gaps = gaps[[n_t // 6, n_t // 3, n_t // 2]]
            d = np.zeros((4, 4))
            d[0, 1:] = d[1:, 0] = gaps
            d[1:, 1:] = np.maximum.outer(gaps, gaps) * (1.0 - np.eye(3))
            fiber = FiniteLengthSpace(tuple(range(4)), d)
            assert ConeGrid(IV, fiber, warping, n_t).causal_slack == probe.causal_slack
        g = ConeGrid(IV, fiber, warping, n_t)
        for got, exp in zip(expanded_tables(g), reference_tables(g)):
            assert got.dtype == exp.dtype
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize(
        "fiber",
        [path_space(33, 1.0), circle_space(20, 1.0), tripod_space(6, 0.3), CLOUD],
        ids=["path", "circle", "tripod", "random"],
    )
    def test_tables_fall_with_the_distance(self, fiber):
        # one column per distinct distance, ascending: the entries of a level
        # never rise along a row, so the pairs with a causal level come first
        g = ConeGrid(IV, fiber, WarpingFunction.cosh_type(1.0, 1.2, IV), 32)
        n_dist = np.unique(fiber.dist).size
        for table in g._level_tables()[:2]:
            assert table.shape == (g.n_levels, n_dist)
            assert np.all(np.diff(table.astype(int), axis=1) <= 0)
            assert table[:, 0].tolist() == list(range(g.n_levels))

    def test_exactly_null_pairs_stay_causal(self):
        # dyadic unit cone: d = |a - b| / 8 equals G_k - G_i exactly on null pairs
        g = small_grid(n_t=8, n_f=9)
        up, rev = expanded_tables(g)
        k = np.arange(g.n_levels)[:, None, None]
        ab = np.abs(np.subtract.outer(np.arange(g.m), np.arange(g.m)))[None]
        closed_form = np.maximum(k - ab, -1)
        assert np.array_equal(up, closed_form)
        assert np.array_equal(rev, closed_form)


class TestEngineAgainstOracles:
    @pytest.mark.parametrize(
        "warping,fiber,phi",
        [
            pytest.param(WarpingFunction.constant(1.0, IV), None, None, id="warping0"),
            pytest.param(WarpingFunction.constant(2.0, IV), None, None, id="warping1"),
            pytest.param(WarpingFunction.affine(1.0, 1.5, IV), None, None, id="warping2"),
            pytest.param(WarpingFunction.exponential(1.0, 0.6, IV), None, None, id="warping3"),
            pytest.param(WarpingFunction.cosh_type(1.0, 1.2, IV), None, None, id="cosh"),
            pytest.param(TABULATED, None, None, id="tabulated"),
            pytest.param(
                WarpingFunction.affine(1.0, 0.8, IV), circle_space(10, 1.0), None, id="circle"
            ),
            pytest.param(
                WarpingFunction.cosh_type(1.0, 1.2, IV), tripod_space(3, 0.5), None, id="tripod"
            ),
            pytest.param(
                WarpingFunction.constant(1.0, IV), None, lambda t: t + t * t / 2, id="phi-quadratic"
            ),
            pytest.param(
                WarpingFunction.affine(1.0, 0.8, IV), EQUIDISTANT, None, id="equidistant"
            ),
        ],
    )
    def test_matches_floyd_warshall(self, warping, fiber, phi):
        g = small_grid(n_t=8, n_f=9, warping=warping, fiber=fiber)
        pi = g.t_levels if phi is None else phi(g.t_levels)
        oracle = causal_weights(g, pi)
        n = g.n_points
        for k in range(n):
            np.minimum(oracle, oracle[:, k][:, None] + oracle[k, :][None, :], out=oracle)
        got = null_distance(g, weight_levels=pi).full_matrix()
        assert np.abs(got - oracle).max() <= 1e-12

    def test_matches_discrete_prelength_dijkstra(self):
        # second, structurally different route: export the causal graph into a
        # discrete pre-length space and reuse its null-distance matrix
        g = small_grid(n_t=6, n_f=7, warping=WarpingFunction.affine(1.0, 0.8, IV))
        n = g.n_points
        lv = np.repeat(np.arange(g.n_levels), g.m)
        fb = np.tile(np.arange(g.m), g.n_levels)
        gap = g.g_levels[lv][None, :] - g.g_levels[lv][:, None]
        dd = g.fiber.dist[np.ix_(fb, fb)]
        causal = (dd <= gap + g.causal_slack) & (lv[None, :] >= lv[:, None])
        np.fill_diagonal(causal, True)
        chrono = (dd < gap - g.causal_slack) & (lv[None, :] > lv[:, None])
        rho = np.where(chrono, 1e-6, 0.0)  # any positive values on chrono pairs
        # make rho satisfy the reverse triangle inequality: use the t-gap
        rho = np.where(chrono, (g.t_levels[lv][None, :] - g.t_levels[lv][:, None]), 0.0)
        base = FiniteLengthSpace(
            tuple(range(n)), np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        )
        pls = DiscretePreLengthSpace(base, causal, chrono, rho)
        tau = g.t_levels[lv]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = null_distance_matrix(pls, tau)
        got = null_distance(g).full_matrix()
        assert np.abs(got - oracle).max() <= 1e-12

    def test_product_closed_form(self):
        g = small_grid(n_t=20, n_f=21)
        oracle, dt, dd = product_oracle(g)
        got = null_distance(g).full_matrix()
        lv = np.repeat(np.arange(g.n_levels), g.m)
        gap = np.abs(g.g_levels[lv][:, None] - g.g_levels[lv][None, :])
        causal = dd <= gap + g.causal_slack
        err = got - oracle
        assert np.abs(err[causal]).max() <= 1e-12
        assert err[~causal].max() <= 1.0 / g.n_t + 1e-12
        assert err[~causal].min() >= -1e-12

    def test_symmetry_and_definiteness(self):
        g = small_grid(n_t=12, n_f=9, warping=WarpingFunction.affine(1.0, 2.0, IV))
        mat = null_distance(g).full_matrix()
        assert np.abs(mat - mat.T).max() <= 1e-12
        off = mat[~np.eye(g.n_points, dtype=bool)]
        assert off.min() > 0


def unit_sandwich_margins(grid, res, unit):
    """Worst margins of criterion 04's comparison with the unit-warping rows
    of the same grid: min(1, f_min) unit <= dhat <= max(1, f_max) unit."""
    lower = float((res.rows - min(1.0, grid.f_min) * unit.rows).min())
    upper = float((max(1.0, grid.f_max) * unit.rows - res.rows).min())
    return lower, upper


def reference_guarantees(grid, result):
    """null_distance_guarantees one source at a time, as a per-source loop."""
    tol_fmax = (2.0 + grid.f_max) * grid.grid_step()
    rep = GuaranteeReport()
    d = grid.fiber.dist
    pi = result.weight_levels
    lv = np.repeat(np.arange(grid.n_levels), grid.m)
    fb = np.tile(np.arange(grid.m), grid.n_levels)
    for s, src in enumerate(result.sources):
        i0, j0 = src
        row = result.rows[s]
        dists = d[j0, fb]
        causal = grid.causal_row(i0, j0).ravel()
        wgap = np.abs(pi[lv] - pi[i0])

        err = np.abs(row[causal] - wgap[causal])
        worst = float(err.max()) if err.size else 0.0
        bad = worst > 1e-12
        rep.record("causal-exact", -worst if bad else 0.0, (src, worst) if bad else None)

        lower = row - grid.f_min * dists
        k = int(np.argmin(lower))
        wl = float(lower[k])
        rep.record("lower-bound", wl, (src, grid.point(k), wl) if wl < -1e-12 else None)

        noncausal = ~causal
        if np.any(noncausal):
            upper = grid.f_max * dists[noncausal] - row[noncausal]
            wu = float(upper.min())
            bad = wu < -tol_fmax
            rep.record("upper-bound", wu + tol_fmax, (src, float(-wu)) if bad else None)
            if bad:
                rep.notes.append(
                    f"upper bound missed by {-wu:.3g} at source {src}; "
                    "refine the fiber (the grid error follows the fiber spacing; "
                    "refining n_t alone does not shrink it)"
                )

        off = row > 0
        off[grid.node(i0, j0)] = True
        rep.record("definiteness", 0.0, None if np.all(off) else src)

        fut = causal & (lv != i0)
        dt = np.abs(grid.t_levels[lv[fut]] - grid.t_levels[i0])
        wa = float((dt - grid.f_min * dists[fut]).min()) if np.any(fut) else 0.0
        rep.record("anti-lipschitz", wa, src if wa < -1e-12 else None)
    return rep


class TestGuarantees:
    def test_constant_two(self):
        g = small_grid(n_t=16, n_f=17, warping=WarpingFunction.constant(2.0, IV))
        res = null_distance(g)
        unit = null_distance(small_grid(n_t=16, n_f=17))
        rep = null_distance_guarantees(g, res)
        assert rep.ok, rep.violations
        lower, upper = unit_sandwich_margins(g, res, unit)
        assert lower >= -1e-12
        assert upper >= -2.0 / g.n_t

    def test_affine_sandwich(self):
        g = small_grid(n_t=16, n_f=17, warping=WarpingFunction.affine(1.0, 2.0, IV))
        res = null_distance(g)
        unit = null_distance(small_grid(n_t=16, n_f=17))
        rep = null_distance_guarantees(g, res)
        assert rep.ok, rep.violations
        assert rep.worst["lower-bound"] >= -1e-12
        lower, upper = unit_sandwich_margins(g, res, unit)
        assert lower >= -1e-12
        assert upper >= -2.0 / g.n_t


def plain_sweeps(grid, sources, pi):
    """The initial values of a batch of sources and the two passes of plain
    Gauss-Seidel sweeps over them, with the 3-D gather. Each pass relaxes
    every future-directed edge level by level, on the grid or on its time
    reversal, and returns whether an entry improved by more than eps_stop."""
    t_up, t_rev = reference_tables(grid)
    n_lv, m, b = grid.n_levels, grid.m, len(sources)
    val = np.full((n_lv, m, b), np.inf)
    for s, (i0, j0) in enumerate(sources):
        mask = grid.causal_row(i0, j0)
        col = val[:, :, s]
        col[mask] = np.broadcast_to(np.abs(pi - pi[i0])[:, None], (n_lv, m))[mask]
        val[i0, j0, s] = 0.0
    jj = np.broadcast_to(np.arange(m)[None, :], (m, m))
    prefix = np.empty((n_lv + 1, m, b))
    prefix[n_lv] = np.inf
    eps_stop = 1e3 * np.finfo(float).eps * float(pi[-1] - pi[0])

    def ascend(val, pi, table):
        changed = False
        for k in range(n_lv):
            cand = prefix[np.minimum(table[k], k - 1), jj, :].min(axis=1) + pi[k]
            if np.any(cand < val[k] - eps_stop):
                changed = True
            np.minimum(val[k], cand, out=val[k])
            row = val[k] - pi[k]
            prefix[k] = row if k == 0 else np.minimum(prefix[k - 1], row)
        return changed

    return val, (lambda: ascend(val, pi, t_up), lambda: ascend(val[::-1], -pi[::-1], t_rev))


def reference_sweep_rows(grid, sources, pi):
    """Null-distance rows by plain sweeps, with no band closure, until a
    pass pair changes nothing. Returns the rows and the pass pairs used."""
    val, passes = plain_sweeps(grid, sources, pi)
    sweeps = 1
    while any([p() for p in passes]):
        sweeps += 1
    return val.reshape(-1, len(sources)).T, sweeps


def pair_rule_rows(grid, sources, pi):
    """Null-distance rows by the engine's former loop: plain sweeps in
    batches of _BATCH sources, with the bands closed by
    reference_close_bands before the third pass pair, stopping at a pass
    pair that changes nothing. Returns the rows and the pass pairs each
    batch used."""
    rows, counts = [], []
    for lo in range(0, len(sources), _BATCH):
        batch = sources[lo : lo + _BATCH]
        val, passes = plain_sweeps(grid, batch, pi)
        sweeps = 1
        while True:
            if sweeps == 3:
                reference_close_bands(grid, val, pi)
            if not any([p() for p in passes]):
                break
            sweeps += 1
        rows.append(val.reshape(-1, len(batch)).T)
        counts.append(sweeps)
    return np.vstack(rows), tuple(counts)


def dijkstra_rows(w, sources):
    """Exact shortest-path rows over the dense weights w, one Dijkstra run
    per source node."""
    n = w.shape[0]
    rows = np.empty((len(sources), n))
    for r, s in enumerate(sources):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        open_ = np.ones(n, dtype=bool)
        while True:
            u = int(np.argmin(np.where(open_, dist, np.inf)))
            if not open_[u] or math.isinf(dist[u]):
                break
            open_[u] = False
            np.minimum(dist, dist[u] + w[u], out=dist)
        rows[r] = dist
    return rows


def bfs_hops(adj):
    """Hop counts of the graph with boolean adjacency adj, breadth first from
    every vertex, one frontier at a time; -1 between components."""
    n = adj.shape[0]
    hops = np.full((n, n), -1)
    for s in range(n):
        hops[s, s] = 0
        frontier, h = [s], 0
        while len(frontier):
            h += 1
            frontier = np.nonzero(adj[frontier].any(axis=0) & (hops[s] < 0))[0]
            hops[s, frontier] = h
    return hops


def reference_close_bands(grid, val, pi):
    """The engine's former band closure: one min-plus update of
    [val[k]; val[k+1]] by the all-pairs closure of band k, k+1, band by band
    in ascending order. Every causal edge in a band joins its two levels and
    costs pi[k+1] - pi[k], so a walk of h fiber hops (bfs_hops of the band
    graph) is an h-edge path; between fiber points h hops apart, the
    cheapest path that ends on the same level takes 2*ceil(h/2) edges, one
    that changes level 2*floor(h/2) + 1. A source column whose band values
    satisfy every single band edge is closed already, so only the others
    are updated."""
    m, b = grid.m, val.shape[2]
    hops_of = {}
    for k in range(grid.n_t):
        adj = grid.fiber.dist <= abs(grid.g_levels[k + 1] - grid.g_levels[k]) + grid.causal_slack
        if np.count_nonzero(adj) == m:  # self edges only
            continue
        key = adj.tobytes()
        if key not in hops_of:
            hops_of[key] = bfs_hops(adj)
        hops = hops_of[key]
        step = pi[k + 1] - pi[k]
        low, high = val[k], val[k + 1]
        a, c = np.nonzero(adj)  # edges (k, a) - (k + 1, c)
        broken = np.any(low[a] + step < high[c], axis=0)
        broken |= np.any(high[a] + step < low[c], axis=0)
        cols = np.nonzero(broken)[0]
        if cols.size == 0:
            continue
        # hop counts scale to costs; index -1 (other component) reads +inf
        cost = np.append(step * np.arange(m + 1), np.inf)
        same = cost[np.where(hops < 0, -1, (hops + 1) & -2)]
        cross = cost[hops | 1]
        w = np.block([[same, cross], [cross, same]])[:, :, None]
        band = val[k : k + 2].reshape(2 * m, b)
        sub = band[:, cols]
        closed = np.empty_like(sub)
        block = max(1, _GATHER_CAP // (2 * m * cols.size))  # band points per block
        for lo in range(0, 2 * m, block):
            closed[lo : lo + block] = (sub[:, None, :] + w[:, lo : lo + block]).min(axis=0)
        band[:, cols] = closed


def round_loop_close_bands(grid, val, pi):
    """_close_bands with its former stop rule: whole rounds, a step into
    level k then one into level k + 1, until a whole round changes nothing."""
    m, b = grid.m, val.shape[2]
    moves, du, depth, _, table = grid._move_index()
    n_dist = np.isfinite(table).sum(axis=1)
    for k, deg in enumerate(depth.tolist()):
        if deg == 1:
            continue
        nbrs = np.where(du[:deg] < n_dist[k], moves[:deg], np.arange(m, dtype=np.int32))
        step = pi[k + 1] - pi[k]
        block = max(1, _GATHER_CAP // (nbrs.shape[0] * b))
        for _ in range(m):
            changed = False
            for src, dst in ((val[k + 1], val[k]), (val[k], val[k + 1])):
                for lo in range(0, m, block):
                    cand = src.take(nbrs[:, lo : lo + block], axis=0).min(axis=0)
                    cand += step
                    out = dst[lo : lo + block]
                    changed |= (cand < out).any()
                    np.minimum(out, cand, out=out)
            if not changed:
                break


class TakeCounter(np.ndarray):
    """An array that counts the takes made from it and from its views: one
    per block of a closure step."""

    takes = 0

    def take(self, *args, **kwargs):
        TakeCounter.takes += 1
        return np.asarray(self).take(*args, **kwargs)


def closure_takes(close, grid, val, pi):
    """Close a copy of val by `close`; returns the result and its takes."""
    out = val.copy().view(TakeCounter)
    TakeCounter.takes = 0
    close(grid, out, pi)
    return np.asarray(out), TakeCounter.takes


_XS = np.sort(np.random.default_rng(5).uniform(0.0, 0.8, 14))
IRREGULAR = FiniteLengthSpace(tuple(range(_XS.size)), np.abs(_XS[:, None] - _XS[None, :]))
CLOSURE_FIBERS = [path_space(33, 1.0), circle_space(24, 1.0), tripod_space(8, 0.25)]


class TestBandClosure:
    @pytest.mark.parametrize(
        "fiber", CLOSURE_FIBERS + [IRREGULAR], ids=["path", "circle", "tripod", "irregular"]
    )
    def test_hops_match_bfs(self, fiber):
        # the closure equals the min-plus closure by BFS hop counts of each
        # band graph. f runs from 0.1 to 1.1: band graphs from several hops
        # wide down to self edges only
        g = ConeGrid(IV, fiber, WarpingFunction.affine(0.1, 1.0, IV), 40)
        m, graphs, split = g.m, set(), False
        nbrs, du, depth, dist, _ = g._move_index()
        assert nbrs.dtype == du.dtype == np.int32 and nbrs.shape == du.shape
        own = np.arange(m)
        for k in range(g.n_t):
            adj = fiber.dist <= abs(g.g_levels[k + 1] - g.g_levels[k]) + g.causal_slack
            counts = adj.sum(axis=0)
            assert depth[k] == counts.max()
            if depth[k] == 1:
                assert np.array_equal(adj, np.eye(m, dtype=bool))
                continue
            # the band's graph is the index prefix: column a lists the
            # neighbours of a nearest first, ties to the smaller index, and
            # every later entry of the prefix is no edge of the band, which
            # the closure pads with a
            prefix, near = nbrs[: depth[k]], dist[du[: depth[k]]]
            for a in range(m):
                want = sorted(np.nonzero(adj[:, a])[0], key=lambda c: (fiber.dist[c, a], c))
                assert prefix[: counts[a], a].tolist() == want
                assert np.array_equal(near[: counts[a], a], fiber.dist[want, a])
                rest = near[counts[a] :, a]
                assert np.all(rest > abs(g.g_levels[k + 1] - g.g_levels[k]) + g.causal_slack)
            graphs.add(adj.tobytes())
            split |= bool(np.any(bfs_hops(adj) < 0))
        # several graphs, all read from one index
        assert len(graphs) > 1
        if fiber is IRREGULAR:
            # close points join every band somewhere, and far ones split it
            assert split
        else:
            assert np.any(depth == 1)
        # the padding repeats the column's own point at the infinite distance
        pad = du == dist.size - 1
        assert np.isinf(dist[-1]) and np.all(nbrs[pad] == np.broadcast_to(own, nbrs.shape)[pad])
        # arbitrary band values, some unreached, and the values of two pass
        # pairs, as the engine closes them
        rng = np.random.default_rng(2)
        val = rng.uniform(0.0, 2.0, (g.n_levels, m, 8))
        val[rng.random(val.shape) < 0.2] = np.inf
        swept, passes = plain_sweeps(g, [(0, 0), (20, m // 2), (40, m - 1)], g.t_levels)
        for p in passes + passes:
            p()
        for start in (val, swept):
            got, want = start.copy(), start.copy()
            _close_bands(g, got, g.t_levels)
            reference_close_bands(g, want, g.t_levels)
            assert not np.array_equal(want, start)
            fin = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), fin)
            assert np.abs(got[fin] - want[fin]).max() <= 1e-14

    def test_wide_band_gathers_in_blocks(self):
        # across a level step of 0.5 the middle of a 301-point path is causal
        # to every point, so deg * m > _GATHER_CAP; one gather of the whole
        # band over a batch of 64 columns would take 46 MB
        g = ConeGrid(IV, path_space(301, 1.0), WarpingFunction.constant(1.0, IV), 2)
        depth = g._move_index()[2]
        assert depth[0] == depth[1] and depth[0] * g.m > _GATHER_CAP
        rng = np.random.default_rng(4)
        val = rng.uniform(0.0, 2.0, (g.n_levels, g.m, _BATCH))
        val[rng.random(val.shape) < 0.2] = np.inf
        want = val.copy()
        reference_close_bands(g, want, g.t_levels)
        rounds, round_steps = closure_takes(round_loop_close_bands, g, val, g.t_levels)
        assert closure_takes(_close_bands, g, val, g.t_levels)[1] < round_steps
        tracemalloc.start()
        try:
            _close_bands(g, val, g.t_levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * _GATHER_CAP * 8
        fin = np.isfinite(want)
        assert np.array_equal(np.isfinite(val), fin)
        assert np.abs(val[fin] - want[fin]).max() <= 1e-14
        assert np.array_equal(val, rounds)

    @pytest.mark.parametrize("fiber", CLOSURE_FIBERS, ids=["path", "circle", "tripod"])
    @pytest.mark.parametrize(
        "warping",
        [WarpingFunction.affine(0.5, 1.0, IV), WarpingFunction.cosh_type(0.5, 1.2, IV)],
        ids=["affine", "cosh"],
    )
    def test_closed_rows_are_exact(self, fiber, warping):
        # the time function t + t^2/2 makes minimizers zigzag near t = 0,
        # where these warpings give the bands fiber edges
        g = ConeGrid(IV, fiber, warping, 40)
        pi = g.t_levels + 0.5 * g.t_levels**2
        points = all_grid_points(g)
        pick = np.random.default_rng(0).choice(len(points), 16, replace=False)
        sources = [points[i] for i in sorted(pick)]
        res = null_distance(g, sources, weight_levels=pi)
        assert res.sweeps[0] >= 3
        assert np.any(g._move_index()[2] > 1)
        oracle = dijkstra_rows(causal_weights(g, pi), [g.node(*p) for p in sources])
        assert np.abs(res.rows - oracle).max() <= 1e-12

    @pytest.mark.parametrize("fiber", CLOSURE_FIBERS, ids=["path", "circle", "tripod"])
    @pytest.mark.parametrize(
        "warping",
        [WarpingFunction.affine(0.5, 1.0, IV), WarpingFunction.cosh_type(0.5, 1.2, IV)],
        ids=["affine", "cosh"],
    )
    def test_first_quiet_step_ends_the_band(self, fiber, warping):
        # a step that changes nothing right after a step into the other
        # level certifies the band, so stopping there gives bitwise the
        # values of the round loop, in fewer steps
        g = ConeGrid(IV, fiber, warping, 40)
        pi = g.t_levels + 0.5 * g.t_levels**2
        rng = np.random.default_rng(6)
        val = rng.uniform(0.0, 2.0, (g.n_levels, g.m, 8))
        val[rng.random(val.shape) < 0.2] = np.inf
        swept, passes = plain_sweeps(g, [(0, 0), (20, g.m // 2), (40, g.m - 1)], pi)
        for p in passes + passes:
            p()
        for start in (val, swept):
            got, steps = closure_takes(_close_bands, g, start, pi)
            want, round_steps = closure_takes(round_loop_close_bands, g, start, pi)
            assert not np.array_equal(want, start)
            assert np.array_equal(got, want)
            assert steps < round_steps

    def test_dyadic_rows_equal_plain_sweeps(self):
        # every sum is exact on this grid, so the closure may not move a bit
        g = small_grid(n_t=16, n_f=17)
        pi = g.t_levels + 0.5 * g.t_levels**2
        res = null_distance(g, weight_levels=pi)
        want, plain_sweeps = reference_sweep_rows(g, all_grid_points(g), pi)
        assert np.array_equal(res.rows, want)
        assert 3 <= max(res.sweeps) < plain_sweeps

    def test_two_pass_pairs_skip_the_closure(self):
        g = small_grid(n_t=16, n_f=17)
        res = null_distance(g)
        assert set(res.sweeps) == {2}
        assert g._moves is None


class TestStopRule:
    """The engine stops at the first pass, after the first, that changes
    nothing and counts pass pairs begun; the former rule ran whole pass
    pairs until one changed nothing."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("phi", ["t", "t+t^2/2"])
    def test_dyadic_rows_and_sweeps_equal_the_pair_rule(self, n, phi):
        # every sum is exact on these grids, so a skipped pass may not move a bit
        g = small_grid(n_t=n, n_f=n + 1)
        pi = g.t_levels + (0.5 * g.t_levels**2 if phi != "t" else 0.0)
        res = null_distance(g, weight_levels=pi)
        want, sweeps = pair_rule_rows(g, all_grid_points(g), pi)
        assert np.array_equal(res.rows, want)
        assert res.sweeps == sweeps
        if phi == "t":
            assert np.array_equal(res.rows, reference_sweep_rows(g, all_grid_points(g), pi)[0])

    @pytest.mark.parametrize("fiber", CLOSURE_FIBERS, ids=["path", "circle", "tripod"])
    @pytest.mark.parametrize(
        "warping",
        [WarpingFunction.affine(0.5, 1.0, IV), WarpingFunction.cosh_type(0.5, 1.2, IV)],
        ids=["affine", "cosh"],
    )
    def test_warped_rows_and_sweeps_match_the_pair_rule(self, fiber, warping):
        g = ConeGrid(IV, fiber, warping, 40)
        pi = g.t_levels + 0.5 * g.t_levels**2
        points = all_grid_points(g)
        pick = np.random.default_rng(1).choice(len(points), 16, replace=False)
        sources = [points[i] for i in sorted(pick)]
        res = null_distance(g, sources, weight_levels=pi)
        want, sweeps = pair_rule_rows(g, sources, pi)
        eps_stop = 1e3 * np.finfo(float).eps * float(pi[-1] - pi[0])
        assert np.abs(res.rows - want).max() <= eps_stop
        oracle = dijkstra_rows(causal_weights(g, pi), [g.node(*p) for p in sources])
        assert np.abs(res.rows - oracle).max() <= 1e-12
        assert res.sweeps == sweeps

    @pytest.mark.parametrize(
        "fiber, warping, n_t",
        [
            (CLOSURE_FIBERS[0], WarpingFunction.affine(2.0, -1.8, IV), 12),
            (CLOSURE_FIBERS[1], WarpingFunction.affine(2.0, -1.8, IV), 22),
            (CLOSURE_FIBERS[2], WarpingFunction.exponential(1.0, -2.0, IV), 20),
        ],
        ids=["path", "circle", "tripod"],
    )
    def test_no_certificate_right_after_the_closure(self, fiber, warping, n_t):
        # a decreasing warping puts the cheapest zigzag band at the top, so
        # the closure lowers values that only a descending pass carries down;
        # the ascending pass right after it can change nothing and still
        # leave lower rows too large
        g = ConeGrid(IV, fiber, warping, n_t)
        pi = g.t_levels + 0.5 * g.t_levels**2
        points = all_grid_points(g)
        res = null_distance(g, weight_levels=pi)
        want, sweeps = pair_rule_rows(g, points, pi)
        oracle = dijkstra_rows(causal_weights(g, pi), [g.node(*p) for p in points])
        assert np.abs(res.rows - oracle).max() <= 1e-12
        eps_stop = 1e3 * np.finfo(float).eps * float(pi[-1] - pi[0])
        assert np.abs(res.rows - want).max() <= eps_stop
        assert res.sweeps == sweeps and max(sweeps) >= 3

    def test_a_quiet_first_pass_certifies_nothing(self):
        # from sources on the first level the ascending pass finds nothing
        # the initial cones lack; the level's other points need the descent
        g = small_grid(n_t=8, n_f=9)
        sources = [(0, 0), (0, 5)]
        res = null_distance(g, sources)
        want, sweeps = pair_rule_rows(g, sources, g.t_levels)
        assert np.array_equal(res.rows, want) and np.all(np.isfinite(res.rows))
        assert res.sweeps == sweeps

    def test_settled_start_counts_one_pass_pair(self):
        # fiber points 10 apart never join on [0, 1]: every row is final as
        # initialized, and the first two passes change nothing
        fiber = FiniteLengthSpace((0, 1), np.array([[0.0, 10.0], [10.0, 0.0]]))
        g = small_grid(n_t=4, fiber=fiber)
        res = null_distance(g)
        want, sweeps = pair_rule_rows(g, all_grid_points(g), g.t_levels)
        assert np.array_equal(res.rows, want)
        assert res.sweeps == sweeps == (1,)


class TestSideBySideBatches:
    """One level loop sweeps whole batches side by side, each batch with its
    own stop rule; the rows and counts are those of each batch alone."""

    @pytest.mark.parametrize(
        "warping",
        [WarpingFunction.affine(0.5, 1.0, IV), WarpingFunction.cosh_type(0.5, 1.2, IV)],
        ids=["affine", "cosh"],
    )
    def test_rows_and_sweeps_equal_each_batch_alone(self, warping):
        # 651 points on a non-dyadic grid: a chunk holds 6 batches, so the
        # 11 batches take two chunks and the last holds 11 sources; t + t^2/2
        # runs the band closure and the batches stop at different passes
        g = ConeGrid(IV, path_space(21, 1.0), warping, 30)
        pi = g.t_levels + 0.5 * g.t_levels**2
        sources = all_grid_points(g)
        chunk = _BATCH * (_CHUNK_CAP // (g.n_points * _BATCH))
        assert _BATCH < chunk < len(sources) and len(sources) % _BATCH
        res = null_distance(g, sources, weight_levels=pi)
        alone = [null_distance(g, sources[lo : lo + _BATCH], weight_levels=pi) for lo in range(0, len(sources), _BATCH)]
        assert np.array_equal(res.rows, np.vstack([a.rows for a in alone]))
        assert res.sweeps == tuple(n for a in alone for n in a.sweeps)
        assert max(res.sweeps[: chunk // _BATCH]) >= 3
        assert len(set(res.sweeps[: chunk // _BATCH])) > 1
        # a one-source call, and the same source as a batch of one beside
        # a full batch in a chunk
        n = chunk + _BATCH + 1
        one = null_distance(g, [sources[n - 1]], weight_levels=pi)
        beside = null_distance(g, sources[:n], weight_levels=pi)
        assert np.array_equal(beside.rows[-1], one.rows[0])
        assert beside.sweeps[-1:] == one.sweeps
        assert np.array_equal(beside.rows[:-1], res.rows[: n - 1])

    def test_chunk_working_set_stays_under_the_cap(self):
        # 1681 points, all of them sources: a chunk holds two batches, where
        # one chunk of every source would hold 11 times the cap. The values
        # and the prefix minima take up to two caps of floats (1.84 here),
        # the copy made when some batches stop one more; the rows are the
        # result
        g = small_grid(n_t=40, n_f=41)
        g._cover_index()
        assert _CHUNK_CAP // (g.n_points * _BATCH) == 2
        tracemalloc.start()
        try:
            res = null_distance(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_points**2 > 10 * _CHUNK_CAP
        assert peak - res.rows.nbytes < 4 * _CHUNK_CAP * 8
        assert res.rows.shape == (g.n_points, g.n_points) and set(res.sweeps) == {2}

    def test_start_values_add_no_chunk_sized_transient(self):
        # 40401 points: a chunk is one batch, here of 16 sources. The rows,
        # the values and the prefix minima take one chunk x n_points floats
        # each; start values built for the whole chunk at once would add a
        # fourth, where the blocks of _GATHER_CAP entries add a few percent.
        # The fiber spacing equals the level step, so a level gathers three
        # cover pairs per point
        g = ConeGrid(IV, path_space(201, 1.0), WarpingFunction.constant(1.0, IV), 200)
        assert g.n_points >= 40000 and _CHUNK_CAP // (g.n_points * _BATCH) == 0
        g._cover_index()
        rng = np.random.default_rng(9)
        sources = [(int(rng.integers(0, g.n_levels)), int(rng.integers(0, g.m))) for _ in range(16)]
        tracemalloc.start()
        try:
            res = null_distance(g, sources)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * res.rows.nbytes
        for s in (0, 15):
            assert np.array_equal(res.rows[s], null_distance(g, [sources[s]]).rows[0])


def first_pass_values(monkeypatch, grid, sources, pi):
    """The start values of the first chunk of a null_distance call on
    `sources`, as the first ascending pass receives them."""
    seen = []
    ascend = cone._ascend

    def spy(val, *args):
        if not seen:
            seen.append(val.copy())
        return ascend(val, *args)

    monkeypatch.setattr(cone, "_ascend", spy)
    null_distance(grid, sources, weight_levels=pi)
    monkeypatch.undo()
    return seen[0]


def per_source_start_values(grid, sources, pi):
    """(n_levels, m, sources): each source's weight gap on its causal_row,
    +inf elsewhere, 0 at the source."""
    cols = []
    for i, j in sources:
        col = np.where(grid.causal_row(i, j), np.abs(pi - pi[i])[:, None], np.inf)
        col[i, j] = 0.0
        cols.append(col)
    return np.stack(cols, axis=2)


class TestStartValues:
    """The sweeps' start values are built in blocks of levels x every source
    of a chunk, from the causal test that causal_row makes."""

    def test_product_grid(self, monkeypatch):
        # 40401 points: a block holds 20 levels of the 16 sources
        g = ConeGrid(IV, path_space(201, 1.0), WarpingFunction.constant(1.0, IV), 200)
        rng = np.random.default_rng(9)
        sources = [(int(rng.integers(0, g.n_levels)), int(rng.integers(0, g.m))) for _ in range(16)]
        got = first_pass_values(monkeypatch, g, sources, g.t_levels)
        assert np.array_equal(got, per_source_start_values(g, sources, g.t_levels))

    def test_all_sources_chunk(self, monkeypatch):
        # 1681 points, all of them sources: the first chunk holds 128, and a
        # block 12 levels of them
        g = small_grid(n_t=40, n_f=41)
        sources = all_grid_points(g)
        chunk = _BATCH * (_CHUNK_CAP // (g.n_points * _BATCH))
        assert chunk == 128 and _GATHER_CAP // (g.m * chunk) == 12
        got = first_pass_values(monkeypatch, g, sources, g.t_levels)
        assert np.array_equal(got, per_source_start_values(g, sources[:chunk], g.t_levels))

    def test_warped_grid(self, monkeypatch):
        g = ConeGrid(IV, CLOSURE_FIBERS[2], WarpingFunction.cosh_type(0.5, 1.2, IV), 40)
        pi = g.t_levels + 0.5 * g.t_levels**2
        points = all_grid_points(g)
        pick = np.random.default_rng(3).choice(len(points), 40, replace=False)
        sources = [points[i] for i in pick]
        got = first_pass_values(monkeypatch, g, sources, pi)
        assert np.array_equal(got, per_source_start_values(g, sources, pi))


def uncovered_pairs(table):
    """Boolean (levels, m, m): the pairs (a, c) of each level k with
    T' = min(table[k, a, c], k - 1) >= 0 that no relay c' of the whole fiber
    covers, i.e. none with j = T'(k, a, c') >= 0 and T'(j, c', c) >= T'."""
    n, m = table.shape[:2]
    clamped = np.minimum(table.astype(int), np.arange(n)[:, None, None] - 1)
    keep = np.zeros(table.shape, dtype=bool)
    for k in range(n):
        for a in range(m):
            j = clamped[k, a]  # over c'
            via = clamped[np.maximum(j, 0)[:, None], np.arange(m)[:, None], np.arange(m)[None, :]]
            covered = np.any((j[:, None] >= 0) & (via >= clamped[k, a][None, :]), axis=0)
            keep[k, a] = (clamped[k, a] >= 0) & ~covered
    return keep, clamped


def link_count(grid, g, table):
    """The links of the grid with level G-values g, by brute force: pairs
    (T'(k, a, c), c) -> (k, a) with T' = min(table[k, a, c], k - 1) >= 0 and
    no grid point strictly between their ends in the causal order."""
    n, m = g.size, grid.m
    lv = np.repeat(np.arange(n), m)
    fb = np.tile(np.arange(m), n)
    gap = np.abs(g[lv][None, :] - g[lv][:, None]) + grid.causal_slack
    order = ((lv[:, None] <= lv[None, :]) & (grid.fiber.dist[np.ix_(fb, fb)] <= gap)).astype(float)
    between = order @ order  # points z with p <= z <= q, both ends included; exact counts
    clamped = np.minimum(table.astype(int), np.arange(n)[:, None, None] - 1)
    k, a, c = np.nonzero(clamped >= 0)
    return int(np.count_nonzero(between[clamped[k, a, c] * m + c, k * m + a] == 2))


def index_entries(idx, n_levels, m):
    """(a, level, c) of every entry of one level's cover index but the padding."""
    w, a = np.nonzero(idx != n_levels * m)
    level, c = np.divmod(idx[w, a], m)
    return a, level, c


def plane_cloud(n, seed):
    """n uniform random points of the unit square, Euclidean distances."""
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2))
    return FiniteLengthSpace(tuple(range(n)), np.linalg.norm(pts[:, None] - pts[None], axis=2))


def reference_relays(fiber):
    """ConeGrid._relays by the full lune test: every ordered pair (a, b)
    against every point."""
    d = fiber.dist
    m = fiber.n
    relay = np.repeat(np.arange(m)[:, None], m, axis=1)
    for a in range(m):
        edge = ~np.any(np.maximum(d[a][:, None], d) < d[a], axis=0)
        edge[a] = False
        nbrs = np.nonzero(edge)[0]
        if nbrs.size:
            relay[a] = nbrs[np.argmin(d[a, nbrs][:, None] + d[nbrs], axis=0)]
    return relay


def reference_cover_levels(grid, table, u, v, w, pairs, offsets):
    """ConeGrid._cover_levels level by level: the cover rule over the level's
    class prefix, then the kept classes' pairs sorted by pair with their
    level and scattered into the level's (W, m) index."""
    m, (n_lv, n_u) = grid.m, table.shape
    flat, sizes = table.reshape(-1), np.diff(offsets)
    ends = np.searchsorted(u, np.count_nonzero(table >= 0, axis=1)).tolist()
    index = [np.full((1, m), n_lv * m, dtype=np.int32)]
    for k in range(1, n_lv):
        n = ends[k]
        cur = np.minimum(table[k].take(u[:n]), k - 1)
        prev = np.minimum(table[k - 1].take(u[:n]), k - 2)
        j = np.minimum(table[k].take(v[:n]), k - 1)
        via = flat.take(j.astype(np.int32) * n_u + w[:n])
        kept = np.flatnonzero((prev < cur) & ((j <= cur) | (via < cur)))
        counts = sizes[kept]
        pos = np.repeat(offsets[kept] - (np.cumsum(counts) - counts), counts)
        pos += np.arange(pos.size)
        key = np.sort(pairs[pos] * n_lv + np.repeat(cur[kept].astype(np.int32), counts))
        pair = key // n_lv
        a = pair // m
        bounds = np.searchsorted(a, np.arange(m + 1))
        counts = np.diff(bounds)
        idx = np.full((max(1, int(counts.max())), m), n_lv * m, dtype=np.int32)
        rank = np.arange(a.size) - np.repeat(bounds[:-1], counts)
        idx[rank, a] = (key - pair * n_lv) * m + pair - a * m  # level * m + c
        index.append(idx)
    return index


def random_line(n, seed):
    """n sorted uniform random points of [0, 1] with their distances."""
    xs = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))
    return FiniteLengthSpace(tuple(range(n)), np.abs(xs[:, None] - xs[None, :]))


def assert_index_equals_the_level_loop(g):
    up, rev, inv = g._level_tables()
    classes = g._pair_classes(inv)
    for table, index in zip((up, rev), g._cover_index()):
        ref = reference_cover_levels(g, table, *classes)
        assert len(index) == len(ref) == g.n_levels
        for idx, want in zip(index, ref):
            assert idx.dtype == want.dtype and idx.shape == want.shape
            assert np.array_equal(idx, want)


# grids whose index keeps many pairs per point: the blocked expansion does
# most of its work there
LARGE_EXPANSION_GRIDS = {
    "cosh-path201": (path_space(201, 1.0), WarpingFunction.cosh_type(1.0, 1.3, IV), 200),
    "cloud150": (plane_cloud(150, 1), WarpingFunction.constant(1.0, IV), 40),
    "line120": (random_line(120, 2), WarpingFunction.constant(1.0, IV), 60),
}


def cached_arrays(obj):
    """Every array an object holds in its attributes, through tuples and
    lists."""
    todo = list(vars(obj).values())
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (tuple, list)):
            todo.extend(x)


class TestCoverIndex:
    @pytest.mark.parametrize(
        "fiber",
        [
            path_space(9, 1.0),
            circle_space(12, 1.0),
            tripod_space(4, 0.3),
            IRREGULAR,
            EQUIDISTANT,
            plane_cloud(40, 11),
        ],
        ids=["path", "circle", "tripod", "line", "equidistant", "cloud"],
    )
    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.constant(1.0, IV),
            WarpingFunction.affine(1.0, 1.5, IV),
            WarpingFunction.exponential(1.0, -2.0, IV),
            WarpingFunction.cosh_type(1.0, 1.2, IV),
            TABULATED,
        ],
        ids=["constant", "affine", "exponential", "cosh", "tabulated"],
    )
    def test_index_holds_every_uncovered_pair(self, fiber, warping):
        g = ConeGrid(IV, fiber, warping, 16)
        n, m = g.n_levels, g.m
        for table, index in zip(reference_tables(g), g._cover_index()):
            keep, clamped = uncovered_pairs(table)
            assert len(index) == n
            for k, idx in enumerate(index):
                assert idx.dtype == np.int32 and idx.ndim == 2 and idx.shape[1] == m
                a, level, c = index_entries(idx, n, m)
                # entries are clamped table entries, one per pair
                assert np.array_equal(level, clamped[k, a, c]) and np.all(level >= 0)
                got = np.zeros((m, m), dtype=bool)
                got[a, c] = True
                assert got.sum() == a.size
                assert np.all(got[keep[k]])
                if fiber is EQUIDISTANT:
                    # a relay c' other than a sits as far from a as c does, so
                    # only a one level down can cover: the index is minimal
                    assert np.array_equal(got, keep[k])
                # the widest column sets the width
                assert idx.shape[0] == max(1, np.bincount(a, minlength=m).max())
        # blocks of levels give bitwise the index of one level at a time
        assert_index_equals_the_level_loop(g)

    @pytest.mark.parametrize(
        "fiber, n_t",
        [
            *((path_space(m), n_t) for m in (9, 12, 17) for n_t in (m - 1, m)),
            (circle_space(12), 12),
            (circle_space(16), 16),
            (tripod_space(4, 1 / 3), 12),
        ],
        ids=["path9-8", "path9-9", "path12-11", "path12-12", "path17-16", "path17-17",
             "circle12-12", "circle16-16", "tripod4-12"],
    )
    def test_index_keeps_exactly_the_links(self, fiber, n_t):
        # fiber spacing at or a little above the level step: every kept pair
        # is a link, so no relay rule could drop one, and every link is kept
        g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), n_t)
        n, m = g.n_levels, g.m
        directions = (g.g_levels, -g.g_levels[::-1])
        for g_dir, table, index in zip(directions, reference_tables(g), g._cover_index()):
            kept = sum(int(np.count_nonzero(idx != n * m)) for idx in index)
            assert kept == link_count(g, g_dir, table)

    def test_product_cone_keeps_three_neighbours(self):
        # fiber spacing equal to the level step: the pairs (a, a +- 1) and
        # (a, a) one level down cover every other pair
        g = ConeGrid(IV, path_space(41, 1.0), WarpingFunction.constant(1.0, IV), 40)
        for index in g._cover_index():
            assert index[0].shape[0] == 1 and np.all(index[0] == g.n_levels * g.m)
            for k, idx in enumerate(index[1:], 1):
                assert idx.shape[0] == 3
                a, level, c = index_entries(idx, g.n_levels, g.m)
                assert np.all(np.abs(a - c) <= 1) and np.all(level == k - 1)
                assert a.size == 3 * g.m - 2

    def test_relays_follow_the_neighbourhood_graph(self):
        # on a path the relay of (a, c) is the neighbour of a towards c; on
        # the equidistant fiber every pair is an edge and c relays itself;
        # a tie goes to the smallest index
        m = 9
        relay = small_grid(n_f=m)._relays()
        a, c = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        toward = a + np.sign(c - a)
        toward[a == c] = np.where(np.arange(m) == 0, 1, np.arange(m) - 1)
        assert np.array_equal(relay, toward)
        relay = small_grid(fiber=EQUIDISTANT)._relays()
        m = EQUIDISTANT.n
        a, c = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        want = c.copy()
        want[a == c] = np.where(np.arange(m) == 0, 1, 0)
        assert np.array_equal(relay, want)

    @pytest.mark.parametrize("name", list(LARGE_EXPANSION_GRIDS))
    def test_large_expansion_index_equals_the_level_loop(self, name):
        fiber, warping, n_t = LARGE_EXPANSION_GRIDS[name]
        g = ConeGrid(IV, fiber, warping, n_t)
        assert_index_equals_the_level_loop(g)
        # many pairs per point: the levels are laid out in several runs
        kept = sum(int(np.count_nonzero(idx != g.n_levels * g.m)) for idx in g._cover_index()[0])
        assert kept > 4 * _GATHER_CAP

    def test_relays_equal_the_full_lune_test(self):
        # paths, circles and tripods are full of tied distances, so near
        # points come in ties; on the equidistant fiber no point is nearer
        # than the pair's own ends, so no near witness exists; plane clouds
        # have distinct distances and a sparse, irregular graph
        fibers = [
            path_space(201, 1.0),
            circle_space(40, 1.0),
            circle_space(41, 1.0),
            tripod_space(14, 1 / 3),
            EQUIDISTANT,
            plane_cloud(60, 4),
            plane_cloud(150, 1),
            path_space(1),
            path_space(2),
            path_space(3),
        ]
        for fiber in fibers:
            assert np.array_equal(small_grid(fiber=fiber)._relays(), reference_relays(fiber))

    @pytest.mark.parametrize(
        "fiber", [path_space(17, 1.0), circle_space(12, 1.0), tripod_space(4, 0.3)],
        ids=["path", "circle", "tripod"],
    )
    @pytest.mark.parametrize("n_t", [16, 13], ids=["dyadic", "non-dyadic"])
    def test_time_symmetric_grids_share_one_index(self, fiber, n_t):
        # a constant warping's two sweep tables are equal, and the index is a
        # function of the table: the reversed direction reads the forward list
        g = ConeGrid(IV, fiber, WarpingFunction.constant(1.3, IV), n_t)
        up, rev, inv = g._level_tables()
        assert np.array_equal(up, rev)
        fwd, back = g._cover_index()
        assert fwd is back
        ref = reference_cover_levels(g, rev, *g._pair_classes(inv))
        assert len(fwd) == len(ref) == g.n_levels
        for idx, want in zip(fwd, ref):
            assert idx.shape == want.shape and np.array_equal(idx, want)

    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.affine(1.0, 1.5, IV),
            WarpingFunction.exponential(1.0, -2.0, IV),
            WarpingFunction.cosh_type(1.0, 1.3, IV),
        ],
        ids=["affine", "exponential", "cosh"],
    )
    def test_warped_grids_keep_two_indices(self, warping):
        g = ConeGrid(IV, path_space(17, 1.0), warping, 16)
        up, rev, inv = g._level_tables()
        assert not np.array_equal(up, rev)
        index = g._cover_index()
        assert index[0] is not index[1]
        assert any(not np.array_equal(a, b) for a, b in zip(*index))
        classes = g._pair_classes(inv)
        for table, levels in zip((up, rev), index):
            for idx, want in zip(levels, reference_cover_levels(g, table, *classes)):
                assert idx.shape == want.shape and np.array_equal(idx, want)

    @pytest.mark.parametrize(
        "warping",
        [WarpingFunction.constant(1.0, IV), WarpingFunction.cosh_type(1.0, 1.3, IV)],
        ids=["shared", "two"],
    )
    def test_cached_index_is_read_only(self, warping):
        g = ConeGrid(IV, path_space(9, 1.0), warping, 8)
        for levels in g._cover_index():
            for idx in (levels[0], levels[-1]):
                with pytest.raises(ValueError):
                    idx[0, 0] = 0

    def test_index_build_stays_in_blocks(self):
        # beside the index it returns, the build holds the sweep tables,
        # fiber-pair arrays and blocks of _GATHER_CAP entries; expanding every
        # level's kept pairs at once would take more than the index itself
        for name in ("cosh-path201", "cloud150"):
            fiber, warping, n_t = LARGE_EXPANSION_GRIDS[name]
            g = ConeGrid(IV, fiber, warping, n_t)
            tracemalloc.start()
            try:
                index = g._cover_index()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            held = sum(idx.nbytes for c in index for idx in c)
            assert peak - held < g._table_bytes() + 64 * g.m * g.m + 128 * _GATHER_CAP

    @pytest.mark.parametrize(
        "warping",
        [WarpingFunction.constant(1.0, IV), WarpingFunction.cosh_type(1.0, 1.2, IV)],
        ids=["constant", "cosh"],
    )
    def test_grid_caches_no_level_by_pair_array(self, warping):
        # the sweeps leave only the cover index and fiber-sized arrays behind
        g = ConeGrid(IV, path_space(41, 1.0), warping, 40)
        null_distance(g, [(0, 0), (20, 20), (40, 40)])
        sizes = [x.size for x in cached_arrays(g)]
        assert len(sizes) > 2 * g.n_levels
        assert max(sizes) < g.n_levels * g.m * g.m


def reference_time_separation_row(grid, p):
    """Longest single-step paths from p, one fiber move at a time over every
    fiber pair, with the step length of the time-separation DP."""
    m = grid.m
    row = np.zeros(grid.n_points)
    val = {p[1]: 0.0}
    for i in range(p[0], grid.n_t):
        gap = grid.g_levels[i + 1] - grid.g_levels[i]
        dt = grid.t_levels[i + 1] - grid.t_levels[i]
        nxt = {}
        for j, v in val.items():
            for k in range(m):
                d = grid.fiber.dist[j, k]
                if d > gap + grid.causal_slack:
                    continue
                w = 0.0
                if d < gap - grid.causal_slack:
                    lam = d / gap
                    w = dt * math.sqrt(max(1.0 - lam * lam, 0.0))
                nxt[k] = max(nxt.get(k, -math.inf), v + w)
        val = nxt
        for k, v in val.items():
            row[(i + 1) * m + k] = max(v, 0.0)
    return row


def strip_time_separation(warping, t0, t1, delta):
    """The time separation of a cone over a geodesic fiber between points
    at times t0 < t1 and fiber distance delta below their G-gap (arrays of
    pairs): a maximizer keeps its momentum c, so it reaches
    delta(c) = int c / (f sqrt(f^2 + c^2)) dt with length
    tau(c) = int f / sqrt(f^2 + c^2) dt. 64-node Gauss-Legendre in t; c
    grows by 4x until the reach passes delta, then 80 halvings, and tau is
    read at the bracket's short end, so it errs high."""
    x, wts = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (t1 - t0)[:, None]
    f = warping.value(half * x + 0.5 * (t0 + t1)[:, None])

    def reach(c):
        return (half * wts * c[:, None] / (f * np.sqrt(f * f + c[:, None] ** 2))).sum(axis=1)

    lo, hi = np.zeros_like(delta), np.ones_like(delta)
    for _ in range(100):
        grow = reach(hi) < delta
        if not grow.any():
            break
        lo, hi = np.where(grow, hi, lo), np.where(grow, 4.0 * hi, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        short = reach(mid) < delta
        lo, hi = np.where(short, mid, lo), np.where(short, hi, mid)
    return (half * wts * f / np.sqrt(f * f + lo[:, None] ** 2)).sum(axis=1)


class TestTimeSeparation:
    def test_product_pair(self):
        # kappa = dt/h = 5 keeps the longest-path error around a percent
        fiber = path_space(201, 1.0)
        g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 40)
        val = time_separation(g, sources=[(0, 0)]).value((0, 0), (40, 120))
        assert val <= 0.8 + 1e-12
        assert val == pytest.approx(0.8, rel=0.02)

    def test_zero_cases(self):
        g = small_grid()
        res = time_separation(g, sources=[(5, 5), (0, 0)])
        assert res.value((5, 5), (5, 5)) == 0.0
        assert res.value((5, 5), (0, 0)) == 0.0  # past
        assert res.value((5, 5), (5, 6)) == 0.0  # same level, not related
        assert res.value((0, 0), (1, 9)) == 0.0  # spacelike

    def test_positive_only_if_chronological(self):
        g = small_grid(n_t=10, n_f=11, warping=WarpingFunction.affine(1.0, 1.0, IV))
        srcs = all_grid_points(g)[:22]
        res = time_separation(g, sources=srcs)
        lv = np.repeat(np.arange(g.n_levels), g.m)
        fb = np.tile(np.arange(g.m), g.n_levels)
        for s, (i0, j0) in enumerate(res.sources):
            gaps = g.g_levels[lv] - g.g_levels[i0]
            chrono = (g.fiber.dist[j0, fb] < gaps - g.causal_slack) & (lv > i0)
            positive = res.rows[s] > 0
            assert not np.any(positive & ~chrono)

    def test_reverse_triangle_on_chains(self):
        g = small_grid(n_t=12, n_f=13)
        pts = [(0, 0), (4, 2), (8, 4), (12, 6)]
        res = time_separation(g, sources=pts)
        idx = {p: k for k, p in enumerate(res.sources)}
        for a in pts:
            for b in pts:
                if b[0] <= a[0] or res.value(a, b) <= 0:
                    continue
                for c in pts:
                    if c[0] <= b[0] or res.value(b, c) <= 0:
                        continue
                    assert res.value(a, c) >= res.value(a, b) + res.value(b, c) - 1e-12

    def test_maximizing_path_consistent(self):
        g = small_grid(n_t=10, n_f=21)
        val, path = time_separation_path(g, (0, 0), (10, 10))
        assert val > 0
        assert path[0] == (0, 0) and path[-1] == (10, 10)
        direct = time_separation(g, sources=[(0, 0)]).value((0, 0), (10, 10))
        assert val == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize(
        "fiber,warping",
        [
            (circle_space(24, 1.0), WarpingFunction.affine(1.0, 0.8, IV)),
            (tripod_space(10, 0.3), WarpingFunction.cosh_type(1.0, 1.2, IV)),
            (path_space(31, 1.0), WarpingFunction.exponential(1.0, -0.6, IV)),
        ],
    )
    def test_path_realizes_the_row_value(self, fiber, warping):
        g = ConeGrid(IV, fiber, warping, 12)
        rng = np.random.default_rng(3)
        positive = 0
        pairs = []
        for _ in range(12):
            p = (int(rng.integers(0, 4)), int(rng.integers(0, g.m)))
            q = (int(rng.integers(p[0] + 4, g.n_levels)), int(rng.integers(0, g.m)))
            pairs.append((p, q))
        # all sources at once: several source levels share one call
        res = time_separation(g, sources=[p for p, _ in pairs])
        assert len({p[0] for p, _ in pairs}) > 1
        for s, (p, _) in enumerate(pairs):
            assert np.array_equal(res.rows[s], reference_time_separation_row(g, p))
        for p, q in pairs:
            res = time_separation(g, sources=[p])
            assert np.array_equal(res.rows[0], reference_time_separation_row(g, p))
            val, path = time_separation_path(g, p, q)
            assert val == res.value(p, q)  # bitwise
            assert (val, path) == reference_time_separation_path(g, p, q)
            if val > 0:
                positive += 1
                assert path[0] == p and path[-1] == q
                for u, v in zip(path, path[1:]):
                    assert v[0] == u[0] + 1
                    assert g.causal_relation(u, v) != NONE
        assert positive >= 3

    @pytest.mark.parametrize("n_t", [20, 40])
    def test_rows_stay_below_the_strip_time_separation(self, n_t):
        # the tripod is geodesic, so the time separation of two cone points
        # is the strip value at their fiber distance, and every DP value is
        # the length of a causal curve. The midpoint weight
        # sqrt(dt^2 - f_mid^2 d^2) overshot under cosh, where 1/f is
        # concave: 0.0225194 against 0.0225121 from (0, 42) to (3, 39) at
        # n_t = 40
        warping = WarpingFunction.cosh_type(1.0, 1.3, IV)
        g = ConeGrid(IV, tripod_space(14, 1 / 3), warping, n_t)
        lv = np.repeat(np.arange(g.n_levels), g.m)
        fb = np.tile(np.arange(g.m), g.n_levels)
        for i0 in (0, n_t // 4):
            res = time_separation(g, [(i0, j) for j in range(g.m)])
            d = g.fiber.dist[:, fb]  # source fiber point by grid point
            chrono = (lv > i0) & (d < g.g_levels[lv] - g.g_levels[i0] - g.causal_slack)
            # one strip value per target level and fiber distance
            levels = np.broadcast_to(lv, d.shape)[chrono]
            keys, inv = np.unique(np.stack([levels, d[chrono]]), axis=1, return_inverse=True)
            tau = np.zeros(res.rows.shape)
            tau[chrono] = strip_time_separation(
                warping, np.full(keys.shape[1], g.t_levels[i0]), g.t_levels[keys[0].astype(int)], keys[1]
            )[inv]
            assert np.all(res.rows <= tau + 1e-12), float(np.max(res.rows - tau))
            assert np.all(res.rows[~chrono] == 0.0)

    @pytest.mark.parametrize(
        "fiber,warping,n_t,n_src",
        [
            (circle_space(24, 1.0), WarpingFunction.cosh_type(1.0, 1.2, IV), 16, 12),
            (tripod_space(10, 0.3), WarpingFunction.affine(1.0, 0.8, IV), 16, 12),
            (path_space(31, 1.0), WarpingFunction.exponential(1.0, -0.6, IV), 16, 12),
            # wide enough that a level step gathers its columns in blocks
            (path_space(201, 1.0), WarpingFunction.cosh_type(1.0, 1.2, IV), 40, 48),
        ],
    )
    def test_multi_source_rows_equal_the_single_source_rows(self, fiber, warping, n_t, n_src):
        # the triangle pipeline batches probe sources into one DP run: the
        # columns are independent and max is exact, so each row is bitwise
        # the row of a run from its source alone
        g = ConeGrid(IV, fiber, warping, n_t)
        rng = np.random.default_rng(8)
        srcs = [(int(rng.integers(0, n_t // 2)), int(rng.integers(0, g.m))) for _ in range(n_src)]
        depth = g._move_index()[2]
        if g.m > 100:
            assert _GATHER_CAP // (int(depth.max()) * g.m) < n_src
        raw = _dp_rows(g, srcs, g.n_t)
        res = time_separation(g, sources=srcs)
        for s, p in enumerate(srcs):
            assert raw[s].tobytes() == _dp_rows(g, [p], g.n_t)[0].tobytes()
            assert res.rows[s].tobytes() == time_separation(g, sources=[p]).rows[0].tobytes()

    # several moves per point; the circle has exactly-null moves, the warped
    # steps have moves that are causal only across the widest step, and the
    # random line and plane cloud have all their distances distinct
    @pytest.mark.parametrize(
        "fiber",
        [
            path_space(41, 0.5),
            circle_space(24, 0.5),
            tripod_space(8, 0.1),
            IRREGULAR,
            plane_cloud(25, 6),
        ],
    )
    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.constant(1.0, IV),
            WarpingFunction.affine(1.0, 0.8, IV),
            WarpingFunction.exponential(1.0, -0.6, IV),
            WarpingFunction.cosh_type(1.0, 1.2, IV),
            TABULATED,
        ],
        ids=["constant", "affine", "exponential", "cosh", "tabulated"],
    )
    def test_step_table_equals_the_level_formula(self, fiber, warping):
        g = ConeGrid(IV, fiber, warping, 24)
        nbrs, du, depth, dist, table = g._move_index()
        # every index entry at its own fiber distance, the padding at inf
        real = du < dist.size - 1
        d = np.where(real, g.fiber.dist[nbrs, np.arange(g.m)], np.inf)
        assert np.array_equal(dist[du], d)
        least = dist[du.min(axis=1)]
        for i in range(g.n_t):
            expected = _level_step_weights(g, i, d)
            assert np.array_equal(table[i].take(du), expected)  # bitwise
            assert np.all(expected[~real] == -np.inf)
            # the row's finite prefix and depth, against the threshold search
            thr = g.g_levels[i + 1] - g.g_levels[i] + g.causal_slack
            n_dist = np.searchsorted(dist, thr, side="right")
            assert np.isfinite(table[i]).sum() == n_dist
            assert np.all(np.isfinite(table[i, :n_dist]))
            assert depth[i] == np.searchsorted(least, thr, side="right")
        assert du.shape == nbrs.shape
        assert table.shape == (g.n_t, len(set(d[real].tolist())) + 1)

    def test_grid_caches_no_level_by_move_array(self):
        # the step table holds one row per level step and one column per
        # distinct move distance, not one entry per level and move, and
        # the DP, its backtrack, the accumulations and the band closure read
        # one move index: no copy of it per level step or per band
        g = ConeGrid(IV, path_space(41, 1.0), WarpingFunction.cosh_type(1.0, 1.3, IV), 40)
        time_separation(g, sources=[(0, 20), (10, 5)])
        tris, _ = sample_timelike_triangles(g, 3, seed=7)
        assert tris
        res = null_distance(g, [(0, 0), (20, 20), (40, 40)], weight_levels=g.t_levels**2 + g.t_levels)
        assert max(res.sweeps) >= 3  # the bands were closed
        du, dist = g._moves[1], g._moves[3]
        n_moves = np.count_nonzero(du < dist.size - 1)
        floats = [x.size for x in cached_arrays(g) if x.dtype.kind == "f"]
        assert max(floats) < g.n_t * n_moves
        assert g._moves[4].shape[0] == g.n_t
        # the level arrays, the sweeps' cover index and the move index with
        # its step table: nothing else
        held = [g.t_levels, g.g_levels, *g._moves, *g._cover[0], *g._cover[1]]
        assert sorted(map(id, cached_arrays(g))) == sorted(map(id, held))

    @pytest.mark.parametrize(
        "warping",
        [
            WarpingFunction.cosh_type(1.0, 1.3, IV),
            WarpingFunction.affine(1.0, 0.8, IV),
            WarpingFunction.exponential(1.0, -0.6, IV),
        ],
        ids=["cosh", "affine", "exponential"],
    )
    def test_each_step_gathers_its_own_moves(self, warping):
        # the DP reads the first depth[k] rows of the move index on step k:
        # all of that step's moves and few others, where the widest step's
        # move list read 14-27 % -inf weights on these grids
        g = ConeGrid(IV, path_space(201, 1.0), warping, 40)
        nbrs, du, depth, dist, table = g._move_index()
        d = np.where(du < dist.size - 1, g.fiber.dist[nbrs, np.arange(g.m)], np.inf)
        read = no_move = 0
        for k in range(g.n_t):
            thr = g.g_levels[k + 1] - g.g_levels[k] + g.causal_slack
            assert depth[k] == (g.fiber.dist <= thr).sum(axis=0).max()
            assert not np.any(d[depth[k] :] <= thr)
            w = table[k].take(du[: depth[k]])
            read += w.size
            no_move += np.count_nonzero(w == -np.inf)
        assert len(set(depth.tolist())) > 1
        assert no_move / read < 0.03

    def test_all_sources_memory_stays_bounded(self):
        # every fiber pair is causal across a level step: 90000 moves, 900
        # sources; one gather over all of them would take 650 MB
        g = ConeGrid(IV, path_space(300, 0.5), WarpingFunction.constant(1.0, IV), 2)
        tracemalloc.start()
        try:
            res = time_separation(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        for p in [(0, 0), (0, 299), (1, 150)]:
            single = time_separation(g, sources=[p]).rows[0]
            assert np.array_equal(res.rows[res.sources.index(p)], single)
        # explicit sources skip the all-points cap: 100 sources on level 0
        # of a 101-level grid keep one level of values at a time, not 101
        g = ConeGrid(IV, path_space(100, 0.5), WarpingFunction.constant(1.0, IV), 100)
        tracemalloc.start()
        try:
            res = time_separation(g, sources=[(0, j) for j in range(100)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * res.rows.nbytes

    def test_monotone_under_fiber_refinement(self):
        vals = []
        for m in (51, 101, 201):
            fiber = path_space(m, 1.0)
            g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 20)
            vals.append(time_separation(g, sources=[(0, 0)]).value((0, 0), (20, (m - 1) * 3 // 5)))
        exact = 0.8
        errs = [abs(v - exact) for v in vals]
        assert errs[0] >= errs[1] >= errs[2] - 1e-12


PHI_WARPINGS = {
    "constant2": WarpingFunction.constant(2.0, IV),
    "affine": WarpingFunction.affine(1.0, 2.0, IV),
    "cosh": WarpingFunction.cosh_type(0.5, 2.0, IV),
}
PHI_FIBERS = {
    "path": path_space(9, 1.0),
    "circle": circle_space(10, 2.0),
    "tripod": tripod_space(3, 1.0),
}
PHIS = {
    "quadratic": lambda t: t + 0.5 * t * t,
    "exp": lambda t: np.exp(2.0 * t),
    "cubic": lambda t: t**3 + t / 10.0,
}


def reference_phi_checks(grid, result):
    """null_distance_phi's report on its own result, one source at a time:
    the witness is the first source, then its first point, at the strict
    minimum of the gap margin."""
    phi_levels = result.weight_levels
    c_const = float(np.max(np.diff(grid.g_levels) / np.diff(phi_levels)))
    d = grid.fiber.dist
    g = grid.g_levels
    lv = np.repeat(np.arange(grid.n_levels), grid.m)
    fb = np.tile(np.arange(grid.m), grid.n_levels)
    worst_causal = 0.0
    worst_margin = np.inf
    witness = None
    n_checked = 0
    for s, (i0, j0) in enumerate(result.sources):
        row = result.rows[s]
        gaps = np.abs(g[lv] - g[i0])
        dists = d[j0, fb]
        causal = grid.causal_row(i0, j0).ravel()
        n_checked += row.size
        err = np.abs(row[causal] - np.abs(phi_levels[lv[causal]] - phi_levels[i0]))
        if err.size:
            worst_causal = max(worst_causal, float(err.max()))
        non = ~causal
        if np.any(non):
            phigap = np.abs(phi_levels[lv[non]] - phi_levels[i0])
            bound = phigap + (dists[non] - gaps[non]) / c_const
            margin = row[non] - bound
            k = int(np.argmin(margin))
            if float(margin[k]) < worst_margin:
                worst_margin = float(margin[k])
                witness = ((i0, j0), grid.point(int(np.nonzero(non)[0][k])))
    return PhiReport(
        causal_exact=worst_causal <= 1e-9,
        worst_causal_error=worst_causal,
        gap_bound_holds=bool(worst_margin >= -1e-9),
        worst_gap_margin=worst_margin if math.isfinite(worst_margin) else 0.0,
        c_constant=c_const,
        n_checked=n_checked,
        witness=witness,
    )


class TestPhi:
    def test_identity_reduces_to_null_distance(self):
        g = small_grid(n_t=8, n_f=9)
        base = null_distance(g).full_matrix()
        res, rep = null_distance_phi(g, lambda t: t)
        assert np.array_equal(res.full_matrix(), base)
        assert rep.causal_exact and rep.gap_bound_holds

    def test_linear_doubles_exactly(self):
        # dyadic grid: weights double bitwise under phi = 2t + 5
        iv = Interval(0.0, 1.0)
        fiber = path_space(17, 1.0)
        g = ConeGrid(iv, fiber, WarpingFunction.constant(1.0, iv), 16)
        base = null_distance(g).full_matrix()
        res, rep = null_distance_phi(g, lambda t: 2.0 * t + 5.0)
        assert np.array_equal(res.full_matrix(), 2.0 * base)
        assert rep.causal_exact

    def test_nonlinear_gap_bound(self):
        g = small_grid(n_t=12, n_f=13)
        res, rep = null_distance_phi(g, lambda t: t + 0.5 * t * t)
        assert rep.causal_exact
        assert rep.gap_bound_holds, rep.worst_gap_margin
        # the grid constant: the first level step, G-gap 1/12 against
        # phi-gap 1/12 + 1/288
        assert rep.c_constant == pytest.approx(1.0 / (1.0 + 1.0 / 24.0), rel=1e-15)

    def test_gap_bound_attained_on_product_cone(self):
        # f = 2 gives G = t/2, so c = 1/2 and the bound reads 2 d on
        # non-causal pairs: the product cone's null distance there, which the
        # grid attains
        g = small_grid(n_t=16, n_f=17, warping=WarpingFunction.constant(2.0, IV))
        _, rep = null_distance_phi(g, lambda t: t)
        assert rep.c_constant == 0.5
        assert rep.gap_bound_holds
        assert abs(rep.worst_gap_margin) <= 1e-12

    @pytest.mark.parametrize("phi", list(PHIS), ids=list(PHIS))
    @pytest.mark.parametrize("fiber", list(PHI_FIBERS), ids=list(PHI_FIBERS))
    @pytest.mark.parametrize("warping", list(PHI_WARPINGS), ids=list(PHI_WARPINGS))
    def test_gap_bound_holds(self, warping, fiber, phi):
        g = ConeGrid(IV, PHI_FIBERS[fiber], PHI_WARPINGS[warping], 12)
        res, rep = null_distance_phi(g, PHIS[phi])
        assert rep.causal_exact, rep.worst_causal_error
        assert rep.gap_bound_holds, (rep.worst_gap_margin, rep.witness)
        assert repr(rep) == repr(reference_phi_checks(g, res))

    def test_non_monotone_rejected(self):
        g = small_grid()
        with pytest.raises(InvalidInputError):
            null_distance_phi(g, lambda t: -t)


class TestCheckParity:
    """The block-wise checks report what the per-source loops report, by
    repr: every worst margin, violation list and its order, note and
    witness."""

    @staticmethod
    def assert_same(g, sources=None, phi=lambda t: t + 0.5 * t * t):
        res = null_distance(g, sources)
        rep = null_distance_guarantees(g, res)
        assert repr(rep) == repr(reference_guarantees(g, res))
        res_phi, rep_phi = null_distance_phi(g, phi, sources)
        assert repr(rep_phi) == repr(reference_phi_checks(g, res_phi))
        return rep, rep_phi

    def test_unit_cone_full_matrix(self):
        g = ConeGrid(IV, path_space(41, 1.0), WarpingFunction.constant(1.0, IV), 40)
        rep, _ = self.assert_same(g)
        assert rep.ok

    def test_tied_margins_keep_the_first_witness(self):
        # a dyadic unit cone: phi = t attains its gap margin 0 exactly, at
        # sources in every block; the witness is the first of them
        g = ConeGrid(IV, path_space(33, 1.0), WarpingFunction.constant(1.0, IV), 32)
        _, rep_phi = self.assert_same(g, phi=lambda t: t)
        assert rep_phi.worst_gap_margin == 0.0
        assert rep_phi.witness == ((0, 0), (0, 2))

    def test_upper_bound_violations_and_notes(self):
        g = ConeGrid(IV, path_space(41, 1.0), WarpingFunction.constant(1.01, IV), 40)
        res = null_distance(g)
        rep = null_distance_guarantees(g, res)
        assert len(rep.violations["upper-bound"]) > _GATHER_CAP // g.n_points
        assert rep.notes
        assert repr(rep) == repr(reference_guarantees(g, res))

    def test_worst_source_in_a_later_block(self):
        g = ConeGrid(IV, circle_space(24, 2.0), WarpingFunction.cosh_type(0.5, 2.0, IV), 30)
        rep, rep_phi = self.assert_same(g)
        block = _GATHER_CAP // g.n_points
        later = lambda src: all_grid_points(g).index(src) >= block
        assert later(rep_phi.witness[0])
        assert rep.violations["upper-bound"] and later(rep.violations["upper-bound"][-1][0])
        # the same sources in reverse: other blocks, other first witnesses
        self.assert_same(g, all_grid_points(g)[::-1])

    def test_one_source_per_block(self):
        g = ConeGrid(IV, path_space(257, 1.0), WarpingFunction.constant(1.0, IV), 256)
        assert g.n_points > _GATHER_CAP
        rng = np.random.default_rng(5)
        sources = list(zip(rng.integers(0, 257, 4).tolist(), rng.integers(0, 257, 4).tolist()))
        self.assert_same(g, sources)


def slice_result(grid, i0):
    """Null-distance rows from every point of the slice t = t_levels[i0]."""
    return null_distance(grid, [(i0, j) for j in range(grid.m)])


class TestSliceGuarantees:
    """null_distance_guarantees over the sources of one slice: its lower and
    upper bounds there compare the slice's null distance with the fiber
    metric, f_min * d <= dhat <= f_max * d + (2 + f_max) * step."""

    @pytest.mark.parametrize(
        "warping, i0",
        [
            (WarpingFunction.constant(1.0, IV), 10),
            (WarpingFunction.constant(2.0, IV), 0),
            (WarpingFunction.affine(1.0, 2.0, IV), 20),
        ],
        ids=["unit", "constant-two", "affine"],
    )
    def test_slice_bounds(self, warping, i0):
        g = small_grid(n_t=20, n_f=21, warping=warping)
        rep = null_distance_guarantees(g, slice_result(g, i0))
        assert rep.ok, rep.violations

    def test_unit_warping_equality_up_to_one_step(self):
        # a closed path balances its up and down moves, so slice costs live
        # on the lattice of doubled t-steps: odd fiber gaps miss by one step
        g = small_grid(n_t=20, n_f=21)
        i0 = 10
        res = slice_result(g, i0)
        dev = np.abs(res.rows[:, [g.node(i0, j) for j in range(g.m)]] - g.fiber.dist)
        assert dev.max() <= 1.0 / g.n_t + 1e-12
        assert np.sum(dev <= 1e-12) > g.m * g.m // 2


class TestMinimizerAnalysis:
    def test_defects_shrink_under_refinement(self):
        # an odd fiber gap forces a genuine quantization defect
        worst = []
        for n_t in (10, 20, 40):
            g = small_grid(n_t=n_t, n_f=n_t + 1)
            ana = minimizer_analysis(g, (0, 0), (0, n_t - 1))
            worst.append(max(d for _, d in ana.run_defects))
        assert worst[0] >= worst[1] >= worst[2] - 1e-12
        assert worst[2] <= 2.0 / 40 + 1e-12

    def test_causal_pair_vacuous(self):
        g = small_grid()
        ana = minimizer_analysis(g, (0, 0), (10, 0))
        assert "causal" in ana.diagnostic

    def test_trivial_pair(self):
        g = small_grid()
        assert minimizer_analysis(g, (3, 3), (3, 3)).diagnostic == "trivial pair"

    def test_path_realizes_the_sweep_row(self):
        iv = Interval(0.0, 50.0)
        g = small_grid(n_t=50, fiber=path_space(31, 30.0),
                       warping=WarpingFunction.affine(1.0, 0.1, iv), interval=iv)
        for p, q in (((0, 0), (0, 30)), ((10, 3), (4, 29)), ((50, 30), (20, 0)), ((25, 0), (25, 30))):
            assert g.causal_relation(p, q) == NONE == g.causal_relation(q, p)
            path = minimizer_analysis(g, p, q).path
            assert path[0] == p and path[-1] == q
            for u, v in zip(path, path[1:]):
                assert g.causal_relation(u, v) != NONE or g.causal_relation(v, u) != NONE
            cost = sum(abs(g.t_levels[v[0]] - g.t_levels[u[0]]) for u, v in zip(path, path[1:]))
            want = null_distance(g, [p]).value(p, q)
            assert abs(cost - want) <= 1e-12 * (len(path) - 1)

    def test_table_cap_refuses(self):
        # 301 levels x 1000^2 fiber pairs exceed the 3e8-entry threshold tables
        g = small_grid(n_t=300, fiber=path_space(1000, 1.0))
        with pytest.raises(SizeBoundError):
            minimizer_analysis(g, (0, 0), (0, 999))

    def test_defects_nonnegative(self):
        g = small_grid(n_t=14, n_f=15, warping=WarpingFunction.affine(1.0, 1.0, IV))
        ana = minimizer_analysis(g, (0, 0), (2, 14))
        assert ana.run_defects
        for _, defect in ana.run_defects:
            assert defect >= -1e-12


class TestSources:
    def test_stratified_budget(self):
        g = small_grid(n_t=30, n_f=31)
        srcs = stratified_sources(g, 5000, seed=1)
        assert len(srcs) * g.n_points <= 5000 + g.n_points
        assert len(set(srcs)) == len(srcs)
        assert srcs == [(0, 30), (8, 0), (15, 8), (22, 15), (30, 22)]

    def test_sources_leave_numpy_ma_unloaded(self):
        # a bare np.unique imports numpy.ma on its first call in a process
        code = (
            "import sys\n"
            "from nulldist import Interval, WarpingFunction, path_space\n"
            "from nulldist.cone import ConeGrid, stratified_sources\n"
            "print('numpy.ma' in sys.modules)\n"
            "iv = Interval(0.0, 1.0)\n"
            "g = ConeGrid(iv, path_space(31, 1.0), WarpingFunction.constant(1.0, iv), 30)\n"
            "assert stratified_sources(g, 5000, seed=1)\n"
            "print('numpy.ma' in sys.modules)\n"
            "from nulldist import time_separation, time_separation_path\n"
            "assert time_separation(g, [(0, 15), (4, 3)]).rows.any()\n"
            "assert time_separation_path(g, (0, 15), (30, 12))[0] > 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(nulldist.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["False", "False", "False"]

    def test_full_matrix_guard(self):
        fiber = path_space(101, 1.0)
        g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 100)
        with pytest.raises(SizeBoundError):
            null_distance(g)

    def test_rows_match_full(self):
        g = small_grid(n_t=6, n_f=7)
        full = null_distance(g)
        part = null_distance(g, sources=[(0, 0), (3, 4)])
        assert np.array_equal(part.rows[0], full.full_matrix()[g.node(0, 0)])
        assert np.array_equal(part.rows[1], full.full_matrix()[g.node(3, 4)])


class TestConeValidation:
    def test_disconnected_fiber_rejected(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        fiber = FiniteLengthSpace((0, 1), d)
        with pytest.raises(InvalidInputError):
            ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 4)

    def test_warping_domain_must_cover(self):
        w = WarpingFunction.constant(1.0, Interval(0.0, 0.5))
        with pytest.raises(InvalidInputError):
            ConeGrid(IV, path_space(5, 1.0), w, 4)
