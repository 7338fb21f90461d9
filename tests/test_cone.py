import math
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from nulldist import (
    ConeGrid,
    DiscretePreLengthSpace,
    FiniteLengthSpace,
    Interval,
    WarpingFunction,
    circle_space,
    fiber_metric_comparison,
    minimizer_analysis,
    null_distance,
    null_distance_guarantees,
    null_distance_phi,
    null_distance_matrix,
    path_space,
    time_separation,
    time_separation_path,
    tripod_space,
)
from nulldist.cone import (
    _BATCH,
    CAUSAL,
    CHRONOLOGICAL,
    NONE,
    _close_bands,
    all_grid_points,
    stratified_sources,
)
from nulldist.errors import InvalidInputError, ParameterError, SizeBoundError

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
    batches of _BATCH sources, with the bands closed before the third pass
    pair, stopping at a pass pair that changes nothing. Returns the rows and
    the pass pairs each batch used."""
    rows, counts = [], []
    for lo in range(0, len(sources), _BATCH):
        batch = sources[lo : lo + _BATCH]
        val, passes = plain_sweeps(grid, batch, pi)
        sweeps = 1
        while True:
            if sweeps == 3:
                _close_bands(grid, val, pi)
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
    every vertex; -1 between components."""
    n = adj.shape[0]
    hops = np.full((n, n), -1)
    for s in range(n):
        hops[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in np.nonzero(adj[u])[0]:
                if hops[s, v] < 0:
                    hops[s, v] = hops[s, u] + 1
                    queue.append(v)
    return hops


_XS = np.sort(np.random.default_rng(5).uniform(0.0, 0.8, 14))
IRREGULAR = FiniteLengthSpace(tuple(range(_XS.size)), np.abs(_XS[:, None] - _XS[None, :]))
CLOSURE_FIBERS = [path_space(33, 1.0), circle_space(24, 1.0), tripod_space(8, 0.25)]


class TestBandClosure:
    @pytest.mark.parametrize(
        "fiber", CLOSURE_FIBERS + [IRREGULAR], ids=["path", "circle", "tripod", "irregular"]
    )
    def test_hops_match_bfs(self, fiber):
        # f runs from 0.1 to 1.1: band graphs from several hops wide down to
        # self edges only
        g = ConeGrid(IV, fiber, WarpingFunction.affine(0.1, 1.0, IV), 40)
        shared = {}
        for k, hops in enumerate(g._band_hops()):
            adj = fiber.dist <= abs(g.g_levels[k + 1] - g.g_levels[k]) + g.causal_slack
            if hops is None:
                assert np.array_equal(adj, np.eye(g.m, dtype=bool))
                continue
            assert hops.dtype == np.int16
            assert np.array_equal(hops, bfs_hops(adj))
            shared.setdefault(adj.tobytes(), set()).add(id(hops))
        # one array per distinct graph, and several graphs
        assert len(shared) > 1 and all(len(ids) == 1 for ids in shared.values())
        assert len({i for ids in shared.values() for i in ids}) == len(shared)
        if fiber is IRREGULAR:
            # close points join every band somewhere, and far ones split it
            assert any(np.any(h < 0) for h in g._band_hops())
        else:
            assert any(h is None for h in g._band_hops())

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
        assert any(h is not None for h in g._band_hops())
        oracle = dijkstra_rows(causal_weights(g, pi), [g.node(*p) for p in sources])
        assert np.abs(res.rows - oracle).max() <= 1e-12

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
        assert g._hops is None


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

    def test_relays_equal_the_full_lune_test(self):
        # the edge test runs once per unordered pair; a random plane cloud
        # has distinct distances and a sparse, irregular graph
        fiber = plane_cloud(60, 4)
        assert np.array_equal(small_grid(fiber=fiber)._relays(), reference_relays(fiber))

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
        f_mid = float(grid.warping.value(0.5 * (grid.t_levels[i] + grid.t_levels[i + 1])))
        nxt = {}
        for j, v in val.items():
            for k in range(m):
                d = grid.fiber.dist[j, k]
                if d > gap + grid.causal_slack:
                    continue
                w = 0.0
                if d < gap - grid.causal_slack:
                    w = math.sqrt(max(dt * dt - (f_mid * d) * (f_mid * d), 0.0))
                nxt[k] = max(nxt.get(k, -math.inf), v + w)
        val = nxt
        for k, v in val.items():
            row[(i + 1) * m + k] = max(v, 0.0)
    return row


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
            if val > 0:
                positive += 1
                assert path[0] == p and path[-1] == q
                for u, v in zip(path, path[1:]):
                    assert v[0] == u[0] + 1
                    assert g.causal_relation(u, v) != NONE
        assert positive >= 3

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
        _, rep = null_distance_phi(g, PHIS[phi])
        assert rep.causal_exact, rep.worst_causal_error
        assert rep.gap_bound_holds, (rep.worst_gap_margin, rep.witness)

    def test_non_monotone_rejected(self):
        g = small_grid()
        with pytest.raises(InvalidInputError):
            null_distance_phi(g, lambda t: -t)


class TestFiberComparison:
    def test_unit_warping_equality_up_to_one_step(self):
        g = small_grid(n_t=20, n_f=21)
        rep = fiber_metric_comparison(g, 0.5)
        assert rep.lower_ok and rep.upper_ok
        assert rep.unit_max_deviation <= 1.0 / g.n_t + 1e-12
        assert rep.unit_equal_count > rep.n_pairs // 2

    def test_constant_two_ratio(self):
        g = small_grid(n_t=20, n_f=21, warping=WarpingFunction.constant(2.0, IV))
        rep = fiber_metric_comparison(g, 0.0)
        assert rep.lower_ok and rep.upper_ok

    def test_affine_bounds(self):
        g = small_grid(n_t=20, n_f=21, warping=WarpingFunction.affine(1.0, 2.0, IV))
        rep = fiber_metric_comparison(g, 1.0)
        assert rep.lower_ok and rep.upper_ok


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
