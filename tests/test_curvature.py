import math

import numpy as np
import pytest
from conftest import reference_accumulate, reference_time_separation_path

from nulldist import (
    ConeGrid,
    Interval,
    WarpingFunction,
    circle_space,
    compute_fiber_bound,
    concavity_check,
    path_space,
    persistence_experiment,
    sample_timelike_triangles,
    time_separation_path,
    triangle_comparison,
    tripod_space,
)
from nulldist import cone
from nulldist.cone import _dp_rows, _read_back, all_grid_points, time_separation
from nulldist.curvature import _triangle_from_vertices, dp_refinement_error
from nulldist.errors import ModelConstraintError, ParameterError

IV01 = Interval(0.0, 1.0)


def flat_grid(n_t=60, n_f=201, t_max=3.0):
    iv = Interval(0.0, t_max)
    return ConeGrid(iv, path_space(n_f, 1.0), WarpingFunction.constant(1.0, iv), n_t)


class TestSampling:
    def test_deterministic(self):
        g = flat_grid(n_t=30, n_f=31)
        t1, d1 = sample_timelike_triangles(g, 5, seed=9)
        t2, d2 = sample_timelike_triangles(g, 5, seed=9)
        assert [t.vertices() for t in t1] == [t.vertices() for t in t2]
        assert d1 == d2

    def test_reverse_triangle_holds(self):
        g = flat_grid(n_t=30, n_f=31)
        tris, _ = sample_timelike_triangles(g, 6, seed=3)
        for t in tris:
            assert t.c >= t.a + t.b - 1e-9

    def test_side_paths_accumulate_to_the_side_values(self):
        # the README curvature experiment: steps inside the causal slack of
        # the null cone must count zero along a path, as they do in the DP
        g = flat_grid(n_t=40, n_f=41, t_max=2.0)
        tris, _ = sample_timelike_triangles(g, 5, seed=7)
        assert len(tris) == 5
        for t in tris:
            for (u, v), name, side in (
                ((t.x, t.y), "xy", t.a), ((t.y, t.z), "yz", t.b), ((t.x, t.z), "xz", t.c)
            ):
                path, acc = t.side_paths[name]
                assert abs(acc[-1] - side) <= 1e-12
                # the step table gives bitwise the per-step formula
                assert reference_time_separation_path(g, u, v) == (side, path)
                assert np.array_equal(acc, reference_accumulate(g, path))

    def test_count_zero(self):
        g = flat_grid(n_t=20, n_f=21)
        tris, _ = sample_timelike_triangles(g, 0, seed=1)
        assert tris == []

    def test_filtered_seed_triangles_are_counted(self):
        # the three extremal seed triangles have sides 2.73, 3.0 and 2.87
        g = flat_grid(n_t=30, n_f=21)
        tris, diag = sample_timelike_triangles(g, 3, seed=1, size_bound=2.0, max_attempts=0)
        assert tris == []
        assert diag["filtered_by_size"] == 3

    def test_all_filtered_diagnostic(self):
        # vertical pairs are always chronological on a cone grid, so the
        # empty outcome arises through the size filter
        iv = Interval(0.0, 0.05)
        g = ConeGrid(iv, path_space(6, 1.0), WarpingFunction.constant(1.0, iv), 4)
        tris, diag = sample_timelike_triangles(g, 4, seed=2, size_bound=1e-9, max_attempts=40)
        assert tris == []
        assert "note" in diag
        assert diag["filtered_by_size"] > 0


def read_back(g, p, q):
    return _read_back(g, _dp_rows(g, [p], g.n_t)[0], p, q)


class TestAccumulate:
    """Step lengths accumulated by the read-back of a DP row."""

    @pytest.mark.parametrize(
        "fiber,warping",
        [
            (circle_space(24, 1.0), WarpingFunction.affine(1.0, 0.8, IV01)),
            (tripod_space(10, 0.3), WarpingFunction.cosh_type(1.0, 1.2, IV01)),
            (path_space(31, 1.0), WarpingFunction.exponential(1.0, -0.6, IV01)),
        ],
    )
    def test_equals_the_per_step_formula(self, fiber, warping):
        g = ConeGrid(IV01, fiber, warping, 12)
        rng = np.random.default_rng(3)
        positive = 0
        for _ in range(12):
            p = (int(rng.integers(0, 4)), int(rng.integers(0, g.m)))
            q = (int(rng.integers(p[0] + 4, g.n_levels)), int(rng.integers(0, g.m)))
            val, path, acc = read_back(g, p, q)
            assert (val, path) == time_separation_path(g, p, q)
            if val > 0:
                positive += 1
                assert np.array_equal(acc, reference_accumulate(g, path))  # bitwise
                assert abs(acc[-1] - val) <= 1e-12
        assert positive >= 3

    @pytest.mark.parametrize("n_f,spacing,n_t", [(11, 1.0, 10), (3, 10.0, 4)])
    def test_every_step_is_a_move_of_its_level(self, n_f, spacing, n_t):
        # the wide grid has self-moves only, each column its move and its
        # padding at an infinite distance
        g = ConeGrid(IV01, path_space(n_f, spacing), WarpingFunction.constant(1.0, IV01), n_t)
        nbrs, _, depth, _ = g._move_index()
        for p in all_grid_points(g):
            row = _dp_rows(g, [p], g.n_t)[0]
            for node in np.flatnonzero(np.isfinite(row)).tolist():
                _, path, acc = _read_back(g, row, p, g.point(node))
                assert path[0] == p and path[-1] == g.point(node)
                assert all(
                    j in nbrs[: depth[i], k] for (i, j), (_, k) in zip(path, path[1:])
                )
                assert np.isfinite(acc).all()

    def test_an_exactly_null_step_adds_zero(self):
        # G-gap 0.1 equals the fiber spacing, within the causal slack: the
        # maximizer climbs once and then takes two exactly-null steps
        g = ConeGrid(IV01, path_space(11, 1.0), WarpingFunction.constant(1.0, IV01), 10)
        val, path, acc = read_back(g, (0, 0), (3, 2))
        assert path == [(0, 0), (1, 0), (2, 1), (3, 2)]
        dt = float(g.t_levels[1] - g.t_levels[0])
        assert acc.tolist() == [0.0, dt, dt, dt] and abs(val - dt) <= 1e-12
        assert np.array_equal(acc, reference_accumulate(g, path))

    def test_trivial_and_unreachable_pairs(self):
        g = ConeGrid(IV01, path_space(11, 1.0), WarpingFunction.constant(1.0, IV01), 10)
        val, path, acc = read_back(g, (2, 3), (2, 3))
        assert (val, path, acc.tolist()) == (0.0, [(2, 3)], [0.0])
        for q in ((2, 4), (1, 3), (3, 8)):
            val, path, acc = read_back(g, (2, 3), q)
            assert (val, path, acc.size) == (0.0, [], 0)


class TestDpRuns:
    """One time-separation DP run per source on the README curvature grid."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        inner = cone._dp_levels

        def spied(grid, sources, top):
            calls.append([tuple(s) for s in sources])
            return inner(grid, sources, top)

        monkeypatch.setattr(cone, "_dp_levels", spied)
        return calls

    def test_sampler_runs_one_per_distinct_source(self, spy):
        g = flat_grid(n_t=40, n_f=41, t_max=2.0)
        tris, _ = sample_timelike_triangles(g, 5, seed=7)
        assert len(tris) == 5
        sources = [s for call in spy for s in call]
        assert all(len(call) == 1 for call in spy)
        assert len(sources) == len(set(sources))
        assert {t.x for t in tris} | {t.y for t in tris} <= set(sources)

    def test_triangle_from_vertices_runs_one(self, spy):
        g = flat_grid(n_t=40, n_f=41, t_max=2.0)
        assert _triangle_from_vertices(g, (0, 20), (15, 22), (40, 18)) is not None
        assert spy == [[(0, 20), (15, 22)]]

    def test_comparison_runs_at_most_one(self, spy):
        g = flat_grid(n_t=40, n_f=41, t_max=2.0)
        tris, _ = sample_timelike_triangles(g, 5, seed=7)
        cache = {}
        for tri in tris:
            spy.clear()
            triangle_comparison(g, tri, 0.0, "lower", 5, 0.05, cache)
            assert len(spy) <= 1
            # every probe source is cached now
            spy.clear()
            triangle_comparison(g, tri, 0.0, "upper", 5, 0.05, cache)
            assert spy == []
        spy.clear()
        triangle_comparison(g, tris[0], 0.0, "lower", 5, 0.05)
        assert len(spy) == 1


class TestFlatComparison:
    def test_self_comparison_margins_small(self):
        g = flat_grid()
        tris, _ = sample_timelike_triangles(g, 6, seed=42, size_bound=2.0)
        cache = {}
        for tri in tris:
            lo = triangle_comparison(g, tri, 0.0, "lower", 5, tol=0.05, rho_cache=cache)
            up = triangle_comparison(g, tri, 0.0, "upper", 5, tol=0.05, rho_cache=cache)
            assert lo.passed and up.passed
            # both signs within tol: flat compares to itself
            assert abs(lo.worst_witness["margin"]) <= 0.05
            assert abs(up.worst_witness["margin"]) <= 0.05

    def test_degenerate_side_reduces_to_xz(self):
        g = flat_grid(n_t=40, n_f=41)
        tris, _ = sample_timelike_triangles(g, 3, seed=5)
        tri = tris[0]
        tri.side_paths["xy"] = ([tri.x], np.array([0.0]))
        tri.a = 0.0
        v = triangle_comparison(g, tri, 0.0, "lower", 3, tol=0.05)
        assert v.n_probes > 0

    def test_inadmissible_sides_error(self):
        g = flat_grid(n_t=40, n_f=41)
        tris, _ = sample_timelike_triangles(g, 1, seed=5)
        tri = tris[0]
        tri.c = tri.a + tri.b - 0.5  # break the reverse triangle inequality
        with pytest.raises(ModelConstraintError):
            triangle_comparison(g, tri, 0.0, "lower", 3, tol=0.05)

    def test_bad_direction(self):
        g = flat_grid(n_t=20, n_f=21)
        tris, _ = sample_timelike_triangles(g, 1, seed=5)
        with pytest.raises(ParameterError):
            triangle_comparison(g, tris[0], 0.0, "sideways", 3, tol=0.05)


class TestTripod:
    def test_explicit_branching_triangle(self):
        trip = tripod_space(50, 1.0)
        iv = Interval(0.0, 5.0)
        g = ConeGrid(iv, trip, WarpingFunction.constant(1.0, iv), 100)
        tri = _triangle_from_vertices(g, (0, 50), (50, 100), (100, 150))
        assert tri is not None
        assert tri.a == pytest.approx(1.5, abs=1e-9)
        assert tri.c == pytest.approx(math.sqrt(21), abs=1e-9)
        v = triangle_comparison(g, tri, 0.0, "lower", 5, tol=0.05)
        assert not v.passed
        assert v.worst_witness["margin"] == pytest.approx(-0.5, abs=1e-6)

    def test_sampled_detection(self):
        trip = tripod_space(50, 1.0)
        iv = Interval(0.0, 5.0)
        g = ConeGrid(iv, trip, WarpingFunction.constant(1.0, iv), 100)
        tris, _ = sample_timelike_triangles(g, 8, seed=7)
        cache = {}
        margins = [
            triangle_comparison(g, t, 0.0, "lower", 5, 0.05, cache).worst_witness["margin"]
            for t in tris
        ]
        assert min(margins) < -0.05


class TestWarpingConditions:
    def test_cosh_boundary_case(self):
        w = WarpingFunction.cosh_type(1.0, 1.0, IV01)
        v = concavity_check(w, 1.0)
        assert v.passed
        assert abs(v.witness) <= 1e-12

    def test_constant_flat(self):
        assert concavity_check(WarpingFunction.constant(1.0, IV01), 0.0).passed

    def test_convex_fails_concavity(self):
        ts = np.linspace(0, 1, 401)
        w = WarpingFunction.tabulated(ts, 1.0 + ts * ts)
        assert not concavity_check(w, 0.0).passed
        assert concavity_check(w, 0.0, mode="convex").passed

    def test_compute_fiber_bound_cosh(self):
        w = WarpingFunction.cosh_type(1.0, 1.0, IV01)
        assert compute_fiber_bound(w, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_compute_fiber_bound_constant(self):
        assert compute_fiber_bound(WarpingFunction.constant(1.0, IV01), 0.0) == 0.0

    def test_compute_fiber_bound_affine(self):
        w = WarpingFunction.affine(1.0, 1.0, IV01)
        assert compute_fiber_bound(w, 0.0) == pytest.approx(-1.0)

    def test_bound_continuity_in_c2(self):
        base = WarpingFunction.cosh_type(1.0, 1.0, IV01)
        want = compute_fiber_bound(base, 1.0)
        for delta in (1e-3, 1e-5):
            nearby = WarpingFunction.cosh_type(1.0 + delta, 1.0, IV01)
            got = compute_fiber_bound(nearby, 1.0 + delta)
            assert got == pytest.approx(want, abs=0.05 if delta > 1e-4 else 1e-3)


class TestRefinementError:
    def test_measured_error_positive_and_small(self):
        g = flat_grid(n_t=40, n_f=101)
        pairs = [((0, 0), (40, 60)), ((0, 20), (40, 80))]
        err = dp_refinement_error(g, pairs)
        assert 0 <= err <= 0.05

    def test_equals_the_per_pair_runs(self):
        # one DP per grid over all sources gives bitwise the per-pair rows
        g = ConeGrid(IV01, circle_space(24, 1.0), WarpingFunction.cosh_type(1.0, 1.2, IV01), 20)
        coarse = ConeGrid(IV01, g.fiber, g.warping, 10)
        pairs = [((0, 0), (20, 6)), ((2, 5), (18, 9)), ((4, 3), (12, 3)), ((1, 0), (9, 2)),
                 ((0, 0), (14, 20)), ((6, 11), (4, 11))]
        want = 0.0
        for p, q in pairs[:5]:
            if p[0] % 2 == 0 and q[0] % 2 == 0:
                cp, cq = (p[0] // 2, p[1]), (q[0] // 2, q[1])
                fine = time_separation(g, sources=[p]).value(p, q)
                want = max(want, abs(fine - time_separation(coarse, sources=[cp]).value(cp, cq)))
        assert want > 0
        assert dp_refinement_error(g, pairs) == want
        assert dp_refinement_error(g, [((1, 0), (9, 2))]) == 0.0


class TestPersistence:
    def test_product_mode_flat_fibers(self):
        fibers = [path_space(n, 1.0) for n in (11, 21, 41)]
        limit = path_space(81, 1.0)
        corrs = None
        # tol must dominate the longest-path discretization error at the
        # resolution the coarse fibers admit
        rep = persistence_experiment(
            "product",
            fibers,
            limit,
            interval=(0.0, 3.0),
            n_t=60,
            seed=11,
            n_triangles=4,
            n_probe=4,
            tol=0.25,
            side_cap=2.0,
        )
        tab = rep.cross_tab()
        assert all(r["fiber_pass"] for r in tab)
        assert all(r["cone_pass"] for r in tab)

    def test_product_mode_tripod_consistent_failure(self):
        fibers = [tripod_space(25, 1.0)]
        limit = tripod_space(50, 1.0)
        rep = persistence_experiment(
            "product",
            fibers,
            limit,
            interval=(0.0, 5.0),
            n_t=100,
            seed=7,
            n_triangles=6,
            n_probe=5,
            tol=0.05,
        )
        for row in rep.cross_tab():
            assert not row["fiber_pass"]
            assert not row["cone_pass"]

    def test_minkowski_cone_mode_circle(self):
        # fibers fine enough that single-step moves resolve the maximizers
        fibers = [circle_space(n, 4.0) for n in (500, 1000)]
        limit = circle_space(1000, 4.0)
        rep = persistence_experiment(
            "minkowski-cone",
            fibers,
            limit,
            interval=(0.5, 2.5),
            n_t=50,
            seed=3,
            n_triangles=4,
            n_probe=4,
            tol=0.12,
        )
        for row in rep.cross_tab():
            assert row["fiber_pass"]
            assert row["cone_pass"]

    def test_minkowski_mode_needs_truncation(self):
        with pytest.raises(ParameterError):
            persistence_experiment(
                "minkowski-cone",
                [circle_space(10, 4.0)],
                circle_space(10, 4.0),
                interval=(0.0, 1.0),
                n_t=10,
                seed=0,
                n_triangles=1,
                n_probe=1,
                tol=0.1,
            )
