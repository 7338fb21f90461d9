import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulldist import (
    Correspondence,
    FiniteLengthSpace,
    circle_space,
    distortion,
    epsilon_net,
    gh_distance_exact,
    intrinsic_metric,
    path_space,
    quadruple_curvature_check,
    tripod_space,
    validate_metric,
)
from nulldist.errors import (
    DisconnectedGraphError,
    InvalidInputError,
    ParameterError,
    SizeBoundError,
)
from nulldist.metric_core import (
    QUADRUPLE_SAMPLE_CAP,
    QuadrupleVerdict,
    all_correspondences,
    full_correspondence,
    identity_correspondence,
    verify_net,
)
from nulldist.model_spaces import comparison_angle_many


def two_point(d=1.0):
    return FiniteLengthSpace((0, 1), np.array([[0.0, d], [d, 0.0]]))


class TestValidateMetric:
    def test_valid_two_point(self):
        assert validate_metric(two_point()).ok

    def test_symmetry_violation(self):
        m = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [2.0, 0.0]]))
        rep = validate_metric(m)
        assert "asymmetry" in rep.kinds()
        assert any(v.where == (0, 1) for v in rep.violations)

    def test_triangle_violation(self):
        d = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        rep = validate_metric(FiniteLengthSpace((0, 1, 2), d))
        assert "triangle" in rep.kinds()

    def test_nan_raises(self):
        with pytest.raises(InvalidInputError):
            validate_metric(FiniteLengthSpace((0, 1), np.array([[0, np.nan], [np.nan, 0]])))

    def test_non_square_raises(self):
        with pytest.raises(InvalidInputError):
            FiniteLengthSpace((0, 1), np.zeros((2, 3)))


class TestIntrinsicMetric:
    def test_path_graph(self):
        m = intrinsic_metric(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert m.dist[0, 2] == 2.0
        assert m.provenance == "graph-induced"

    def test_triangle_graph(self):
        m = intrinsic_metric(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert np.all(m.dist[~np.eye(3, dtype=bool)] == 1.0)

    def test_four_cycle_against_enumeration(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
        m = intrinsic_metric(4, edges)
        # oracle: enumerate all simple paths
        adj = {i: [] for i in range(4)}
        for a, b, w in edges:
            adj[a].append((b, w))
            adj[b].append((a, w))

        def best(src, dst):
            best_len = math.inf
            stack = [(src, 0.0, {src})]
            while stack:
                u, acc, seen = stack.pop()
                if u == dst:
                    best_len = min(best_len, acc)
                    continue
                for v, w in adj[u]:
                    if v not in seen:
                        stack.append((v, acc + w, seen | {v}))
            return best_len

        for i in range(4):
            for j in range(4):
                if i != j:
                    assert m.dist[i, j] == best(i, j)
        assert m.dist[0, 2] == 2.0

    def test_disconnected_names_components(self):
        with pytest.raises(DisconnectedGraphError) as exc:
            intrinsic_metric(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert sorted(map(tuple, exc.value.components)) == [(0, 1), (2, 3)]

    def test_bad_weight(self):
        with pytest.raises(InvalidInputError):
            intrinsic_metric(2, [(0, 1, -1.0)])

    def test_validates(self):
        m = intrinsic_metric(5, [(i, i + 1, 0.3) for i in range(4)] + [(0, 4, 0.5)])
        assert validate_metric(m).ok


class TestEpsilonNet:
    def test_path_101(self):
        m = path_space(101, 1.0)
        net = epsilon_net(m, 0.25)
        assert len(net.center_indices) <= 5
        assert net.covering_radius_achieved <= 0.25
        assert verify_net(m, net).passed

    def test_eps_above_diameter(self):
        net = epsilon_net(path_space(11, 1.0), 1.5)
        assert len(net.center_indices) == 1

    def test_two_points_apart(self):
        net = epsilon_net(two_point(1.0), 0.4)
        assert sorted(net.center_indices) == [0, 1]

    def test_nonpositive_eps(self):
        with pytest.raises(ParameterError):
            epsilon_net(two_point(), 0.0)

    @given(st.integers(5, 40), st.floats(0.05, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_centers_separated_and_covering(self, n, eps):
        m = path_space(n, 1.0)
        net = epsilon_net(m, eps)
        centers = list(net.center_indices)
        sub = m.dist[np.ix_(centers, centers)]
        off = sub[~np.eye(len(centers), dtype=bool)]
        if off.size:
            assert off.min() > eps
        assert np.max(np.min(m.dist[:, centers], axis=1)) <= eps


class TestDistortion:
    def test_identity_zero(self):
        a = path_space(4, 1.0)
        assert distortion(identity_correspondence(4), a, a) == 0.0

    def test_two_point_pairing(self):
        a, b = two_point(1.0), two_point(1.2)
        r = Correspondence(((0, 0), (1, 1)))
        assert distortion(r, a, b) == pytest.approx(0.2)

    def test_full_correspondence(self):
        a, b = two_point(1.0), two_point(1.2)
        assert distortion(full_correspondence(2, 2), a, b) == pytest.approx(1.2)

    def test_invalid_correspondence(self):
        a = two_point()
        with pytest.raises(InvalidInputError):
            distortion(Correspondence(((0, 0),)), a, a)


class TestGHExact:
    def test_identical_zero(self):
        a = path_space(3, 1.0)
        res = gh_distance_exact(a, a)
        assert res.distance == 0.0

    def test_two_point_brute_force(self):
        a, b = two_point(1.0), two_point(1.2)
        corrs = list(all_correspondences(2, 2))
        assert len(corrs) == 7
        brute = min(distortion(r, a, b) for r in corrs) / 2.0
        res = gh_distance_exact(a, b)
        assert res.distance == pytest.approx(brute)
        assert res.distance == pytest.approx(0.1)

    def test_point_vs_segment(self):
        one = FiniteLengthSpace((0,), np.zeros((1, 1)))
        res = gh_distance_exact(one, two_point(1.0))
        assert res.distance == pytest.approx(0.5)

    def test_matches_brute_force_3x3(self):
        rng = np.random.default_rng(5)
        for trial in range(4):
            pts_a = rng.uniform(0, 1, (3, 2))
            pts_b = rng.uniform(0, 1, (3, 2))
            a = FiniteLengthSpace(
                (0, 1, 2), np.linalg.norm(pts_a[:, None] - pts_a[None], axis=2)
            )
            b = FiniteLengthSpace(
                (0, 1, 2), np.linalg.norm(pts_b[:, None] - pts_b[None], axis=2)
            )
            brute = min(distortion(r, a, b) for r in all_correspondences(3, 3)) / 2.0
            assert gh_distance_exact(a, b).distance == pytest.approx(brute)

    def test_symmetry_and_witness(self):
        a, b = path_space(3, 1.0), two_point(0.7)
        ab, ba = gh_distance_exact(a, b), gh_distance_exact(b, a)
        assert ab.distance == pytest.approx(ba.distance)
        assert ab.distance <= distortion(ab.witness, a, b) / 2.0 + 1e-15
        assert ab.witness.is_valid_for(a.n, b.n)

    def test_upper_bounded_by_any_correspondence(self):
        a, b = path_space(3, 1.0), path_space(4, 1.2)
        val = gh_distance_exact(a, b).distance
        for r in itertools.islice(all_correspondences(3, 4), 50):
            assert val <= distortion(r, a, b) / 2.0 + 1e-12

    def test_size_bound(self):
        with pytest.raises(SizeBoundError):
            gh_distance_exact(path_space(6, 1.0), path_space(6, 1.0))


def per_leg_quadruples(space, k, tol):
    """quadruple_curvature_check as one loop per first leg a over the triple
    sums angle[a, b] + angle[a, c] + angle[b, c]: the reference the engine's
    flat triple gather must match bit for bit."""
    n = space.n
    subsampled_to = None
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

    worst_excess = -math.inf
    worst_quad = None
    for p in range(n):
        oth = np.array([i for i in range(n) if i != p])
        m = oth.size
        bx = np.broadcast_to(d[p, oth][:, None], (m, m))
        cy = np.broadcast_to(d[p, oth][None, :], (m, m))
        ax = d[np.ix_(oth, oth)]
        iu = np.triu_indices(m, k=1)
        try:
            angles_flat = comparison_angle_many(k, ax[iu], bx[iu], cy[iu])
        except ValueError as exc:
            for s, t in zip(*iu):
                try:
                    comparison_angle_many(
                        k, np.array([ax[s, t]]), np.array([bx[s, t]]), np.array([cy[s, t]])
                    )
                except ValueError:
                    failure = (int(index_map[p]), int(index_map[oth[s]]), int(index_map[oth[t]]), str(exc))
                    return QuadrupleVerdict(
                        k, tol, False, model_failure=failure, subsampled_to=subsampled_to
                    )
            raise
        angle = np.zeros((m, m))
        angle[iu] = angles_flat
        angle = angle + angle.T
        for ia in range(m - 2):
            tail = angle[ia, ia + 1 :]
            block = tail[:, None] + tail[None, :] + angle[ia + 1 :, ia + 1 :]
            iu2 = np.triu_indices(m - ia - 1, k=1)
            flat = block[iu2]
            pos = int(np.argmax(flat))
            if flat[pos] - 2.0 * math.pi > worst_excess:
                worst_excess = float(flat[pos] - 2.0 * math.pi)
                ib = ia + 1 + int(iu2[0][pos])
                ic = ia + 1 + int(iu2[1][pos])
                worst_quad = tuple(int(index_map[q]) for q in (p, oth[ia], oth[ib], oth[ic]))
    return QuadrupleVerdict(
        k, tol, bool(worst_excess <= tol), worst_quad, float(worst_excess), subsampled_to=subsampled_to
    )


def cloud_space(n, seed):
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3))
    return FiniteLengthSpace(tuple(range(n)), np.linalg.norm(pts[:, None] - pts[None], axis=2))


def near_equilateral_space():
    # six points 2 apart up to 1e-15: at k = -1 every triple sum is about 0.3,
    # and group maxima a few ulps apart round together once 2 pi is taken off
    noise = np.random.default_rng(57).uniform(0.0, 1e-15, (6, 6))
    d = np.triu(2.0 + noise, 1)
    return FiniteLengthSpace(tuple(range(6)), d + d.T)


def two_component_space():
    # a 2-point and a 5-point path infinitely far apart
    d = np.full((7, 7), np.inf)
    d[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    d[2:, 2:] = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    return FiniteLengthSpace(tuple(range(7)), d)


QUADRUPLE_ORACLE_SPACES = {
    "tripod1": tripod_space(1, 1.0),
    "tripod5": tripod_space(5, 1.0),
    "tripod20": tripod_space(20, 1.0),
    "path4": path_space(4, 3.0),
    "path20": path_space(20, 1.0),
    "path80": path_space(80, 1.0),
    "circle12": circle_space(12, 4.0),
    "circle30": circle_space(30, 1.0),
    "circle61": circle_space(61, 1.0),
    "cloud5": cloud_space(5, 1),
    "cloud9": cloud_space(9, 5),
    "cloud17": cloud_space(17, 2),
    "cloud40": cloud_space(40, 3),
    "cloud61": cloud_space(61, 4),
    "near_equilateral": near_equilateral_space(),
}


class TestQuadruple:
    @pytest.mark.parametrize("name", list(QUADRUPLE_ORACLE_SPACES))
    def test_matches_per_leg_loop(self, name):
        # verdicts equal by repr: passes, worst quadruples and excesses,
        # model-failure witnesses and messages (k = 1 on the two components,
        # k = 9 on most spaces) and subsampled_to (tripod20, path80, the
        # 61-point spaces)
        space = QUADRUPLE_ORACLE_SPACES[name]
        for k in (-1.0, 0.0, 1.0, 9.0):
            for tol in (1e-9, 1e-6):
                got = quadruple_curvature_check(space, k, tol)
                assert repr(got) == repr(per_leg_quadruples(space, k, tol)), (k, tol)

    def test_infinite_distances_refused(self):
        for k in (-1.0, 0.0, 1.0, 9.0):
            with pytest.raises(InvalidInputError):
                quadruple_curvature_check(two_component_space(), k)

    def test_nan_distance_refused(self):
        d = path_space(5, 1.0).dist.copy()
        d[1, 3] = d[3, 1] = np.nan
        with pytest.raises(InvalidInputError):
            quadruple_curvature_check(FiniteLengthSpace(tuple(range(5)), d), 0.0)

    def test_hyperbolic_overflow_is_a_model_failure(self):
        # sides near 1000 overflow cosh at k = -1; the law of cosines then
        # reads NaN, which must not pass silently
        pts = np.random.default_rng(0).uniform(0.0, 1000.0, (8, 2))
        space = FiniteLengthSpace(tuple(range(8)), np.linalg.norm(pts[:, None] - pts[None], axis=2))
        with np.errstate(over="ignore", invalid="ignore"):
            verdict = quadruple_curvature_check(space, -1.0)
        assert not verdict.passed
        assert verdict.model_failure is not None

    def test_subsampled_to_is_a_field(self):
        big, small = tripod_space(20, 1.0), tripod_space(3, 1.0)
        assert (big.n, small.n) == (61, 10)
        assert dataclasses.asdict(quadruple_curvature_check(big, 0.0))["subsampled_to"] == 60
        assert quadruple_curvature_check(small, 0.0).subsampled_to is None

    def test_tripod_fails_flat(self):
        verdict = quadruple_curvature_check(tripod_space(1, 1.0), 0.0)
        assert not verdict.passed
        assert verdict.worst_excess == pytest.approx(math.pi, abs=1e-12)

    def test_collinear_passes(self):
        m = path_space(4, 3.0)
        verdict = quadruple_curvature_check(m, 0.0, tol=1e-9)
        assert verdict.passed
        assert verdict.worst_excess <= 1e-9

    @pytest.mark.parametrize(
        "space", [path_space(8, 3.0), path_space(20, 3.0), circle_space(30, 1.0)],
        ids=["path8", "path20", "circle30"],
    )
    def test_geodesic_spaces_pass_flat_exactly(self, space):
        # distances along a geodesic add up only to within an ulp; straight
        # comparison angles must still come out exactly pi
        verdict = quadruple_curvature_check(space, 0.0, tol=1e-9)
        assert verdict.passed
        assert verdict.worst_excess == 0.0

    def test_three_points_vacuous(self):
        assert quadruple_curvature_check(path_space(3, 1.0), 0.0).passed

    def test_monotone_in_k(self):
        # pass at k' implies pass at k <= k'
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, (6, 3))
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        m = FiniteLengthSpace(tuple(range(6)), d)
        for k_lo, k_hi in [(-2.0, -0.5), (-1.0, 0.0)]:
            hi = quadruple_curvature_check(m, k_hi)
            lo = quadruple_curvature_check(m, k_lo)
            if hi.passed:
                assert lo.passed

    def test_circle_passes_positive_bound(self):
        # collinear-on-circle quadruples sit exactly at the 2 pi boundary and
        # arccos conditioning turns argument ulps into ~1e-8 angle noise
        m = circle_space(12, 4.0)
        assert quadruple_curvature_check(m, 1.0, tol=1e-6).passed

    def test_sphere_constraint_witness(self):
        # perimeter beyond 2 pi / sqrt(k) triggers a model-constraint failure
        m = path_space(4, 3.0)
        verdict = quadruple_curvature_check(m, 9.0)
        assert not verdict.passed
        assert verdict.model_failure is not None
