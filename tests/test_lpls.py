import math
import warnings

import numpy as np
import pytest

from conftest import random_pre_length_space
from nulldist import (
    DiscretePreLengthSpace,
    FiniteLengthSpace,
    PiecewiseCausalPath,
    causally_convex_neighborhood,
    chain_rho_length,
    check_anti_lipschitz,
    check_time_function,
    null_distance_matrix,
    path_null_length,
    properties_report,
    rho_length_and_time_separation,
    validate_pls,
)
from nulldist.errors import InvalidInputError
from nulldist.lpls import FUTURE, PAST, TRIVIAL
from nulldist.metric_core import read_back_path


def shortest_path(space, tau, mat, src, dst):
    """A minimizing causal path src -> dst, read back from one row of the
    null-distance matrix `mat`."""
    tau = np.asarray(tau, dtype=float)
    related = space.causal | space.causal.T
    w = np.where(related, np.abs(tau[None, :] - tau[:, None]), np.inf)
    np.fill_diagonal(w, 0.0)
    return read_back_path(mat[src], w.__getitem__, src, dst)


def chain_space(rhos):
    """Total order 0 <= 1 <= ... with the given consecutive separations and
    their longest-path closure."""
    n = len(rhos) + 1
    causal = np.triu(np.ones((n, n), dtype=bool))
    rho = np.zeros((n, n))
    for i in range(n):
        acc = 0.0
        for j in range(i + 1, n):
            acc += rhos[j - 1]
            rho[i, j] = acc
    chrono = rho > 0
    base = FiniteLengthSpace(tuple(range(n)), np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float))
    return DiscretePreLengthSpace(base, causal, chrono, rho)


class TestValidate:
    def test_two_chain_valid(self):
        s = chain_space([1.0])
        assert validate_pls(s).ok

    def test_rho_without_chrono(self):
        s = chain_space([1.0])
        rho = s.rho.copy()
        chrono = s.chrono.copy()
        chrono[0, 1] = False
        bad = DiscretePreLengthSpace(s.base, s.causal, chrono, rho)
        rep = validate_pls(bad)
        assert "rho-chrono-mismatch" in rep.kinds()
        assert any(v.where == (0, 1) for v in rep.violations)

    def test_reverse_triangle_violation(self):
        s = chain_space([1.0, 1.0])
        rho = s.rho.copy()
        rho[0, 2] = 1.0
        rep = validate_pls(DiscretePreLengthSpace(s.base, s.causal, s.chrono, rho))
        assert "reverse-triangle" in rep.kinds()

    def test_random_instances_valid(self):
        for seed in range(25):
            space, _ = random_pre_length_space(6, seed)
            assert validate_pls(space).ok, f"seed {seed}"


class TestTimeFunction:
    def test_increasing_passes(self):
        s = chain_space([1.0])
        assert check_time_function(s, [0.0, 1.0]).passed

    def test_decreasing_fails_with_witness(self):
        s = chain_space([1.0])
        v = check_time_function(s, [1.0, 0.0])
        assert not v.passed and v.witness == (0, 1)

    def test_antichain_vacuous(self):
        base = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = DiscretePreLengthSpace(base, np.eye(2, dtype=bool), np.zeros((2, 2), bool), np.zeros((2, 2)))
        assert check_time_function(s, [5.0, -3.0]).passed


class TestNullLength:
    def test_constant_path_zero(self):
        s = chain_space([1.0, 2.0])
        path = PiecewiseCausalPath((1, 1, 1), (TRIVIAL, TRIVIAL))
        assert path_null_length(s, [0.0, 1.0, 3.0], path) == 0.0

    def test_future_chain(self):
        s = chain_space([1.0, 2.0])
        tau = [0.0, 1.0, 3.0]
        path = PiecewiseCausalPath((0, 1, 2), (FUTURE, FUTURE))
        assert path_null_length(s, tau, path) == pytest.approx(3.0)

    def test_zigzag(self):
        # up to w then back down to q: 2 + 1
        n = 3
        causal = np.eye(n, dtype=bool)
        causal[0, 2] = True  # p <= w
        causal[1, 2] = True  # q <= w
        chrono = causal.copy()
        np.fill_diagonal(chrono, False)
        rho = np.where(chrono, 1.0, 0.0)
        base = FiniteLengthSpace((0, 1, 2), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
        s = DiscretePreLengthSpace(base, causal, chrono, rho)
        tau = [0.0, 1.0, 2.0]
        path = PiecewiseCausalPath((0, 2, 1), (FUTURE, PAST))
        assert path_null_length(s, tau, path) == pytest.approx(3.0)
        # lower bound from the tau range along the path
        assert path_null_length(s, tau, path) >= max(tau) - min(tau)

    def test_invalid_tag_rejected(self):
        s = chain_space([1.0])
        with pytest.raises(InvalidInputError):
            path_null_length(s, [0, 1], PiecewiseCausalPath((1, 0), (FUTURE,)))


class TestNullDistanceMatrix:
    def test_causal_pair_realizes_gap(self):
        s = chain_space([1.0])
        mat = null_distance_matrix(s, [0.0, 1.0])
        assert mat[0, 1] == pytest.approx(1.0)
        assert mat[0, 0] == 0.0

    def test_diamond_free_detour(self):
        # p, q incomparable, both below w; tau = (0, 0, 1)
        causal = np.eye(3, dtype=bool)
        causal[0, 2] = causal[1, 2] = True
        chrono = causal.copy()
        np.fill_diagonal(chrono, False)
        rho = np.where(chrono, 0.5, 0.0)
        base = FiniteLengthSpace((0, 1, 2), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
        s = DiscretePreLengthSpace(base, causal, chrono, rho)
        mat = null_distance_matrix(s, [0.0, 0.0, 1.0])
        # exhaustive path enumeration gives 2 via p -> w -> q
        assert mat[0, 1] == pytest.approx(2.0)
        path = shortest_path(s, [0.0, 0.0, 1.0], mat, 0, 1)
        assert path == [0, 2, 1]

    def test_equal_tau_paths_terminate_and_realize(self):
        # 0 <= 1 <= 2 share tau = 0, so the edges among them weigh zero, as
        # does every diagonal entry; 3 lies above all three
        causal = np.triu(np.ones((4, 4), dtype=bool))
        chrono = np.zeros((4, 4), dtype=bool)
        chrono[:3, 3] = True
        base = FiniteLengthSpace(tuple(range(4)), 1.0 - np.eye(4))
        s = DiscretePreLengthSpace(base, causal, chrono, np.where(chrono, 1.0, 0.0))
        tau = np.array([0.0, 0.0, 0.0, 1.0])
        mat = null_distance_matrix(s, tau)
        for src in range(4):
            for dst in range(4):
                path = shortest_path(s, tau, mat, src, dst)
                assert path[0] == src and path[-1] == dst
                assert len(set(path)) == len(path)
                for u, v in zip(path, path[1:]):
                    assert causal[u, v] or causal[v, u]
                cost = sum(abs(tau[v] - tau[u]) for u, v in zip(path, path[1:]))
                assert abs(cost - mat[src, dst]) <= 1e-12 * len(path)

    def test_pseudometric_properties(self):
        for seed in range(10):
            space, tau = random_pre_length_space(7, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mat = null_distance_matrix(space, tau)
            fin = np.isfinite(mat)
            assert np.allclose(mat, mat.T, equal_nan=True)
            assert np.all(np.diag(mat) == 0)
            n = space.n
            for k in range(n):
                with np.errstate(invalid="ignore"):
                    assert np.all(
                        mat[fin] <= (mat[:, k][:, None] + mat[k, :][None, :])[fin] + 1e-12
                    )

    def test_disconnected_warns_inf(self):
        base = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = DiscretePreLengthSpace(base, np.eye(2, dtype=bool), np.zeros((2, 2), bool), np.zeros((2, 2)))
        with pytest.warns(UserWarning):
            mat = null_distance_matrix(s, [0.0, 1.0])
        assert math.isinf(mat[0, 1])

    def test_no_timelike_chord_improves(self):
        # removing any single timelike edge never shortens a minimizing path
        for seed in (3, 8):
            space, tau = random_pre_length_space(7, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mat = null_distance_matrix(space, tau)
            chords = np.argwhere(space.chrono)
            for (u, v) in chords[:10]:
                causal = space.causal.copy()
                chrono = space.chrono.copy()
                rho = space.rho.copy()
                causal[u, v] = False
                chrono[u, v] = False
                rho[u, v] = 0.0
                # dropping an edge from the graph cannot shorten shortest paths
                pruned = DiscretePreLengthSpace(space.base, causal, chrono, rho)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    mat2 = null_distance_matrix(pruned, tau)
                fin = np.isfinite(mat2)
                assert np.all(mat2[fin] >= mat[fin] - 1e-12)


class TestAntiLipschitz:
    def test_pass(self):
        s = chain_space([1.0])
        d_u = s.base.dist
        assert check_anti_lipschitz(s, [0.0, 2.0], [0, 1], d_u).passed

    def test_fail(self):
        s = chain_space([1.0])
        v = check_anti_lipschitz(s, [0.0, 0.5], [0, 1], s.base.dist)
        assert not v.passed and v.witness == (0, 1)

    def test_singleton_vacuous(self):
        s = chain_space([1.0])
        assert check_anti_lipschitz(s, [0.0, 0.5], [0], np.zeros((1, 1))).passed

    def test_bad_metric_rejected(self):
        s = chain_space([1.0])
        with pytest.raises(InvalidInputError):
            check_anti_lipschitz(s, [0.0, 1.0], [0, 1], np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestPropertiesReport:
    def test_random_instances_pass(self):
        for seed in range(20):
            space, tau = random_pre_length_space(6, seed)
            rep = properties_report(space, tau)
            assert rep.ok, f"seed {seed}: {rep.summary()}"

    def test_scaling_entry(self):
        space, tau = random_pre_length_space(6, 123)
        mat = null_distance_matrix(space, tau)
        mat2 = null_distance_matrix(space, 2.0 * np.asarray(tau) + 5.0)
        assert np.allclose(mat2, 2.0 * mat, atol=1e-12)

    def test_diamond_bound_entry(self):
        s = chain_space([0.5, 0.5])
        rep = properties_report(s, [0.0, 0.5, 1.0])
        assert rep.ok


class TestConvexNeighborhood:
    def test_chain_certified(self):
        s = chain_space([1.0, 1.0, 1.0])
        tau = np.array([0.0, 1.0, 2.0, 3.0])
        d_u = np.abs(np.subtract.outer(tau, tau))
        res = causally_convex_neighborhood(s, tau, 1, [0, 1, 2, 3], d_u, eps=0.4)
        assert res.certified
        assert 1 in res.members

    def test_precondition_failure(self):
        s = chain_space([1.0])
        with pytest.raises(InvalidInputError):
            causally_convex_neighborhood(
                s, [0.0, 0.2], 0, [0, 1], s.base.dist, eps=0.1
            )

    def test_antichain_trivially_convex(self):
        base = FiniteLengthSpace((0, 1, 2), (np.ones((3, 3)) - np.eye(3)))
        s = DiscretePreLengthSpace(
            base, np.eye(3, dtype=bool), np.zeros((3, 3), bool), np.zeros((3, 3))
        )
        tau = np.zeros(3)
        res = causally_convex_neighborhood(s, tau, 0, [0, 1, 2], base.dist, eps=0.3)
        assert res.certified


class TestRhoAndT:
    def test_chain_equality(self):
        s = chain_space([1.0, 1.0])
        assert chain_rho_length(s, [0, 1, 2]) == pytest.approx(2.0)
        t_mat, mismatch = rho_length_and_time_separation(s)
        assert t_mat[0, 2] == pytest.approx(2.0)
        assert not mismatch.any()

    def test_direct_edge_beats_chain(self):
        s = chain_space([1.0, 1.0])
        rho = s.rho.copy()
        rho[0, 2] = 3.0
        s2 = DiscretePreLengthSpace(s.base, s.causal, s.chrono, rho)
        t_mat, mismatch = rho_length_and_time_separation(s2)
        assert t_mat[0, 2] == pytest.approx(3.0)
        assert not mismatch.any()

    def test_unreachable_zero(self):
        base = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = DiscretePreLengthSpace(base, np.eye(2, dtype=bool), np.zeros((2, 2), bool), np.zeros((2, 2)))
        t_mat, _ = rho_length_and_time_separation(s)
        assert t_mat[0, 1] == 0.0

    def test_cycle_rejected(self):
        causal = np.ones((2, 2), dtype=bool)
        base = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = DiscretePreLengthSpace(base, causal, np.zeros((2, 2), bool), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            rho_length_and_time_separation(s)

    def test_random_t_equals_rho(self):
        # valid instances have T = rho on causal pairs by the reverse triangle
        # inequality (the direct pair dominates every chain)
        for seed in range(10):
            space, _ = random_pre_length_space(6, seed)
            t_mat, mismatch = rho_length_and_time_separation(space)
            assert not mismatch.any()
            strict = space.causal & ~np.eye(space.n, dtype=bool)
            assert np.allclose(t_mat[strict], space.rho[strict])


from hypothesis import given, settings
from hypothesis import strategies as st


class TestNullLengthProperties:
    @given(st.integers(0, 10_000), st.integers(3, 7))
    @settings(max_examples=30, deadline=None)
    def test_lemma_basics_on_random_instances(self, seed, n):
        space, tau = random_pre_length_space(n, seed)
        tau = np.asarray(tau)
        strict = space.causal & ~np.eye(n, dtype=bool)
        edges = np.argwhere(strict)
        if edges.size == 0:
            return
        rng = np.random.default_rng(seed)
        # build a random valid piecewise causal path from edges
        verts = [int(edges[rng.integers(len(edges))][0])]
        tags = []
        for _ in range(4):
            u = verts[-1]
            fut = np.nonzero(strict[u])[0]
            past = np.nonzero(strict[:, u])[0]
            choices = [(int(v), FUTURE) for v in fut] + [(int(v), PAST) for v in past]
            choices.append((u, TRIVIAL))
            v, tag = choices[int(rng.integers(len(choices)))]
            verts.append(v)
            tags.append(tag)
        path = PiecewiseCausalPath(tuple(verts), tuple(tags))
        length = path_null_length(space, tau, path)
        on_path = tau[list(verts)]
        # never below the tau range of the path, nor the endpoint gap
        assert length >= float(on_path.max() - on_path.min()) - 1e-12
        assert length >= abs(tau[verts[-1]] - tau[verts[0]]) - 1e-12
        if all(t == TRIVIAL for t in tags):
            assert length == 0.0
        if all(t in (FUTURE, TRIVIAL) for t in tags):
            assert length == pytest.approx(tau[verts[-1]] - tau[verts[0]], abs=1e-12)


class TestConvexNeighborhoodOnStrip:
    def test_minkowski_strip_certified(self):
        # 21 x 21 product-cone grid exported as a discrete pre-length space,
        # with the computed null distance as the anti-Lipschitz witness metric
        import nulldist as nd

        iv = nd.Interval(0.0, 1.0)
        fiber = nd.path_space(21, 1.0)
        g = nd.ConeGrid(iv, fiber, nd.WarpingFunction.constant(1.0, iv), 20)
        n = g.n_points
        lv = np.repeat(np.arange(g.n_levels), g.m)
        fb = np.tile(np.arange(g.m), g.n_levels)
        gap = g.g_levels[lv][None, :] - g.g_levels[lv][:, None]
        dd = g.fiber.dist[np.ix_(fb, fb)]
        causal = (dd <= gap + g.causal_slack) & (lv[None, :] >= lv[:, None])
        np.fill_diagonal(causal, True)
        chrono = (dd < gap - g.causal_slack) & (lv[None, :] > lv[:, None])
        rho = np.where(chrono, np.sqrt(np.maximum((gap) ** 2 - dd**2, 0.0)), 0.0)
        base = FiniteLengthSpace(tuple(range(n)), np.maximum(np.abs(
            g.t_levels[lv][:, None] - g.t_levels[lv][None, :]), dd))
        space = DiscretePreLengthSpace(base, causal, chrono, rho)
        tau = g.t_levels[lv]

        dhat = nd.null_distance(g).full_matrix()
        p = g.node(10, 10)
        res = causally_convex_neighborhood(
            space, tau, p, list(range(n)), dhat, eps=0.1
        )
        assert res.certified
        assert p in res.members
        assert len(res.members) > 1
