import heapq
import math
import tracemalloc
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
from nulldist.lpls import FUTURE, PAST, TRIVIAL, _compose
from nulldist.metric_core import read_back_path


def related_weights(space, tau):
    """|tau(u) - tau(v)| on causally related pairs, 0 on the diagonal and
    +inf elsewhere."""
    tau = np.asarray(tau, dtype=float)
    related = space.causal | space.causal.T
    w = np.where(related, np.abs(tau[None, :] - tau[:, None]), np.inf)
    np.fill_diagonal(w, 0.0)
    return w


def dense_null_distance(space, tau):
    """The null-distance matrix by Floyd-Warshall over every related pair."""
    dist = related_weights(space, tau)
    for k in range(space.n):
        np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :], out=dist)
    return dist


def assert_matches_dense(space, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mat = null_distance_matrix(space, tau)
    ref = dense_null_distance(space, tau)
    assert np.array_equal(np.isinf(mat), np.isinf(ref))
    fin = np.isfinite(ref)
    assert np.all(np.abs(mat[fin] - ref[fin]) <= 1e-12 * np.maximum(1.0, np.abs(ref[fin])))
    assert np.array_equal(mat, mat.T)
    return mat


def relation_space(causal):
    """A space on the given relation (made reflexive), with no chronology."""
    n = causal.shape[0]
    causal = causal | np.eye(n, dtype=bool)
    base = FiniteLengthSpace(tuple(range(n)), np.ones((n, n)) - np.eye(n))
    return DiscretePreLengthSpace(base, causal, np.zeros((n, n), bool), np.zeros((n, n)))


def shortest_path(space, tau, mat, src, dst):
    """A minimizing causal path src -> dst, read back from one row of the
    null-distance matrix `mat`."""
    return read_back_path(mat[src], related_weights(space, tau).__getitem__, src, dst)


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


def reference_reverse_triangle(space):
    """The reverse-triangle entries of validate_pls, as strings, from its
    former loop: each point's past and future by their own np.nonzero, and
    np.argwhere on every block."""
    causal, rho, out = space.causal, space.rho, []
    for y in range(space.n):
        xs = np.nonzero(causal[:, y])[0]
        zs = np.nonzero(causal[y, :])[0]
        if xs.size == 0 or zs.size == 0:
            continue
        lhs = rho[np.ix_(xs, zs)]
        rhs = rho[xs, y][:, None] + rho[y, zs][None, :]
        with np.errstate(invalid="ignore"):
            bad = np.argwhere(lhs < rhs - 1e-12)
        for a, c in bad:
            x, z = int(xs[a]), int(zs[c])
            if x == y or z == y:
                continue
            out.append(f"reverse-triangle at {(x, y, z)}: rho[{x},{z}]={lhs[a, c]!r} < {rhs[a, c]!r}")
    return out


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

    def test_reverse_triangle_matches_the_per_point_loop(self):
        # random valid spaces with rho lowered on some causal pairs, raised to
        # +inf on others, and a relation that is not transitive: the
        # reverse-triangle entries close the report, as the per-point loop
        # wrote them, kind, order and message
        rng = np.random.default_rng(31)
        spaces = []
        for n, seed in ((6, 1), (25, 2), (40, 3), (60, 4)):
            space, _ = random_pre_length_space(n, seed)
            rho = space.rho.copy()
            causal = space.causal.copy()
            i, j = np.nonzero(causal & ~np.eye(n, dtype=bool))
            lower = rng.random(i.size) < 0.15
            rho[i[lower], j[lower]] *= rng.uniform(0.0, 0.9, lower.sum())
            rho[i[lower][:2], j[lower][:2]] = np.inf
            causal[rng.integers(0, n, 3), rng.integers(0, n, 3)] = True
            spaces.append(DiscretePreLengthSpace(space.base, causal, rho > 0, rho))
        spaces.append(chain_space([1.0, 1.0]))
        found = 0
        for space in spaces:
            got = [str(v) for v in validate_pls(space).violations]
            want = reference_reverse_triangle(space)
            found += len(want)
            assert got[len(got) - len(want) :] == want
            assert not any(g.startswith("reverse-triangle") for g in got[: len(got) - len(want)])
        assert found > 100


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

    def test_nan_fails_with_witness(self):
        # NaN compares false both ways, so it is strictly below nothing
        s = chain_space([1.0, 1.0])
        v = check_time_function(s, [0.0, math.nan, 1.0])
        assert not v.passed and v.witness == (0, 1)
        assert not check_time_function(s, [math.nan, 1.0, 2.0]).passed


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


    def test_empty_and_single_point_spaces(self):
        for n in (0, 1):
            assert np.array_equal(null_distance_matrix(relation_space(np.zeros((n, n), bool)), [0.0] * n),
                                  np.zeros((n, n)))

    @pytest.mark.parametrize("tau", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0], [[0.0, 1.0, 2.0]]])
    def test_tau_of_wrong_shape_refused(self, tau):
        with pytest.raises(InvalidInputError, match="tau has shape"):
            null_distance_matrix(chain_space([1.0, 1.0]), tau)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_refused(self, bad):
        with pytest.raises(InvalidInputError, match="tau must be finite"):
            null_distance_matrix(chain_space([1.0, 1.0]), [0.0, bad, 2.0])


class TestNullDistanceParity:
    """The link sweep against Floyd-Warshall over every related pair."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_spaces_under_several_taus(self, seed):
        rng = np.random.default_rng(seed)
        space, tau = random_pre_length_space(int(rng.integers(2, 25)), seed)
        for t in (tau, rng.permutation(tau), np.round(tau), np.full(space.n, 0.5)):
            assert_matches_dense(space, t)

    @pytest.mark.parametrize("seed", range(12))
    def test_non_transitive_and_cyclic_relations(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 30))
        causal = rng.random((n, n)) < rng.uniform(0.03, 0.4)
        if seed % 2:  # close some cycles
            causal |= causal.T & (rng.random((n, n)) < 0.5)
        tau = rng.normal(size=n) if seed % 3 else np.round(2 * rng.normal(size=n))
        assert_matches_dense(relation_space(causal), tau)

    def test_disconnected_space(self):
        causal = np.zeros((6, 6), dtype=bool)
        causal[0, 1] = causal[1, 2] = causal[3, 4] = causal[5, 4] = True
        with pytest.warns(UserWarning, match="disconnected"):
            null_distance_matrix(relation_space(causal), np.arange(6.0))
        mat = assert_matches_dense(relation_space(causal), np.arange(6.0))
        assert np.isinf(mat[0, 3]) and mat[3, 5] == 2.0

    @pytest.mark.parametrize("n", [100, 250, 400])
    def test_minkowski_sprinkles(self, n):
        # uniform in the causal diamond of (0, 0) and (1, 0), with tau = t
        rng = np.random.default_rng(n)
        u, v = rng.random(n), rng.random(n)
        t, x = 0.5 * (u + v), 0.5 * (u - v)
        causal = t[None, :] - t[:, None] >= np.abs(x[None, :] - x[:, None])
        mat = assert_matches_dense(relation_space(causal), t)
        assert np.all(np.isfinite(mat))

    def test_wide_layers_gather_in_blocks(self):
        # every one of 120 minimal points lies below every one of 120
        # maximal points: one layer gathers 120 rows of 240 values for each
        # of its points, 27.6 MB in one gather, and the blocks keep it small
        causal = np.zeros((240, 240), dtype=bool)
        causal[:120, 120:] = True
        space, tau = relation_space(causal), np.repeat([0.0, 1.0], 120)
        tracemalloc.start()
        try:
            mat = null_distance_matrix(space, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert np.array_equal(mat, dense_null_distance(space, tau))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 20])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_fence_needs_one_pass_per_turn(self, k, shuffle):
        # a_i <= b_i >= a_(i+1): 2k points with tau alternating 0, 1, whose
        # ends are joined only along the fence, down and up at every point
        causal = np.zeros((2 * k, 2 * k), dtype=bool)
        for i in range(k):
            causal[2 * i, 2 * i + 1] = True
            if i + 1 < k:
                causal[2 * i + 2, 2 * i + 1] = True
        tau = np.arange(2 * k) % 2.0
        if shuffle:
            perm = np.random.default_rng(k).permutation(2 * k)
            causal, tau = causal[np.ix_(perm, perm)], tau[perm]
            ends = np.argsort(perm)[[0, 2 * k - 1]]
        else:
            ends = [0, 2 * k - 1]
        mat = assert_matches_dense(relation_space(causal), tau)
        assert mat[ends[0], ends[1]] == 2 * k - 1


class TestCompose:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 7, 3), (40, 40, 40), (300, 200, 100)])
    def test_equals_boolean_product(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, k, m = shape
        for density in (0.0, 0.02, 0.3, 1.0):
            a = rng.random((n, k)) < density
            b = rng.random((k, m)) < density
            got = _compose(a, b)
            assert got.dtype == bool and np.array_equal(got, a @ b)

    def test_validate_reports_the_boolean_products(self):
        # the transitivity entries of validate_pls are those of numpy's
        # boolean product on every space these tests build
        rng = np.random.default_rng(7)
        spaces = [chain_space([1.0, 2.0]), chain_space([0.5] * 6)]
        spaces += [random_pre_length_space(n, seed)[0] for n, seed in ((6, 0), (12, 3), (20, 9))]
        spaces += [random_relation_space(rng, bool(i % 2))[0] for i in range(10)]
        spaces += [random_dag_space(rng) for _ in range(10)]
        for space in spaces:
            rep = validate_pls(space)
            for kind, rel in (("causal-not-transitive", space.causal), ("chrono-not-transitive", space.chrono)):
                want = [tuple(map(int, ij)) for ij in np.argwhere((rel @ rel) & ~rel)]
                assert [v.where for v in rep.violations if v.kind == kind] == want


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

    def test_nan_fails_with_witness(self):
        s = chain_space([1.0])
        v = check_anti_lipschitz(s, [0.0, math.nan], [0, 1], np.zeros((2, 2)))
        assert not v.passed and v.witness == (0, 1)
        # the diagonal is no causal pair: a NaN alone in the subset passes
        assert check_anti_lipschitz(s, [0.0, math.nan], [1], np.zeros((1, 1))).passed

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

    def test_nan_tau_is_a_time_function_failure(self):
        # tau+phi is NaN at 1 on the chain 0 <= 1 <= 2, whose ends are
        # squeezed members: a certificate here would be wrong
        s = chain_space([1.0, 1.0])
        d_u = np.array([[0.0, 0.2], [0.2, 0.0]])
        res = causally_convex_neighborhood(s, [0.0, math.nan, 0.2], 0, [0, 2], d_u, eps=0.5)
        assert not res.certified
        assert res.time_function_failure == ("tau+phi", (0, 1))
        assert res.members == ()

    @pytest.mark.parametrize("with_nan", [False, True], ids=["finite-tau", "nan-tau"])
    def test_certified_sets_are_causally_convex(self, with_nan):
        rng = np.random.default_rng(29 + with_nan)
        certified = nonempty = 0
        for _ in range(400):
            space, tau = random_relation_space(rng, with_nan)
            n = space.n
            k = int(rng.integers(1, n + 1))
            subset = [int(v) for v in rng.permutation(n)[:k]]
            p = subset[int(rng.integers(k))]
            gaps = np.abs(np.subtract.outer(tau[subset], tau[subset]))
            d_u = np.nan_to_num(gaps, nan=0.0) * rng.uniform(0.0, 1.0)
            try:
                res = causally_convex_neighborhood(
                    space, tau, p, subset, d_u, eps=10.0 ** rng.uniform(-2, 1)
                )
            except InvalidInputError:  # (U, d_U) is no anti-Lipschitz witness
                continue
            if res.certified:
                certified += 1
                nonempty += len(res.members) > 1
                assert convexity_counterexample(space, res.members) is None
        assert certified >= 40 and nonempty >= 5


def random_relation_space(rng, with_nan):
    """A random relation on 2-11 points (a closed DAG, an open one, or any
    reflexive relation) and a tau that often increases along it; with_nan
    puts NaN at up to two points and cuts some of them off the relation."""
    n = int(rng.integers(2, 12))
    kind = int(rng.integers(3))
    depth = np.zeros(n)
    if kind == 2:
        causal = rng.random((n, n)) < rng.uniform(0.05, 0.5)
    else:
        perm = rng.permutation(n)
        causal = np.zeros((n, n), dtype=bool)
        causal[np.ix_(perm, perm)] = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.6), 1)
        if kind == 0:
            for k in range(n):
                causal |= causal[:, [k]] & causal[[k], :]
        depth[perm] = np.arange(n)
    tau = depth * rng.uniform(0.5, 2.0) + rng.uniform(-0.3, 0.3, n)
    if with_nan:
        for v in rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False):
            tau[v] = math.nan
            if rng.random() < 0.5:
                causal[v, :] = causal[:, v] = False
    np.fill_diagonal(causal, True)
    base = FiniteLengthSpace(tuple(range(n)), np.ones((n, n)) - np.eye(n))
    return DiscretePreLengthSpace(base, causal, np.zeros((n, n), bool), np.zeros((n, n))), tau


def convexity_counterexample(space, members):
    """A chain x <= y <= z with members x, z and a non-member y, or None:
    the exhaustive check that causally_convex_neighborhood's proof replaces."""
    member_set = set(members)
    causal = space.causal
    for x in members:
        for z in members:
            if not causal[x, z]:
                continue
            for y in np.nonzero(causal[x, :] & causal[:, z])[0]:
                if int(y) not in member_set:
                    return (x, int(y), z)
    return None


def reference_longest_chains(space):
    """(T, mismatch) of rho_length_and_time_separation by scalar loops over
    a heap topological order of the strict relation. Every reached value
    propagates, +inf included; only unreached entries (-inf) become 0."""
    n = space.n
    causal = space.causal & ~np.eye(n, dtype=bool)
    indeg = causal.sum(axis=0).tolist()
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in range(n):
            if causal[v, u]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    heapq.heappush(ready, u)
    t_mat = np.full((n, n), -np.inf)
    np.fill_diagonal(t_mat, 0.0)
    for v in order:
        for s in range(n):
            if t_mat[s, v] > -math.inf:
                for u in range(n):
                    if causal[v, u]:
                        t_mat[s, u] = max(t_mat[s, u], t_mat[s, v] + space.rho[v, u])
    t_mat[t_mat == -math.inf] = 0.0
    np.fill_diagonal(t_mat, 0.0)
    with np.errstate(invalid="ignore"):
        mismatch = causal & (np.abs(t_mat - space.rho) > 1e-12)
        mismatch |= causal & np.isinf(space.rho) & (t_mat != space.rho)
    return t_mat, mismatch


def random_dag_space(rng):
    """A random DAG on 2-39 points in a shuffled order, not transitively
    closed, with rho holding zeros and +inf entries on its edges."""
    n = int(rng.integers(2, 40))
    perm = rng.permutation(n)
    causal = np.zeros((n, n), dtype=bool)
    causal[np.ix_(perm, perm)] = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.7), 1)
    np.fill_diagonal(causal, True)
    rho = rng.uniform(0.0, 2.0, (n, n))
    rho[rng.random((n, n)) < 0.25] = 0.0
    rho[rng.random((n, n)) < 0.08] = np.inf
    rho[~causal] = 0.0
    base = FiniteLengthSpace(tuple(range(n)), np.ones((n, n)) - np.eye(n))
    return DiscretePreLengthSpace(base, causal, rho > 0, rho)


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

    def test_infinite_chain_is_infinite(self):
        # 0 <= 1 <= 2 with rho[0, 1] = inf: the chain through 1 is infinitely
        # long, so T[0, 2] = inf disagrees with rho[0, 2] = 1, the pair where
        # the reverse triangle inequality fails
        s = chain_space([1.0, 1.0])
        rho = s.rho.copy()
        rho[0, 1], rho[0, 2] = math.inf, 1.0
        s2 = DiscretePreLengthSpace(s.base, s.causal, s.chrono, rho)
        t_mat, mismatch = rho_length_and_time_separation(s2)
        assert t_mat[0, 1] == t_mat[0, 2] == chain_rho_length(s2, [0, 1, 2]) == math.inf
        assert t_mat[1, 2] == 1.0 and np.all(np.diag(t_mat) == 0.0)
        assert np.argwhere(mismatch).tolist() == [[0, 2]]
        assert [v.where for v in validate_pls(s2).violations] == [(0, 1, 2)]

    def test_cycle_rejected(self):
        causal = np.ones((2, 2), dtype=bool)
        base = FiniteLengthSpace((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = DiscretePreLengthSpace(base, causal, np.zeros((2, 2), bool), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            rho_length_and_time_separation(s)

    def test_three_cycle_rejected(self):
        # no 2-cycle, so the topological order is what finds it
        causal = np.eye(3, dtype=bool)
        causal[0, 1] = causal[1, 2] = causal[2, 0] = True
        base = FiniteLengthSpace((0, 1, 2), np.ones((3, 3)) - np.eye(3))
        s = DiscretePreLengthSpace(base, causal, np.zeros((3, 3), bool), np.zeros((3, 3)))
        with pytest.raises(InvalidInputError, match="causal relation contains a cycle"):
            rho_length_and_time_separation(s)

    def test_equals_the_reference_loop_on_random_dags(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            space = random_dag_space(rng)
            got = rho_length_and_time_separation(space)
            want = reference_longest_chains(space)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

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
