import numpy as np
import pytest

from nulldist import (
    ConeGrid,
    Correspondence,
    Interval,
    WarpingFunction,
    WarpingSequence,
    epsilon_isometry,
    lift_correspondence,
    null_convergence_check,
    path_space,
    sup_norm,
    uniform_total_boundedness,
)
from conftest import dense_lift_distortion, lifted_product_space
from nulldist.errors import InvalidInputError
from nulldist.metric_core import (
    FiniteLengthSpace,
    all_correspondences,
    gh_distance_exact,
)

IV = Interval(0.0, 1.0)


def two_point(d):
    return FiniteLengthSpace((0, 1), np.array([[0.0, d], [d, 0.0]]))


def euclidean(pts):
    return FiniteLengthSpace(
        tuple(range(len(pts))), np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    )


SUP_DOMAIN = Interval(-1.0, 1.0)
SUP_KINDS = {
    "constant": WarpingFunction.constant(1.7, SUP_DOMAIN),
    "affine": WarpingFunction.affine(2.0, 0.75, SUP_DOMAIN),
    "exponential": WarpingFunction.exponential(1.2, 1.5, SUP_DOMAIN),
    "cosh": WarpingFunction.cosh_type(0.6, 2.0, SUP_DOMAIN),
    "tabulated": WarpingFunction.tabulated(
        [-1.0, -0.31374, 0.10437, 0.45219, 1.0], [1.4, 3.1, 0.8, 2.2, 1.9], SUP_DOMAIN
    ),
}


class TestSupNorm:
    def test_equal(self):
        w = WarpingFunction.constant(1.0, IV)
        assert sup_norm(w, w) == 0.0

    def test_constants(self):
        a = WarpingFunction.constant(1.0, IV)
        b = WarpingFunction.constant(1.25, IV)
        assert sup_norm(a, b) == pytest.approx(0.25)

    def test_quadratic_bump(self):
        ts = np.linspace(0, 1, 2001)
        f = WarpingFunction.affine(1.0, 1.0, IV)
        g = WarpingFunction.tabulated(ts, 1.0 + ts + ts * (1 - ts) / 10.0)
        assert sup_norm(f, g) == pytest.approx(0.025, abs=1e-6)

    def test_spike_between_grid_points(self):
        # the spike lives inside one 1/2000 cell of the sampling grid
        spike = WarpingFunction.tabulated([0.0, 0.0002, 0.0004, 1.0], [1.0, 2.0, 1.0, 1.0])
        assert sup_norm(spike, WarpingFunction.constant(1.0, IV)) == 1.0

    def test_tabulated_against_affine_is_exact(self):
        rng = np.random.default_rng(3)
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 9)), [1.0]])
        vs = rng.uniform(1.0, 3.0, ts.size)
        tab = WarpingFunction.tabulated(ts, vs)
        aff = WarpingFunction.affine(1.5, 0.5, IV)
        # tab - aff is linear between knots, so its sup sits at a knot
        expected = max(abs(v - (1.5 + 0.5 * t)) for t, v in zip(ts.tolist(), vs.tolist()))
        assert sup_norm(tab, aff) == expected
        assert sup_norm(aff, tab) == expected

    @pytest.mark.parametrize("swap", [False, True], ids=["f_first", "const_first"])
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.3, 2.0, 3.7])
    @pytest.mark.parametrize("kind", list(SUP_KINDS))
    def test_constant_side_is_exact(self, kind, c, swap):
        f = SUP_KINDS[kind]
        const = WarpingFunction.constant(c, SUP_DOMAIN)
        f_min, f_max = f.extrema()
        expected = max(abs(f_max - c), abs(f_min - c))
        assert (sup_norm(const, f) if swap else sup_norm(f, const)) == expected

    def test_domain_mismatch(self):
        a = WarpingFunction.constant(1.0, IV)
        b = WarpingFunction.constant(1.0, Interval(0.0, 2.0))
        with pytest.raises(InvalidInputError):
            sup_norm(a, b)


class TestSandwich:
    def test_constant_sequence_zero_deviation(self):
        seq = WarpingSequence(
            (WarpingFunction.constant(1.0, IV),) * 2,
            WarpingFunction.constant(1.0, IV),
            0.5,
        )
        rep = null_convergence_check(seq, path_space(11, 1.0), 10)
        for m in rep.members:
            assert m.sup_deviation == 0.0
        assert rep.all_sandwich_ok and rep.monotone_ok

    def test_one_over_j_family(self):
        # the parity jump of flipped boundary pairs is 2/n_t; the estimate
        # absorbs it once eps stays above that quantum
        seq = WarpingSequence(
            tuple(WarpingFunction.constant(1.0 + 1.0 / j, IV) for j in (10, 25)),
            WarpingFunction.constant(1.0, IV),
            0.9,
        )
        rep = null_convergence_check(seq, path_space(101, 1.0), 100)
        assert rep.all_sandwich_ok
        devs = [m.sup_deviation for m in rep.members]
        assert devs[1] < devs[0]

    def test_exclusion_diagnostic(self):
        seq = WarpingSequence(
            (WarpingFunction.constant(1.5, IV),),
            WarpingFunction.constant(1.0, IV),
            0.9,
        )
        rep = null_convergence_check(seq, path_space(11, 1.0), 10)
        assert rep.members[0].excluded
        assert "f_min/4" in rep.members[0].diagnostic


class TestLift:
    def test_identity_lift_zero(self):
        fib = path_space(3, 1.0)
        t_grid = np.linspace(0, 1, 4)
        res = lift_correspondence(Correspondence(((0, 0), (1, 1), (2, 2))), fib, fib, t_grid)
        assert res.distortion == 0.0
        assert dense_lift_distortion(res.lifted, fib, fib, t_grid) == 0.0

    def test_two_point_matching(self):
        a, b = two_point(1.0), two_point(1.2)
        t_grid = np.linspace(0, 1, 5)
        res = lift_correspondence(Correspondence(((0, 0), (1, 1))), a, b, t_grid)
        assert res.distortion == pytest.approx(0.2)
        assert res.distortion == dense_lift_distortion(res.lifted, a, b, t_grid)

    def test_exhaustive_never_increases(self):
        # the product formula keeps the distortion exactly, bit for bit
        a, b = two_point(1.0), two_point(1.3)
        t_grid = np.linspace(0, 1, 3)
        for corr in all_correspondences(2, 2):
            res = lift_correspondence(corr, a, b, t_grid)
            assert res.distortion == dense_lift_distortion(res.lifted, a, b, t_grid)

    def test_random_lifts_match_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            na, nb = rng.integers(1, 4, size=2)
            a, b = (euclidean(rng.uniform(0, 1, (n, 2))) for n in (na, nb))
            t_grid = np.sort(rng.uniform(0, 1.5, rng.integers(1, 6)))
            for corr in all_correspondences(na, nb):
                res = lift_correspondence(corr, a, b, t_grid)
                assert res.distortion == dense_lift_distortion(res.lifted, a, b, t_grid)

    def test_large_lift_needs_no_dense_matrix(self):
        # 4 levels x 400 points: 1600 pairs, and no 1600 x 1600 distance matrix
        fib = path_space(400, 1.0)
        ident = Correspondence(tuple((j, j) for j in range(400)))
        res = lift_correspondence(ident, fib, fib, np.linspace(0, 1, 4))
        assert len(res.lifted.pairs) == 1600
        assert res.lifted.is_valid_for(1600, 1600)
        assert res.distortion == 0.0

    def test_product_formula_is_closed_form(self):
        fib = two_point(0.7)
        t_grid = np.linspace(0, 1, 5)
        dist = lifted_product_space(fib, t_grid).dist  # node (i, j) is i * 2 + j
        assert dist[0, 4 * 2 + 1] == pytest.approx(1.0)
        assert dist[0, 1 * 2 + 1] == pytest.approx(0.7)

    def test_lifted_space_matches_engine(self):
        # closed-form product space equals the shortest-path engine values
        fib = path_space(5, 1.0)
        n_t = 4
        space = lifted_product_space(fib, np.linspace(0, 1, n_t + 1))
        g = ConeGrid(IV, fib, WarpingFunction.constant(1.0, IV), n_t)
        from nulldist import null_distance

        engine = null_distance(g).full_matrix()
        # engine values exceed the closed form only by the parity quantum
        diff = engine - space.dist
        assert diff.min() >= -1e-12
        assert diff.max() <= 1.0 / n_t + 1e-12

    def test_gh_of_lifted_spaces(self):
        a, b = two_point(1.0), two_point(1.2)
        t_grid = np.linspace(0, 1, 2)
        la, lb = lifted_product_space(a, t_grid), lifted_product_space(b, t_grid)
        gh_fiber = gh_distance_exact(a, b).distance
        gh_lift = gh_distance_exact(la, lb).distance
        assert gh_lift <= gh_fiber + 1e-9


class TestEpsilonIsometry:
    def test_identity_case(self):
        g = ConeGrid(IV, path_space(11, 1.0), WarpingFunction.constant(1.0, IV), 10)
        res = epsilon_isometry(g, g, r=0.4, p0=(5, 5), eps=0.05)
        assert res.passed
        assert res.max_distortion == 0.0
        assert res.gh_bound == pytest.approx(0.3)

    def test_close_warpings(self):
        g1 = ConeGrid(IV, path_space(21, 1.0), WarpingFunction.constant(1.0, IV), 20)
        g2 = ConeGrid(IV, path_space(21, 1.0), WarpingFunction.constant(1.05, IV), 20)
        mat1 = None
        eps = 0.2
        res = epsilon_isometry(g1, g2, r=0.5, p0=(10, 10), eps=eps)
        assert res.passed, res.failure
        assert res.max_distortion <= 3 * eps + 1e-12
        assert res.net_defect <= eps + 1e-12
        assert res.gh_bound == pytest.approx(6 * eps)

    def test_eps_zero_with_different_warpings_fails(self):
        g1 = ConeGrid(IV, path_space(11, 1.0), WarpingFunction.constant(1.0, IV), 10)
        g2 = ConeGrid(IV, path_space(11, 1.0), WarpingFunction.constant(1.2, IV), 10)
        res = epsilon_isometry(g1, g2, r=0.5, p0=(5, 5), eps=1e-9)
        assert not res.passed
        assert "inclusion" in res.failure or "deviation" in res.failure


class TestTotalBoundedness:
    def test_family_one_two_three(self):
        family = [WarpingFunction.constant(c, IV) for c in (1.0, 2.0, 3.0)]
        cert = uniform_total_boundedness(
            family, path_space(41, 1.0), (0.0, 1.0), eps=0.25, bound=3.0, n_t=40
        )
        assert cert.mesh == pytest.approx(0.75)
        assert cert.certified
        assert len(cert.member_worst) == 3

    def test_singleton_large_eps(self):
        family = [WarpingFunction.constant(1.0, IV)]
        cert = uniform_total_boundedness(
            family, path_space(11, 1.0), (0.0, 1.0), eps=3.0, bound=1.0, n_t=10
        )
        assert cert.net_size == 1
        assert cert.certified

    def test_violating_member_excluded(self):
        family = [WarpingFunction.constant(1.0, IV), WarpingFunction.constant(4.0, IV)]
        cert = uniform_total_boundedness(
            family, path_space(11, 1.0), (0.0, 1.0), eps=0.3, bound=3.0, n_t=10
        )
        assert cert.excluded and cert.excluded[0][0] == 1
        assert len(cert.member_worst) == 1
        assert cert.certified
