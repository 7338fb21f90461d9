"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import nulldist as nd
from conftest import random_pre_length_space
from nulldist import (
    ConeGrid,
    Interval,
    WarpingFunction,
    WarpingSequence,
)
from nulldist.cone import stratified_sources
from nulldist.convergence import lifted_product_space
from nulldist.curvature import _triangle_from_vertices, dp_refinement_error
from nulldist.lpls import DiscretePreLengthSpace
from nulldist.metric_core import all_correspondences

IV = Interval(0.0, 1.0)
PAIR_BUDGET = 1_000_000


def report(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number}: {description}"


def _closed_form_errors(grid, sources_result, factor=1.0):
    """Worst |dhat - max(factor*d, |dt|)| split into causal / non-causal."""
    lv = np.repeat(np.arange(grid.n_levels), grid.m)
    fb = np.tile(np.arange(grid.m), grid.n_levels)
    worst_c, worst_nc = 0.0, 0.0
    for s, (i0, j0) in enumerate(sources_result.sources):
        row = sources_result.rows[s]
        dt = np.abs(grid.t_levels[lv] - grid.t_levels[i0])
        dd = grid.fiber.dist[j0, fb]
        oracle = np.maximum(factor * dd, dt)
        causal = dd <= np.abs(grid.g_levels[lv] - grid.g_levels[i0]) + grid.causal_slack
        err = np.abs(row - oracle)
        worst_c = max(worst_c, float(err[causal].max()))
        worst_nc = max(worst_nc, float(err[~causal].max()))
    return worst_c, worst_nc


@pytest.fixture(scope="module")
def product_runs():
    """Unit-warping product cones at n_t = 200 and n_t = 400 with the
    stratified pair-sampling policy (full pair coverage exceeds 10^6)."""
    out = {}
    t0 = time.monotonic()
    for n_t in (200, 400):
        fiber = nd.path_space(n_t + 1, 1.0)
        grid = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), n_t)
        srcs = stratified_sources(grid, PAIR_BUDGET, seed=0)
        out[n_t] = (grid, nd.null_distance(grid, sources=srcs))
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_01_product_closed_form(product_runs):
    grid, res = product_runs[200]
    worst_c, worst_nc = _closed_form_errors(grid, res)
    grid4, res4 = product_runs[400]
    _, worst_nc4 = _closed_form_errors(grid4, res4)
    ratio = worst_nc / worst_nc4
    ok = (
        worst_c <= 1e-9
        and worst_nc <= 2.0 / 200
        and 2.0 / 1.5 <= ratio <= 2.0 * 1.5
        and product_runs["elapsed"] <= 60.0
    )
    report(
        1,
        f"product closed form: causal err {worst_c:.2e}, non-causal {worst_nc:.4f} "
        f"(<= {2.0 / 200}), halving ratio {ratio:.2f}, runtime {product_runs['elapsed']:.1f}s",
        ok,
    )


def test_criterion_02_constant_warping_oracle():
    results = {}
    for n_t, rel in ((200, 0.02), (400, 0.01)):
        fiber = nd.path_space(n_t + 1, 1.0)
        grid = ConeGrid(IV, fiber, WarpingFunction.constant(2.0, IV), n_t)
        srcs = stratified_sources(grid, PAIR_BUDGET, seed=0)
        if (0, 0) not in srcs:
            srcs.append((0, 0))
        res = nd.null_distance(grid, sources=srcs)
        worst_c, worst_nc = _closed_form_errors(grid, res, factor=2.0)
        # sup-scale: the oracle max(2d, |dt|) has supremum 2 on this cone
        sup_oracle = 2.0
        pinned = res.value((0, 0), (0, grid.m - 1))
        results[n_t] = (
            max(worst_c, worst_nc) <= rel * sup_oracle
            and abs(pinned - 2.0) <= rel * 2.0
        )
    report(2, "constant warping reproduces max(2d, |dt|) at 2% / 1%", all(results.values()))


def test_criterion_03_uniform_convergence_sandwich():
    seq = WarpingSequence(
        tuple(WarpingFunction.constant(1.0 + 1.0 / j, IV) for j in (4, 10, 100)),
        WarpingFunction.constant(1.0, IV),
        0.9,
    )
    rep = nd.null_convergence_check(seq, nd.path_space(201, 1.0), 200, seed=0)
    checked = [m for m in rep.members if not m.excluded]
    zero_violations = all(
        m.lower_margin >= -1e-12 and m.upper_margin >= -1e-12 for m in checked
    )
    dev = {m.index: m.sup_deviation for m in checked}
    ok = (
        len(checked) == 3
        and zero_violations
        and dev[2] < dev[1]  # j=100 below j=10
    )
    report(
        3,
        f"two-sided deviation estimate holds on every sampled pair; "
        f"sup-dev j100={dev.get(2, float('nan')):.4f} < j10={dev.get(1, float('nan')):.4f}",
        ok,
    )


def test_criterion_04_affine_sandwich():
    n_t = 50
    fiber = nd.path_space(51, 1.0)
    g1 = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), n_t)
    gf = ConeGrid(IV, fiber, WarpingFunction.affine(1.0, 2.0, IV), n_t)
    m1 = nd.null_distance(g1).full_matrix()
    mf = nd.null_distance(gf).full_matrix()
    lower = float((mf - min(1.0, gf.f_min) * m1).min())
    upper = float((max(1.0, gf.f_max) * m1 - mf).min())
    ok = lower >= -1e-12 and upper >= -(2.0 / n_t) - 1e-12
    report(
        4,
        f"affine f in [1,3]: lower side exact (min margin {lower:.1e}), "
        f"upper within 2/n_t (worst {-upper:.4f} <= {2.0 / n_t})",
        ok,
    )


def test_criterion_05_gh_lifting():
    ok = True
    t_grid = np.linspace(0.0, 1.0, 5)
    for n_b, d_b in ((2, 1.2), (3, 1.0)):
        a = nd.path_space(2, 1.0)
        b = nd.path_space(n_b, d_b)
        for corr in all_correspondences(a.n, b.n):
            res = nd.lift_correspondence(corr, a, b, t_grid)
            ok = ok and res.distortion_lifted <= res.distortion_base + 1e-15
    # exact GH of lifted instances within the enumeration cap
    two_levels = np.linspace(0.0, 1.0, 2)
    for n_b, d_b in ((2, 1.2), (3, 1.0)):
        a, b = nd.path_space(2, 1.0), nd.path_space(n_b, d_b)
        gh_fiber = nd.gh_distance_exact(a, b).distance
        la, lb = lifted_product_space(a, two_levels), lifted_product_space(b, two_levels)
        gh_lift = nd.gh_distance_exact(la, lb).distance
        ok = ok and gh_lift <= gh_fiber + 1e-9
    report(5, "lifts never increase distortion; lifted GH <= fiber GH + 1e-9", ok)


def test_criterion_06_three_eps_isometry():
    n_t = 40
    fiber = nd.path_space(41, 1.0)
    g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), n_t)
    gn = ConeGrid(IV, fiber, WarpingFunction.constant(1.05, IV), n_t)
    eps_n = nd.sup_norm(g.warping, gn.warping)
    r = 0.5
    # deviation bound from the two-sided estimate at the ball scale
    eps = eps_n * (1.0 + 8.0 * eps_n / g.f_min + 8.0 * (2.0 * r) / g.f_min)
    res = nd.epsilon_isometry(g, gn, r=r, p0=(20, 20), eps=eps)
    ok = (
        res.passed
        and res.max_distortion <= 3.0 * eps + 1e-12
        and res.net_defect <= eps + 1e-12
        and res.gh_bound == pytest.approx(6.0 * eps)
    )
    report(
        6,
        f"almost-isometry: distortion {res.max_distortion:.4f} <= 3*eps={3 * eps:.4f}, "
        f"net defect {res.net_defect:.4f}, GH bound {res.gh_bound:.4f}",
        ok,
    )


def test_criterion_07_compactness_nets():
    family = [WarpingFunction.constant(c, IV) for c in (1.0, 2.0, 3.0)]
    cert = nd.uniform_total_boundedness(
        family, nd.path_space(41, 1.0), (0.0, 1.0), eps=0.25, bound=3.0, n_t=40
    )
    ok = (
        cert.mesh == pytest.approx(0.75)
        and len(cert.member_worst) == 3
        and cert.certified
        and not cert.excluded
    )
    worst = max(w for _, w in cert.member_worst)
    report(
        7,
        f"product net of {cert.net_size} points is a 0.75-net of all three cones "
        f"(worst distance {worst:.4f})",
        ok,
    )


def test_criterion_08_null_curves():
    ok = True
    details = []
    for wf, label in (
        (WarpingFunction.constant(1.0, IV), "f=1"),
        (WarpingFunction.affine(1.0, 1.0, IV), "f=1+t"),
    ):
        g = ConeGrid(IV, nd.path_space(41, 1.0), wf, 40)
        for p, q in (((0, 0), (0, 20)), ((4, 3), (30, 33)), ((0, 7), (40, 7))):
            curve = nd.null_curve(g, p, q)
            rep = nd.verify_null_curve(g, curve)
            ok = (
                ok
                and rep["t_endpoint_error"] <= 1e-6
                and rep["max_nullity_defect"] <= 1e-6
                and abs(rep["null_length"] - rep["total_variation"]) <= 1e-9
            )
            details.append(rep["max_nullity_defect"])
    report(
        8,
        f"null curves: endpoints to 1e-6, segments null to 1e-6 "
        f"(worst defect {max(details):.2e}), length = variation to 1e-9",
        ok,
    )


def test_criterion_09_time_separation_oracle():
    exact = 0.8
    errs = []
    for m in (501, 1001, 2001):
        fiber = nd.path_space(m, 1.0)
        grid = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 200)
        target = (200, int(round(0.6 * (m - 1))))
        val = nd.time_separation(grid, sources=[(0, 0)]).value((0, 0), target)
        errs.append(abs(val - exact))
    ok = errs[0] >= errs[1] >= errs[2] - 1e-12 and errs[-1] <= 0.02 * exact
    report(
        9,
        f"rho((0,0),(1,0.6)) errors under fiber refinement {['%.4f' % e for e in errs]} "
        f"(final within 2%)",
        ok,
    )


def test_criterion_10_phi_time_functions():
    # dyadic grid so the linear reparametrization is bitwise exact
    fiber = nd.path_space(65, 1.0)
    g = ConeGrid(IV, fiber, WarpingFunction.constant(1.0, IV), 64)
    res_base = nd.null_distance(g)
    base = res_base.full_matrix()
    res_lin, rep_lin = nd.null_distance_phi(g, lambda t: 2.0 * t + 5.0)
    doubled = np.array_equal(res_lin.full_matrix(), 2.0 * base)
    res_nl, rep_nl = nd.null_distance_phi(g, lambda t: t + 0.5 * t * t)
    # pass pairs per 64-source batch: linear phi settles in two, and the band
    # closure collapses the nonlinear zigzags into at most one more
    sweeps_ok = set(res_base.sweeps) == {2} and max(res_nl.sweeps) <= 3
    ok = doubled and rep_nl.causal_exact and rep_nl.gap_bound_holds and sweeps_ok
    report(
        10,
        f"phi = 2t+5 doubles the matrix bitwise; nonlinear phi: causal pairs exact "
        f"(err {rep_nl.worst_causal_error:.1e}), gap bound margin {rep_nl.worst_gap_margin:.2e} >= 0, "
        f"at most {max(res_nl.sweeps)} pass pairs per batch",
        ok,
    )


@pytest.fixture(scope="module")
def flat_cone():
    iv = Interval(0.0, 3.0)
    return ConeGrid(iv, nd.path_space(201, 1.0), WarpingFunction.constant(1.0, iv), 60)


def test_criterion_11_curvature(flat_cone):
    tol = 0.05
    tris, _ = nd.sample_timelike_triangles(flat_cone, 10, seed=42, size_bound=2.0)
    cache = {}
    margins = []
    for tri in tris:
        for direction in ("lower", "upper"):
            v = nd.triangle_comparison(flat_cone, tri, 0.0, direction, 5, tol, cache)
            margins.append(v.worst_witness["margin"])
    # refinement sensitivity measured on even-level chronological pairs with
    # genuine fiber movement (these survive the grid halving)
    probe_pairs = [((0, 0), (30, 100)), ((0, 40), (40, 160)), ((10, 0), (50, 120))]
    measured = dp_refinement_error(flat_cone, probe_pairs)
    flat_ok = len(tris) == 10 and min(margins) >= -tol and tol >= measured > 0

    trip = nd.tripod_space(50, 1.0)
    iv5 = Interval(0.0, 5.0)
    gt = ConeGrid(iv5, trip, WarpingFunction.constant(1.0, iv5), 100)
    tri = _triangle_from_vertices(gt, (0, 50), (50, 100), (100, 150))
    v_exp = nd.triangle_comparison(gt, tri, 0.0, "lower", 5, tol)
    tris_t, _ = nd.sample_timelike_triangles(gt, 8, seed=7)
    cache_t = {}
    sampled_fail = any(
        not nd.triangle_comparison(gt, t, 0.0, "lower", 5, tol, cache_t).passed
        for t in tris_t
    )
    tripod_ok = (not v_exp.passed) and sampled_fail

    cosh = WarpingFunction.cosh_type(1.0, 1.0, IV)
    cosh_ok = (
        nd.concavity_check(cosh, 1.0).passed
        and abs(nd.compute_fiber_bound(cosh, 1.0) - 1.0) <= 1e-12
    )
    ok = flat_ok and tripod_ok and cosh_ok
    report(
        11,
        f"flat self-comparison margins within tol={tol} (worst {min(margins):.4f}, "
        f"measured dp err {measured:.4f}); tripod lower-bound failure detected "
        f"(margin {v_exp.worst_witness['margin']:.3f}); cosh identities exact",
        ok,
    )


def test_criterion_12_quadruple_condition():
    trip = nd.quadruple_curvature_check(nd.tripod_space(1, 1.0), 0.0)
    tripod_ok = (not trip.passed) and abs(trip.worst_excess - math.pi) <= 1e-12
    line = nd.quadruple_curvature_check(nd.path_space(4, 3.0), 0.0, tol=1e-9)
    ok = tripod_ok and line.passed
    report(
        12,
        f"tripod fails k=0 with angle sum 3*pi exactly (excess {trip.worst_excess:.12f}); "
        "collinear quadruples pass",
        ok,
    )


def test_criterion_13_discrete_pre_length_suite():
    all_pass = True
    for seed in range(100):
        space, tau = random_pre_length_space(4 + seed % 5, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = nd.properties_report(space, tau)
        all_pass = all_pass and rep.ok

    space, _ = random_pre_length_space(6, 7)
    caught = []
    # rho > 0 without chronology
    chrono = space.chrono.copy()
    pair = tuple(np.argwhere(space.chrono)[0])
    chrono[pair] = False
    rep = nd.validate_pls(DiscretePreLengthSpace(space.base, space.causal, chrono, space.rho))
    caught.append(
        any(v.kind == "rho-chrono-mismatch" and v.where == pair for v in rep.violations)
    )
    # chronology outside causality
    chrono2 = space.chrono.copy()
    free = np.argwhere(~space.causal)
    if free.size:
        where = tuple(free[0])
        chrono2[where] = True
        rep = nd.validate_pls(
            DiscretePreLengthSpace(space.base, space.causal, chrono2, space.rho)
        )
        caught.append(
            any(v.kind == "chrono-not-in-causal" and v.where == where for v in rep.violations)
        )
    # reverse triangle inequality broken on a causal chain
    strict = space.causal & ~np.eye(space.n, dtype=bool)
    chain = None
    for y in range(space.n):
        xs = np.nonzero(strict[:, y])[0]
        zs = np.nonzero(strict[y, :])[0]
        for x in xs:
            for z in zs:
                if space.rho[x, y] + space.rho[y, z] > 0:
                    chain = (int(x), int(y), int(z))
                    break
            if chain:
                break
        if chain:
            break
    rho2 = space.rho.copy()
    x, y, z = chain
    rho2[x, z] = 0.5 * (space.rho[x, y] + space.rho[y, z]) - 1e-6
    rho2[x, z] = max(rho2[x, z], 0.0)
    chrono3 = space.chrono.copy()
    chrono3[x, z] = rho2[x, z] > 0
    rep = nd.validate_pls(DiscretePreLengthSpace(space.base, space.causal, chrono3, rho2))
    caught.append(any(v.kind == "reverse-triangle" for v in rep.violations))
    # causal transitivity broken
    causal2 = space.causal.copy()
    causal2[x, z] = False
    rep = nd.validate_pls(DiscretePreLengthSpace(space.base, causal2, space.chrono, space.rho))
    caught.append(
        any(v.kind in ("causal-not-transitive", "chrono-not-in-causal") for v in rep.violations)
    )
    ok = all_pass and all(caught)
    report(
        13,
        f"properties hold on 100 seeded instances; {len(caught)} broken axioms "
        "caught with correct witnesses",
        ok,
    )


def test_criterion_14_determinism(tmp_path):
    from nulldist.cli import main
    from nulldist.formats import save_distance_matrix_csv

    save_distance_matrix_csv(tmp_path / "fiber.csv", nd.path_space(11, 1.0))
    (tmp_path / "cone.json").write_text(
        json.dumps(
            {
                "interval": [0.0, 1.0],
                "n_t": 10,
                "fiber": "fiber.csv",
                "warping": {"kind": "affine", "params": {"intercept": 1.0, "slope": 1.0}},
            }
        ),
        encoding="utf-8",
    )
    (tmp_path / "curv.json").write_text(
        json.dumps(
            {
                "interval": [0.0, 2.0],
                "n_t": 20,
                "fiber": "fiber.csv",
                "warping": {"kind": "constant", "params": {"value": 1.0}},
                "bound": 0.0,
                "direction": "lower",
                "n_triangles": 3,
                "n_probe": 3,
                "tol": 0.2,
                "seed": 5,
            }
        ),
        encoding="utf-8",
    )
    scenarios = [
        {"command": "nulldist", "inputs": {"cone": "cone.json"}, "seed": 1},
        {"command": "curvature", "inputs": {"experiment": "curv.json"}, "seed": 5},
    ]
    ok = True
    for idx, cfg in enumerate(scenarios):
        cfg_path = tmp_path / f"cfg{idx}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for run in (0, 1):
            out = tmp_path / f"out{idx}_{run}"
            status = main(["--config", str(cfg_path), "--out", str(out)])
            ok = ok and status == 0
            outs.append(out)
        for artifact in sorted(p.name for p in outs[0].iterdir()):
            ok = ok and (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    report(14, "two runs of each scenario produce byte-identical artifacts", ok)
