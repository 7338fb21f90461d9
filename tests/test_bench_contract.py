"""The names the benchmark traces and calls must exist in nulldist.

`perfbench/tracing.py` patches the functions it lists; a name that is gone
makes every operation of a workload fail, which no other test notices. The
tracer uses only the standard library, so it is loaded here by path."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in _tracing.SPANS + _tracing.COUNTS]
)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the method in the class's own namespace
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_timelike_triangles_call_shapes():
    # timelike-triangles calls sample_timelike_triangles with a positional
    # size bound, _triangle_from_vertices with three vertices,
    # triangle_comparison with seven positional arguments (a shared rho
    # cache last) and with six, and time_separation with keyword sources
    from nulldist import cone, curvature, metric_core
    from nulldist.warping import Interval, WarpingFunction

    iv = Interval(0.0, 1.0)
    grid = cone.ConeGrid(iv, metric_core.path_space(9, 0.5), WarpingFunction.constant(1.0, iv), 16)
    tris, diag = curvature.sample_timelike_triangles(grid, 2, 7, 2.0)
    assert len(tris) == diag["found"] == 2
    tri = curvature._triangle_from_vertices(grid, (0, 0), (8, 4), (16, 8))
    assert tri is not None and tri.vertices() == ((0, 0), (8, 4), (16, 8))
    # the sampler reads its sides back from its cached rows; the three-vertex
    # call runs its own DP and must give the same triangle
    assert repr(curvature._triangle_from_vertices(grid, *tris[0].vertices())) == repr(tris[0])
    cache = {}
    for t in tris + [tri]:
        for direction in ("lower", "upper"):
            verdict = curvature.triangle_comparison(grid, t, 0.0, direction, 5, 0.05, cache)
            assert verdict.n_probes == 5 and verdict.direction == direction
    assert cache
    verdict = curvature.triangle_comparison(grid, tri, 0.0, "lower", 5, 0.05)
    assert isinstance(verdict.passed, bool) and verdict.worst_witness is not None
    res = cone.time_separation(grid, sources=[(0, 4)])
    assert res.rows.shape == (1, grid.n_points) and res.value((0, 4), (16, 4)) > 0


def test_null_sweeps_guarantee_and_phi_calls():
    # null-sweeps calls null_distance_guarantees with two arguments and reads
    # .ok, and reads rows, causal_exact and gap_bound_holds from
    # null_distance_phi's (result, report)
    from nulldist import cone, metric_core
    from nulldist.warping import Interval, WarpingFunction

    iv = Interval(0.0, 1.0)
    grid = cone.ConeGrid(iv, metric_core.path_space(9, 1.0), WarpingFunction.constant(1.0, iv), 8)
    sources = [(0, 0), (4, 4), (8, 2)]
    res = cone.null_distance(grid, sources=sources)
    assert cone.null_distance_guarantees(grid, res).ok
    res_phi, rep = cone.null_distance_phi(grid, lambda t: t + 0.5 * t * t, sources=sources)
    assert res_phi.rows.shape == (len(sources), grid.n_points)
    assert rep.causal_exact and rep.gap_bound_holds


def test_finite_spaces_call_shapes():
    # finite-spaces calls minimizer_analysis(grid, p, q) and reads .path and
    # .run_defects, null_curve(grid, p, q) and verify_null_curve(grid, curve)
    # and reads "n_segments", gh_distance_exact(a, b).distance,
    # quadruple_curvature_check(space, 0.0), epsilon_net(space, eps),
    # lpls.null_distance_matrix(pls, tau), rho_length_and_time_separation(pls)
    # as a 2-tuple, and validate_pls(pls).ok and .summary()
    import numpy as np

    from nulldist import cone, lpls, metric_core, nullcurve
    from nulldist.warping import Interval, WarpingFunction

    iv = Interval(0.0, 1.0)
    grid = cone.ConeGrid(iv, metric_core.path_space(9, 1.0), WarpingFunction.affine(1.0, 1.0, iv), 8)
    res = cone.minimizer_analysis(grid, (0, 0), (4, 8))
    assert tuple(res.path[0]) == (0, 0) and tuple(res.path[-1]) == (4, 8)
    assert res.run_defects and all(len(run) == 2 for run in res.run_defects)
    curve = nullcurve.null_curve(grid, (0, 0), (4, 8))
    assert nullcurve.verify_null_curve(grid, curve)["n_segments"] == len(curve.segments)
    two, three = metric_core.path_space(2, 1.0), metric_core.path_space(3, 1.0)
    assert metric_core.gh_distance_exact(two, three).distance >= 0.0
    quad = metric_core.quadruple_curvature_check(metric_core.tripod_space(2, 1.0), 0.0)
    assert not quad.passed and quad.worst_quadruple is not None
    net = metric_core.epsilon_net(metric_core.path_space(11, 1.0), 0.25)
    assert net.center_indices and net.covering_radius_achieved <= 0.25

    # a chain 0 <= 1 <= 2 with tau = rho from 0
    n = 3
    gaps = np.subtract.outer(np.arange(n), np.arange(n)) * 1.0  # i - j
    base = metric_core.FiniteLengthSpace(tuple(range(n)), np.abs(gaps))
    causal = np.triu(np.ones((n, n), dtype=bool))
    chrono = np.triu(np.ones((n, n), dtype=bool), 1)
    pls = lpls.DiscretePreLengthSpace(base, causal, chrono, np.where(chrono, -gaps, 0.0))
    tau = np.arange(n, dtype=float)
    assert lpls.null_distance_matrix(pls, tau).shape == (n, n)
    out = lpls.rho_length_and_time_separation(pls)
    assert isinstance(out, tuple) and len(out) == 2
    rep = lpls.validate_pls(pls)
    assert rep.ok and isinstance(rep.summary(), str)


@pytest.mark.parametrize("seed", [7, 20])
def test_cli_curvature_worst_witness_is_the_lowest_row_margin(seed, tmp_path):
    # cli-scenarios checks that the report's worst witness carries the
    # lowest margin of curvature.csv (seed 20 of the README sample fails)
    import json

    from nulldist import cli, formats, metric_core

    formats.save_distance_matrix_csv(tmp_path / "fiber.csv", metric_core.path_space(41, 1.0))
    experiment = {
        "interval": [0.0, 2.0], "n_t": 40, "fiber": "fiber.csv",
        "warping": {"kind": "constant", "params": {"value": 1.0}},
        "bound": 0.0, "direction": "lower", "n_triangles": 5, "n_probe": 4, "tol": 0.1,
    }
    (tmp_path / "curvature.json").write_text(json.dumps(experiment), encoding="utf-8")
    cfg = {"command": "curvature", "inputs": {"experiment": "curvature.json"}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    status = cli.main(["--config", str(tmp_path / "cfg.json"), "--out", str(out), "--seed", str(seed)])
    assert status == (1 if seed == 20 else 0)
    lines = (out / "curvature.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "triangle,bound,direction,passed,margin"
    margins = [float(line.split(",")[4]) for line in lines[1:]]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(margins) == report["sampling"]["found"] == 5
    assert report["worst_witness"]["margin"] == min(margins)
