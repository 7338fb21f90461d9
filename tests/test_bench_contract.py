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
