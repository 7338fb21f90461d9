"""The surface of the library: every parameter with a default, and every
name the package exports.

Read from the sources with `ast`, without importing the package. An option
is a parameter that some caller outside the tests varies: library, CLI,
script or benchmark code. A parameter that only tests set is a constant, and
a default that no caller reads goes. A new option needs a deliberate edit of
PINNED below. A new export, or one that no code uses any more, needs a
deliberate edit of EXPORTS.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nulldist"

PINNED = {
    ("cli", "main", "argv"),
    ("cone", "stratified_sources", "max_entries"),
    ("cone", "stratified_sources", "seed"),
    ("cone", "null_distance", "sources"),
    ("cone", "null_distance", "weight_levels"),
    ("cone", "time_separation", "sources"),
    ("cone", "null_distance_phi", "sources"),
    ("convergence", "null_convergence_check", "max_entries"),
    ("convergence", "null_convergence_check", "seed"),
    ("curvature", "sample_timelike_triangles", "size_bound"),
    ("curvature", "triangle_comparison", "rho_cache"),
    ("curvature", "persistence_experiment", "side_cap"),
    ("curvature", "persistence_experiment", "warpings"),
    ("curvature", "persistence_experiment", "warping_limit"),
    ("curvature", "persistence_experiment", "k_primes"),
    ("curvature", "persistence_experiment", "k_prime"),
    ("formats", "save_pls_json", "tau"),
    ("metric_core", "path_space", "length"),
    ("metric_core", "circle_space", "circumference"),
    ("metric_core", "tripod_space", "leg_length"),
    ("metric_core", "quadruple_curvature_check", "tol"),
    ("reporting", "ValidationReport.add", "detail"),
    ("reporting", "GuaranteeReport.record", "witness"),
    ("warping", "WarpingFunction.tabulated", "domain"),
    ("warping", "WarpingFunction.critical_points", "interval"),
    ("warping", "WarpingFunction.extrema", "interval"),
}


# public names of `nulldist/__init__.py`, by the module they come from
EXPORTS = {
    "cone": {
        "ConeGrid", "minimizer_analysis", "null_distance", "null_distance_guarantees",
        "null_distance_phi", "stratified_sources", "time_separation", "time_separation_path",
    },
    "convergence": {
        "WarpingSequence", "epsilon_isometry", "lift_correspondence", "null_convergence_check",
        "sup_norm", "uniform_total_boundedness",
    },
    "curvature": {
        "TimelikeTriangle", "compute_fiber_bound", "concavity_check", "persistence_experiment",
        "sample_timelike_triangles", "triangle_comparison",
    },
    "lpls": {
        "DiscretePreLengthSpace", "PiecewiseCausalPath", "causally_convex_neighborhood",
        "chain_rho_length", "check_anti_lipschitz", "check_time_function",
        "null_distance_matrix", "path_null_length", "properties_report",
        "rho_length_and_time_separation", "validate_pls",
    },
    "metric_core": {
        "Correspondence", "EpsilonNet", "FiniteLengthSpace", "circle_space", "distortion",
        "epsilon_net", "gh_distance_exact", "intrinsic_metric", "path_space",
        "quadruple_curvature_check", "tripod_space", "validate_metric",
    },
    "model_spaces": {
        "ComparisonTriangle", "l2k_time_separation", "point_on_side", "realize_timelike_triangle",
    },
    "nullcurve": {"PiecewiseNullCurve", "null_curve", "verify_null_curve"},
    "warping": {"Interval", "WarpingFunction"},
}


def defaulted_parameters(tree: ast.Module, module: str) -> set:
    """(module, qualified function name, parameter) for every parameter
    with a default, positional and keyword-only alike."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                out.update((module, prefix + child.name, a.arg) for a in with_default)
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return out


def test_option_surface_is_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found - PINNED) == [], "new options: pin them deliberately"
    assert sorted(PINNED - found) == [], "options gone: drop them from the pin"


def test_exports_are_pinned():
    # the names `from nulldist import *` binds: no leading underscore
    found = {}
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names = {a.asname or a.name for a in node.names}
            found.setdefault(node.module, set()).update(n for n in names if not n.startswith("_"))
        elif isinstance(node, ast.Assign):
            assert all(t.id.startswith("_") for t in node.targets), "exports come from modules"
    assert found == EXPORTS, "exports changed: edit the pin deliberately"
