"""The surface of the library: every parameter with a default, every
name the package exports, and a caller for every public module-level name.

Read from the sources with `ast`, without importing the package. An option
is a parameter that some caller outside the tests varies: library, CLI,
script or benchmark code. A parameter that only tests set is a constant, and
a default that no caller reads goes. A new option needs a deliberate edit of
PINNED below. A new export, or one that no code uses any more, needs a
deliberate edit of EXPORTS. A public function or class that is neither
exported nor named by library, script or benchmark code is a test helper,
and lives in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nulldist"

PINNED = {
    ("cli", "main", "argv"),
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
    ("metric_core", "path_space", "length"),
    ("metric_core", "circle_space", "circumference"),
    ("metric_core", "quadruple_curvature_check", "tol"),
    ("reporting", "ValidationReport.add", "detail"),
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


def named(node: ast.AST) -> set:
    """The names a node refers to: bare names, attributes and imports. A
    string (a docstring included) names nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def test_library_functions_have_a_caller():
    # the callers: library, scripts and benchmark, each top-level statement
    # apart, so that a definition's own body does not count as its caller
    statements = []
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    ):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path, node, named(node)))
    uncalled = []
    for path, node, _ in statements:
        if path.parent != SRC or path.stem == "__init__":
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in EXPORTS.get(path.stem, ()):
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == [], f"no caller outside the tests, move them into the tests: {uncalled}"
