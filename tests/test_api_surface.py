"""The option surface of the library: every parameter with a default.

Read from the sources with `ast`, without importing the package. An option
that no caller sets is a constant; a new one needs a deliberate edit of
PINNED below.
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
    ("curvature", "sample_timelike_triangles", "max_attempts"),
    ("curvature", "triangle_comparison", "rho_cache"),
    ("curvature", "concavity_check", "mode"),
    ("curvature", "persistence_experiment", "side_cap"),
    ("curvature", "persistence_experiment", "warpings"),
    ("curvature", "persistence_experiment", "warping_limit"),
    ("curvature", "persistence_experiment", "k_primes"),
    ("curvature", "persistence_experiment", "k_prime"),
    ("formats", "save_pls_json", "tau"),
    ("formats", "write_long_matrix_csv", "col_ids"),
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
