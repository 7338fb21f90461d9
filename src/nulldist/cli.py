"""Scenario runner.

Every run reads a JSON scenario, dispatches to the library, and writes into
the output directory: per-command CSV tables, a JSON report with all
verdicts and witnesses, and a manifest recording inputs (with hashes),
parameters, seed and library version. Outputs are byte-deterministic for
identical manifests.

Exit status: 0 all checks passed, 1 invariant failures (report still
written), 2 parse/usage errors, 3 engine errors (a computation that could
not finish, e.g. null-distance sweeps that did not stabilize).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import formats
from .cone import (
    PAIR_BUDGET,
    ConeGrid,
    _resolve_sources,
    _sweep_chunks,
    all_grid_points,
    null_distance,
    null_distance_guarantees,
    stratified_sources,
    time_separation,
)
from .convergence import WarpingSequence, null_convergence_check
from .curvature import _sample_and_compare, persistence_experiment
from .errors import InvalidInputError
from .lpls import check_time_function, validate_pls
from .metric_core import epsilon_net, gh_distance_exact, validate_metric, verify_net
from .nullcurve import null_curve, verify_null_curve
from .reporting import GuaranteeReport
from .warping import Interval

ENGINE_ERROR, PARSE_ERROR, CHECK_FAILED, OK = 3, 2, 1, 0


def _override(cfg, key, default):
    """The command-line override `key` when given (zero included), else default."""
    value = cfg.get(key)
    return default if value is None else value


def _load_grid(cfg, paths):
    grid = formats.load_cone_json(paths["cone"])
    if cfg.get("n_t_override") is None:
        return grid
    return ConeGrid(grid.interval, grid.fiber, grid.warping, int(cfg["n_t_override"]))


def _node_labels(grid):
    return [f"{i}:{j}" for i, j in all_grid_points(grid)]


def _pick_sources(grid, params, seed):
    """Source points for a full-row engine; None for "all", so the engine
    applies its own size bound to the full matrix."""
    choice = params.get("sources", "auto")
    if isinstance(choice, list):
        return [tuple(map(int, p)) for p in choice]
    if choice == "all":
        return None
    return stratified_sources(grid, float(params.get("max_entries", PAIR_BUDGET)), seed)


def _coverage(grid, sources):
    return {"sources": len(sources), "grid_points": grid.n_points}


def run_validate(cfg, paths, out, seed):
    report = {}
    status = OK
    if "space" in paths:
        space = formats.load_space(paths["space"])
        rep = validate_metric(space)
        report["metric"] = [str(v) for v in rep.violations]
        status = OK if rep.ok else CHECK_FAILED
    if "pls" in paths:
        space, tau = formats.load_pls_json(paths["pls"])
        rep = validate_pls(space)
        report["pre_length"] = [str(v) for v in rep.violations]
        if not rep.ok:
            status = CHECK_FAILED
        if tau is not None:
            verdict = check_time_function(space, tau)
            report["time_function"] = {
                "passed": verdict.passed,
                "witness": verdict.witness,
            }
            if not verdict.passed:
                status = CHECK_FAILED
    if not report:
        raise InvalidInputError("validate needs a 'space' or 'pls' input")
    formats.write_report_json(out / "report.json", report)
    return status


def run_nulldist(cfg, paths, out, seed):
    grid = _load_grid(cfg, paths)
    params = cfg.get("params", {})
    # the size refusals come before nulldist.csv is opened: the engine's
    # bound on "all", and the cover index's, built here once for every chunk
    sources = _resolve_sources(grid, _pick_sources(grid, params, seed))
    c_up, c_rev = grid._cover_index()  # one list when the grid is time-symmetric
    rep, sweeps = GuaranteeReport(), []

    def block(chunk):
        res = null_distance(grid, sources=chunk)
        rep.merge(null_distance_guarantees(grid, res))
        sweeps.extend(res.sweeps)
        return [f"{i}:{j}" for i, j in res.sources], res.rows

    # one chunk of rows at a time: swept, checked, written, then dropped
    blocks = (block(chunk) for _, chunk in _sweep_chunks(grid, sources))
    formats.write_long_matrix_csv(out / "nulldist.csv", blocks, _node_labels(grid))
    formats.write_report_json(
        out / "report.json",
        {
            "worst_margins": rep.worst,
            "violations": rep.violations,
            "notes": rep.notes,
            "coverage": _coverage(grid, sources),
            "sweeps": sweeps,
            "table_bytes": grid._table_bytes(),
            "cover_index_bytes": sum(i.nbytes for i in (c_up if c_up is c_rev else c_up + c_rev)),
        },
    )
    return OK if rep.ok else CHECK_FAILED


def run_timesep(cfg, paths, out, seed):
    grid = _load_grid(cfg, paths)
    params = cfg.get("params", {})
    sources = _pick_sources(grid, params, seed)
    res = time_separation(grid, sources=sources)
    formats.write_long_matrix_csv(
        out / "timesep.csv", [([f"{i}:{j}" for i, j in res.sources], res.rows)], _node_labels(grid)
    )
    # reverse triangle inequality rows[p] >= rows[p, q] + rows[q] along chains
    # p < q through computed sources q, one reduction per q over every p; it
    # reads across sources, so every row is held at once
    rows = res.rows
    levels = np.array([i for i, _ in res.sources], dtype=int)
    worst = 0.0
    for kq, q in enumerate(res.sources):
        ahead = rows[kq] > 0
        via = rows[:, grid.node(*q)]
        ps = np.flatnonzero((levels < q[0]) & (via > 0))
        if ps.size and ahead.any():
            slack = via[ps, None] + rows[kq, ahead]
            np.subtract(rows[np.ix_(ps, ahead)], slack, out=slack)
            worst = min(worst, float(slack.min()))
    chrono, zeros = res.zero_chronological_pairs()
    notes = []
    if zeros:
        notes.append(
            f"the DP reads 0 on {zeros} of {chrono} chronological pairs, as it does where a "
            "level step's G-gap is below the fiber spacing and no single-level move leaves "
            "its fiber point; use a finer fiber"
        )
    formats.write_report_json(
        out / "report.json",
        {
            "reverse_triangle_worst_slack": worst,
            "coverage": _coverage(grid, res.sources),
            "chronological_pairs": chrono,
            "dp_zero_chronological_pairs": zeros,
            "notes": notes,
        },
    )
    return OK if worst >= -1e-9 else CHECK_FAILED


def run_nullcurve(cfg, paths, out, seed):
    grid = _load_grid(cfg, paths)
    params = cfg.get("params", {})
    p = tuple(map(int, params["p"]))
    q = tuple(map(int, params["q"]))
    curve = null_curve(grid, p, q)
    rep = verify_null_curve(grid, curve)
    formats.write_table_csv(
        out / "nullcurve.csv",
        ["t_start", "t_end", "u_start", "u_end", "direction"],
        [
            (s.t_start, s.t_end, s.u_start, s.u_end, s.direction)
            for s in curve.segments
        ],
    )
    formats.write_report_json(out / "report.json", rep)
    ok = (
        rep["t_endpoint_error"] <= 1e-6
        and rep["max_nullity_defect"] <= 1e-6
        and abs(rep["null_length"] - rep["total_variation"]) <= 1e-9
    )
    return OK if ok else CHECK_FAILED


def run_converge(cfg, paths, out, seed):
    doc = json.loads(Path(paths["scenario"]).read_text(encoding="utf-8"))
    base = Path(paths["scenario"]).parent
    if "cone" in doc:
        grid = formats.load_cone_json(base / doc["cone"])
        fiber, interval, default_n_t = grid.fiber, grid.interval, grid.n_t
    else:
        fiber = formats.load_space(base / doc["fiber"])
        a, b = doc["interval"]
        interval = Interval(float(a), float(b))
        default_n_t = int(doc.get("n_t", 50))
    limit = formats.warping_from_dict(doc["limit"], interval)
    members = tuple(formats.warping_from_dict(m, interval) for m in doc["family"])
    seq = WarpingSequence(members, limit, float(doc["lower_bound"]))
    schedule = doc.get("eps_schedule")
    if schedule is not None and len(schedule) != len(members):
        raise InvalidInputError(
            f"eps_schedule has {len(schedule)} entries for a family of {len(members)}"
        )
    n_t = int(_override(cfg, "n_t_override", default_n_t))
    rep = null_convergence_check(
        seq, fiber, n_t, max_entries=int(doc.get("sample_pairs", PAIR_BUDGET)), seed=seed
    )
    if schedule is not None:
        for m, want in zip(rep.members, schedule):
            if not abs(m.eps - float(want)) <= 1e-9:
                m.diagnostic = (m.diagnostic + "; " if m.diagnostic else "") + (
                    f"declared eps {want!r} differs from measured {m.eps!r}"
                )
    formats.write_table_csv(
        out / "converge.csv",
        ["j", "eps_j", "sup_deviation", "lower_margin", "upper_margin", "excluded"],
        [
            (m.index, m.eps, m.sup_deviation, m.lower_margin, m.upper_margin, int(m.excluded))
            for m in rep.members
        ],
    )
    formats.write_report_json(
        out / "report.json",
        {
            "monotone_ok": rep.monotone_ok,
            "sandwich_ok": rep.all_sandwich_ok,
            "members": [
                {"j": m.index, "eps": m.eps, "diagnostic": m.diagnostic}
                for m in rep.members
            ],
        },
    )
    return OK if (rep.monotone_ok and rep.all_sandwich_ok) else CHECK_FAILED


def run_gh(cfg, paths, out, seed):
    a = formats.load_space(paths["a"])
    b = formats.load_space(paths["b"])
    res = gh_distance_exact(a, b)
    formats.write_report_json(
        out / "report.json",
        {"gh_distance": res.distance, "witness_pairs": list(res.witness.pairs)},
    )
    return OK


def run_net(cfg, paths, out, seed):
    space = formats.load_space(paths["space"])
    eps = float(_override(cfg, "tol_override", cfg.get("params", {}).get("eps", 0.25)))
    net = epsilon_net(space, eps)
    verdict = verify_net(space, net)
    formats.write_table_csv(
        out / "net.csv", ["center_index"], [(int(c),) for c in net.center_indices]
    )
    formats.write_report_json(
        out / "report.json",
        {
            "radius": net.radius,
            "covering_radius_achieved": net.covering_radius_achieved,
            "n_centers": len(net.center_indices),
            "verified": verdict.passed,
        },
    )
    return OK if verdict.passed else CHECK_FAILED


def run_curvature(cfg, paths, out, seed):
    doc = json.loads(Path(paths["experiment"]).read_text(encoding="utf-8"))
    base = Path(paths["experiment"]).parent
    a, b = doc["interval"]
    interval = Interval(float(a), float(b))
    fiber = formats.load_space(base / doc["fiber"])
    warping = formats.warping_from_dict(doc["warping"], interval)
    n_t = int(_override(cfg, "n_t_override", doc.get("n_t", 50)))
    grid = ConeGrid(interval, fiber, warping, n_t)
    tol = float(_override(cfg, "tol_override", doc.get("tol", 0.05)))
    bound = float(doc.get("bound", 0.0))
    sample_seed = int(_override(cfg, "seed_override", doc.get("seed", seed)))
    verdicts, diag = _sample_and_compare(
        grid, bound, doc.get("direction", "lower"), int(doc.get("n_triangles", 10)),
        int(doc.get("n_probe", 5)), tol, sample_seed, doc.get("side_cap"),
    )
    rows = [(idx, v.bound, v.direction, int(v.passed), v.worst_witness["margin"])
            for idx, v in enumerate(verdicts)]
    # the worst verdict is the one of lowest raw margin
    worst = min(verdicts, key=lambda v: v.worst_witness["margin"], default=None)
    formats.write_table_csv(
        out / "curvature.csv", ["triangle", "bound", "direction", "passed", "margin"], rows
    )
    formats.write_report_json(
        out / "report.json",
        {
            "sampling": {**diag, "seed": sample_seed},
            "worst_witness": None if worst is None else worst.worst_witness,
            "all_passed": all(r[3] for r in rows) and bool(rows),
        },
    )
    return OK if rows and all(r[3] for r in rows) else CHECK_FAILED


def run_persist(cfg, paths, out, seed):
    doc = json.loads(Path(paths["experiment"]).read_text(encoding="utf-8"))
    base = Path(paths["experiment"]).parent
    fibers = [formats.load_space(base / ref) for ref in doc["fibers"]]
    limit = formats.load_space(base / doc["limit"])
    interval = tuple(map(float, doc["interval"]))
    kwargs = {}
    if doc.get("mode") == "warped":
        iv = Interval(*interval)
        kwargs["warpings"] = [formats.warping_from_dict(w, iv) for w in doc["warpings"]]
        kwargs["warping_limit"] = formats.warping_from_dict(doc["warping_limit"], iv)
        kwargs["k_primes"] = doc.get("k_primes")
    rep = persistence_experiment(
        doc["mode"],
        fibers,
        limit,
        interval=interval,
        n_t=int(_override(cfg, "n_t_override", doc.get("n_t", 50))),
        seed=int(_override(cfg, "seed_override", doc.get("seed", seed))),
        n_triangles=int(doc.get("n_triangles", 8)),
        n_probe=int(doc.get("n_probe", 5)),
        tol=float(_override(cfg, "tol_override", doc.get("tol", 0.05))),
        side_cap=doc.get("side_cap"),
        k_prime=float(doc.get("k_prime", 0.0)),
        **kwargs,
    )
    tab = rep.cross_tab()
    formats.write_table_csv(
        out / "persist.csv",
        ["label", "fiber_k", "fiber_pass", "cone_pass"],
        [
            (r["label"], r["fiber_k"], int(r["fiber_pass"]), -1 if r["cone_pass"] is None else int(r["cone_pass"]))
            for r in tab
        ],
    )
    agree = all(
        r["cone_pass"] is None or r["fiber_pass"] == r["cone_pass"] for r in tab
    )
    formats.write_report_json(
        out / "report.json",
        {
            "mode": rep.mode,
            "cross_tab": tab,
            "gh_precondition": rep.gh_precondition,
            "concavity": [(lbl, v.passed, v.witness) for lbl, v in rep.concavity],
            "fiber_bounds": rep.fiber_bounds,
            "quadruple_subsampled_to": [(lbl, qv.subsampled_to) for lbl, _, qv in rep.fiber_quadruples],
            "cone_n_t": rep.cone_n_t,
            "agreement": agree,
            "notes": rep.notes,
        },
    )
    return OK if agree else CHECK_FAILED


RUNNERS = {
    "validate": run_validate,
    "nulldist": run_nulldist,
    "timesep": run_timesep,
    "nullcurve": run_nullcurve,
    "converge": run_converge,
    "gh": run_gh,
    "net": run_net,
    "curvature": run_curvature,
    "persist": run_persist,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nulldist", description="null-distance geometry scenario runner"
    )
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--n-t", type=int, default=None, help="override the t-grid resolution")
    parser.add_argument("--tol", type=float, default=None, help="override the tolerance")
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse scenario {args.config}: {exc}", file=sys.stderr)
        return PARSE_ERROR

    command = cfg.get("command")
    if command not in RUNNERS:
        print(f"error: unknown command {command!r} in {args.config}", file=sys.stderr)
        return PARSE_ERROR

    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    out = Path(args.out or cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    cfg["n_t_override"] = args.n_t
    cfg["tol_override"] = args.tol
    cfg["seed_override"] = args.seed

    paths = {}
    try:
        for name, ref in cfg.get("inputs", {}).items():
            p = cfg_path.parent / ref
            if not p.exists():
                print(f"error: input {name}={p} does not exist", file=sys.stderr)
                return PARSE_ERROR
            paths[name] = p
        status = RUNNERS[command](cfg, paths, out, seed)
    except (InvalidInputError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ENGINE_ERROR

    formats.write_manifest(
        out / "manifest.json",
        command,
        paths,
        {
            "params": cfg.get("params", {}),
            "n_t": args.n_t,
            "tol": args.tol,
        },
        seed,
    )
    print(f"{command}: status {status}, artifacts in {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
