"""The four workloads: inputs made from a seed, timed operations, and checks.

`build(name, seed, work)` generates the inputs (this is set-up, not timed)
and returns the operations of one pass. An operation's `run` is the timed
call into nulldist; `check` compares its output with an oracle from
`oracles.py` or with a property the method must have, and raises `Wrong` on
a disagreement; `digest` fingerprints the output so that later passes of the
same run can be compared with the first; `status` names a failure the
program reports itself (a CLI exit status other than 0, or a verdict that
the inputs make known). An output with a failing status is still checked,
so a check covers only what must hold whatever the program's verdict.

Operations reach nulldist through module attributes (`cone.null_distance`),
so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from nulldist import cli, cone, curvature, lpls, metric_core, nullcurve
from nulldist.warping import Interval, WarpingFunction

import oracles as orc
from oracles import require

WORKLOADS = ("cli-scenarios", "null-sweeps", "timelike-triangles", "finite-spaces")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str]
    status: Callable[[Any], Optional[str]] = lambda result: None


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


def text_digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def digest_dir(path: Path) -> str:
    """Hash of every artifact a CLI run wrote, names included."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0")
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def level_fiber(n_levels: int, m: int):
    return np.repeat(np.arange(n_levels), m), np.tile(np.arange(m), n_levels)


def check_null_rows(rows, sources, t, g, dist, c: float, upper: float) -> None:
    """Product-cone checks of null-distance rows (constant warping c): at or
    above max(c d, |dt|) within 1e-12, at most `upper` above it, and equal
    to |dt| on causal pairs. "Equal" allows 1e-12: a sweep may reach a
    causal pair along a chain of edges whose float sum of t-gaps lands an
    ulp below the direct gap."""
    lv, fb = level_fiber(t.size, dist.shape[0])
    for s, (i0, j0) in enumerate(sources):
        row = rows[s]
        dt = t[lv] - t[i0]
        d = dist[j0, fb]
        oracle = orc.product_null_distance(c, dt, d)
        gap = row - oracle
        require(gap.min() >= -1e-12, f"source {(i0, j0)}: below max(c d, |dt|) by {-gap.min():.3g}")
        require(gap.max() <= upper, f"source {(i0, j0)}: {gap.max():.3g} above max(c d, |dt|)")
        causal = d <= np.abs(g[lv] - g[i0]) + 1e-12
        err = np.abs(row[causal] - np.abs(dt[causal]))
        require(err.max() <= 1e-12, f"source {(i0, j0)}: causal pair {err.max():.3g} from |dt|")


def check_source_metric(rows, sources, m: int) -> None:
    """Symmetry and triangle inequality through every computed source."""
    node = [i * m + j for i, j in sources]
    sub = rows[:, node]
    require(np.max(np.abs(sub - sub.T)) <= 1e-12, "null distance not symmetric")
    for a in range(len(sources)):
        via = sub[a][:, None] + rows  # d(p_a, p_b) + d(p_b, x)
        require(
            np.all(rows[a][None, :] <= via + 1e-12), f"triangle inequality fails from {sources[a]}"
        )


def distinct_points(rng, count: int, n_levels: int, m: int, max_level: Optional[int] = None):
    top = n_levels if max_level is None else max_level + 1
    picks = rng.choice(top * m, size=count, replace=False)
    return [(int(k // m), int(k % m)) for k in picks]


def unit_path(m: int) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, m)
    return np.abs(xs[:, None] - xs[None, :])


# ---------------------------------------------------------------------------
# cli-scenarios


def _write_matrix_csv(path: Path, dist: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(str(i) for i in range(dist.shape[0])) + "\n")
        for row in dist:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def iter_long_rows(path: Path, row_labels, col_labels, rng):
    """Rows of a long-form CSV matrix, one at a time, so that checking a
    large matrix holds no more than one row. Checks the header, the line
    count and the ids of a seeded sample of lines."""
    n_c = len(col_labels)
    probe = set(rng.choice(len(row_labels) * n_c, size=2000).tolist())
    with open(path, encoding="utf-8") as fh:
        require(fh.readline() == "row_id,col_id,value\n", f"{path.name}: bad header")
        for r, rid in enumerate(row_labels):
            lines = list(itertools.islice(fh, n_c))
            require(len(lines) == n_c, f"{path.name}: row {rid} has {len(lines)} entries")
            for k in probe.intersection(range(r * n_c, (r + 1) * n_c)):
                want = f"{rid},{col_labels[k % n_c]},"
                require(lines[k % n_c].startswith(want), f"{path.name}: line {k + 2} ids")
            yield r, np.array([float(ln[ln.rindex(",") + 1 :]) for ln in lines])
        require(fh.readline() == "", f"{path.name}: lines after the last row")


def _cli_op(name: str, scenario: Path, out: Path, check) -> Op:
    def run():
        for f in out.glob("*"):
            f.unlink()
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's one status line
            return cli.main(["--config", str(scenario), "--out", str(out)])

    def status(code):
        return None if code == 0 else f"exit status {code}"

    return Op(name, run, lambda code: check(out), lambda code: digest_dir(out), status)


def cli_scenarios(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    n_t, m = 40, 41
    t = np.linspace(0.0, 1.0, n_t + 1)
    dist = unit_path(m)
    labels = [f"{i}:{j}" for i in range(n_t + 1) for j in range(m)]
    _write_matrix_csv(work / "fiber.csv", dist)
    const1 = {"kind": "constant", "params": {"value": 1.0}}
    _write_json(work / "cone.json", {"interval": [0.0, 1.0], "n_t": n_t, "fiber": "fiber.csv", "warping": const1})

    # README sample sequence on a 21-point fiber: 861 grid points, so every
    # pair is checked and no source sampler is involved
    _write_matrix_csv(work / "fiber21.csv", unit_path(21))
    _write_json(work / "cone21.json", {"interval": [0.0, 1.0], "n_t": 40, "fiber": "fiber21.csv", "warping": const1})
    _write_json(work / "sequence.json", {
        "cone": "cone21.json",
        "limit": const1,
        "family": [{"kind": "constant", "params": {"value": v}} for v in (1.1, 1.01)],
        "lower_bound": 0.9,
    })

    net_x = np.sort(rng.random(300))
    net_d = np.abs(net_x[:, None] - net_x[None, :])
    _write_matrix_csv(work / "net_fiber.csv", net_d)
    eps = float(rng.uniform(0.02, 0.05))

    n_graph = 24
    edges = [(k, (k + 1) % n_graph) for k in range(n_graph)]
    edges += [tuple(map(int, rng.choice(n_graph, 2, replace=False))) for _ in range(30)]
    weights = rng.uniform(0.5, 2.0, len(edges))
    (work / "edges.csv").write_text(
        "src,dst,weight\n" + "".join(f"{a},{b},{float(w)!r}\n" for (a, b), w in zip(edges, weights)),
        encoding="utf-8",
    )
    st, sx = orc.diamond_sprinkle(rng, 40)
    causal, chrono, rho = orc.minkowski_relations(st, sx)
    euclid = np.hypot(st[:, None] - st[None, :], sx[:, None] - sx[None, :])
    _write_json(work / "pls.json", {
        "points": list(range(st.size)),
        "dist": euclid.tolist(),
        "causal": causal.astype(int).tolist(),
        "chrono": chrono.astype(int).tolist(),
        "rho": rho.tolist(),
        "tau": st.tolist(),
    })

    # README curvature experiment, as in scripts/make_inputs.py: a fixed
    # input whose sampler seed (7) is part of the experiment file
    _write_json(work / "curvature.json", {
        "interval": [0.0, 2.0], "n_t": n_t, "fiber": "fiber.csv", "warping": const1,
        "bound": 0.0, "direction": "lower", "n_triangles": 5, "n_probe": 4, "tol": 0.1, "seed": 7,
    })
    t_curv = np.linspace(0.0, 2.0, n_t + 1)

    ts_sources = distinct_points(rng, 6, n_t + 1, m, max_level=30)
    p_curve, q_curve = distinct_points(rng, 2, n_t + 1, m)
    scenarios = {
        "nulldist": ({"cone": "cone.json"}, {"sources": "all"}),
        "timesep": ({"cone": "cone.json"}, {"sources": [list(s) for s in ts_sources]}),
        "nullcurve": ({"cone": "cone.json"}, {"p": list(p_curve), "q": list(q_curve)}),
        "converge": ({"scenario": "sequence.json"}, {}),
        "curvature": ({"experiment": "curvature.json"}, {}),
        "net": ({"space": "net_fiber.csv"}, {"eps": eps}),
        "validate": ({"space": "edges.csv", "pls": "pls.json"}, {}),
    }
    outs = {}
    for cmd, (inputs, params) in scenarios.items():
        _write_json(work / f"scenario_{cmd}.json", {
            "command": cmd, "inputs": inputs, "params": params, "seed": 1, "output_dir": f"out_{cmd}",
        })
        outs[cmd] = work / f"out_{cmd}"
        outs[cmd].mkdir(exist_ok=True)

    def check_nulldist(out: Path):
        # every entry against the product formula; symmetry and the triangle
        # inequality through 64 seeded sources (their rows and columns)
        sources = [(i, j) for i in range(n_t + 1) for j in range(m)]
        keep = np.sort(rng.choice(len(sources), size=64, replace=False))
        kept_rows = np.empty((keep.size, len(sources)))
        kept_cols = np.empty((len(sources), keep.size))
        for r, row in iter_long_rows(out / "nulldist.csv", labels, labels, rng):
            check_null_rows(row[None, :], [sources[r]], t, t, dist, 1.0, 2.0 / n_t)
            kept_cols[r] = row[keep]
            hit = np.searchsorted(keep, r)
            if hit < keep.size and keep[hit] == r:
                kept_rows[hit] = row
        require(np.max(np.abs(kept_rows - kept_cols.T)) <= 1e-12, "full matrix not symmetric")
        check_source_metric(kept_rows, [sources[k] for k in keep], m)
        report = _read_json(out / "report.json")
        require(not any(report["violations"].values()), "report lists guarantee violations")

    def check_timesep(out: Path):
        src_labels = [f"{i}:{j}" for i, j in ts_sources]
        rows = np.array([row for _, row in iter_long_rows(out / "timesep.csv", src_labels, labels, rng)])
        lv, fb = level_fiber(n_t + 1, m)
        for s, (i0, j0) in enumerate(ts_sources):
            dt, d = t[lv] - t[i0], dist[j0, fb]
            bound = orc.minkowski_separation(dt, d)
            require(np.all(rows[s] <= bound + 1e-12), f"timesep above Minkowski from {(i0, j0)}")
            require(np.all(rows[s][d >= dt - 1e-12] == 0.0), f"positive timesep off the chronological future of {(i0, j0)}")
        for a, p in enumerate(ts_sources):
            for b, q in enumerate(ts_sources):
                via = rows[a, q[0] * m + q[1]]
                if via > 0:
                    later = rows[b] > 0
                    slack = rows[a][later] - via - rows[b][later]
                    require(slack.min() >= -1e-12, f"reverse triangle inequality fails through {q}")

    def check_nullcurve(out: Path):
        with open(out / "nullcurve.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            require(header == ["t_start", "t_end", "u_start", "u_end", "direction"], "nullcurve header")
            segs = np.array([[float(v) for v in ln.split(",")] for ln in fh], ndmin=2)
        check_null_curve_segments(segs, t[p_curve[0]], t[q_curve[0]], dist[p_curve[1], q_curve[1]],
                                  lambda s: s)

    def check_converge(out: Path):
        # the verdict (monotone_ok, sandwich_ok) is the exit status
        report = _read_json(out / "report.json")
        eps_seen = sorted(mm["eps"] for mm in report["members"])
        require(np.allclose(eps_seen, [0.01, 0.1], atol=1e-12, rtol=0.0), "sup deviations of the constants")

    def check_curvature(out: Path):
        # the verdicts are the exit status; here the sampled triangles and
        # the worst probe pair are checked on the flat cone
        with open(out / "curvature.csv", encoding="utf-8") as fh:
            require(fh.readline().strip() == "triangle,bound,direction,passed,margin", "curvature header")
            rows = [ln.strip().split(",") for ln in fh]
        report = _read_json(out / "report.json")
        require(len(rows) == 5 and report["sampling"]["found"] == 5, f"found {len(rows)} of 5 triangles")
        require(all(r[1] == "0" and r[2] == "lower" for r in rows), "curvature rows bound or direction")
        w = report["worst_witness"]
        require(w["margin"] == min(float(r[4]) for r in rows), "worst witness is not the lowest margin")
        x, y, z = w["triangle"]
        for u, v in ((x, y), (y, z), (x, z)):
            require(dist[u[1], v[1]] < t_curv[v[0]] - t_curv[u[0]] - 1e-12, f"vertices {u}, {v} not chronological")
        check_witness(w, t_curv, dist, "lower")

    def check_net(out: Path):
        with open(out / "net.csv", encoding="utf-8") as fh:
            require(fh.readline().strip() == "center_index", "net header")
            centers = [int(ln) for ln in fh]
        cover, sep = orc.net_radii(net_d, centers)
        report = _read_json(out / "report.json")
        require(cover <= eps, f"net leaves a point {cover:.3g} from every center")
        require(sep > eps, f"two centers only {sep:.3g} apart")
        require(abs(report["covering_radius_achieved"] - cover) <= 1e-15, "reported covering radius")
        require(report["n_centers"] == len(centers) and report["verified"], "net report")

    def check_validate(out: Path):
        report = _read_json(out / "report.json")
        require(report["metric"] == [] and report["pre_length"] == [], "valid inputs reported invalid")
        require(report["time_function"]["passed"], "t reported not a time function")

    checks = {
        "nulldist": check_nulldist,
        "timesep": check_timesep,
        "nullcurve": check_nullcurve,
        "converge": check_converge,
        "curvature": check_curvature,
        "net": check_net,
        "validate": check_validate,
    }
    return [
        _cli_op(f"cli.{cmd}", work / f"scenario_{cmd}.json", outs[cmd], checks[cmd])
        for cmd in scenarios
    ]


def check_witness(w, t, dist, direction: str) -> None:
    """A comparison's worst probe pair: its cone separation lies in [0, the
    Minkowski separation] and its margin is the model value minus the cone
    value (lower bound) or the reverse (upper bound)."""
    p, q = w["probes"]
    lo, hi = (p, q) if p[0] <= q[0] else (q, p)
    bound = float(orc.minkowski_separation(t[hi[0]] - t[lo[0]], dist[lo[1], hi[1]]))
    require(0.0 <= w["rho_cone"] <= bound + 1e-12,
            f"probe separation {w['rho_cone']!r} outside [0, Minkowski {bound!r}]")
    sign = 1.0 if direction == "lower" else -1.0
    require(abs(w["margin"] - sign * (w["rho_model"] - w["rho_cone"])) <= 1e-12, "margin")


def check_null_curve_segments(segs, t_p: float, t_q: float, fiber_d: float, G) -> None:
    """A piecewise null curve from (t_p, u=0) to (t_q, u=d): every piece moves
    the fiber coordinate by exactly the change of G, in the direction it
    states, and the pieces join."""
    require(segs.shape[0] >= 1 and segs.shape[1] == 5, "null curve has no segments")
    t0, t1, u0, u1, direction = segs.T
    dG = G(t1) - G(t0)
    require(np.all(np.abs(np.abs(u1 - u0) - np.abs(dG)) <= 1e-9), "a piece is not null")
    require(np.all((direction == 1) & (t1 >= t0) | (direction == -1) & (t1 <= t0)), "piece direction")
    require(np.all(np.abs(t0[1:] - t1[:-1]) <= 1e-12) and np.all(np.abs(u0[1:] - u1[:-1]) <= 1e-12),
            "pieces do not join")
    require(abs(t0[0] - t_p) <= 1e-12 and abs(u0[0]) <= 1e-12, "curve start")
    require(abs(t1[-1] - t_q) <= 1e-6 and abs(u1[-1] - fiber_d) <= 1e-9, "curve end")


# ---------------------------------------------------------------------------
# null-sweeps


def null_sweeps(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    iv = Interval(0.0, 1.0)
    const1 = WarpingFunction.constant(1.0, iv)

    n_big = 200
    big_fiber = metric_core.path_space(n_big + 1, 1.0)
    big_sources = distinct_points(rng, 24, n_big + 1, n_big + 1)
    t_big = np.linspace(0.0, 1.0, n_big + 1)
    d_big = unit_path(n_big + 1)

    def product_run():
        grid = cone.ConeGrid(iv, big_fiber, const1, n_big)
        res = cone.null_distance(grid, sources=big_sources)
        return res, cone.null_distance_guarantees(grid, res)

    def product_check(out):
        res, rep = out
        check_null_rows(res.rows, big_sources, t_big, t_big, d_big, 1.0, 2.0 / n_big)
        check_source_metric(res.rows, big_sources, n_big + 1)
        require(rep.ok, f"guarantee report flags {sorted(k for k, v in rep.violations.items() if v)}")

    # dyadic unit cone: 2t + 5 must double the phi = t rows bitwise
    n_phi = 64
    phi_fiber = metric_core.path_space(n_phi + 1, 1.0)
    phi_sources = distinct_points(rng, 64, n_phi + 1, n_phi + 1)
    t_phi = np.linspace(0.0, 1.0, n_phi + 1)
    d_phi = unit_path(n_phi + 1)
    lv, fb = level_fiber(n_phi + 1, n_phi + 1)
    last = {}

    def phi_op(name, phi, dphi):
        def run():
            grid = cone.ConeGrid(iv, phi_fiber, const1, n_phi)
            return cone.null_distance_phi(grid, phi, sources=phi_sources)

        def check(out):
            res, rep = out
            c = orc.phi_constant(dphi, lambda s: np.ones_like(s), 0.0, 1.0)
            pl = phi(t_phi)
            for s, (i0, j0) in enumerate(phi_sources):
                row = res.rows[s]
                dphi_gap = np.abs(pl[lv] - pl[i0])
                gap_g = np.abs(t_phi[lv] - t_phi[i0])
                d = d_phi[j0, fb]
                causal = d <= gap_g + 1e-12
                require(np.max(np.abs(row[causal] - dphi_gap[causal])) <= 1e-12,
                        f"{name}: causal pair not exact from {(i0, j0)}")
                bound = dphi_gap + (d - gap_g) / c
                require(np.all(row[~causal] >= bound[~causal] - 1e-12),
                        f"{name}: gap bound fails from {(i0, j0)}")
            require(rep.causal_exact and rep.gap_bound_holds, f"{name}: report flags")
            if name == "phi=2t+5":
                require(np.array_equal(res.rows, 2.0 * last["phi=t"]), "2t+5 does not double the phi = t rows")
            last[name] = res.rows

        return Op(f"cone.null_distance_phi[{name}]", run, check, lambda out: digest_arrays(out[0].rows))

    def product_digest(out):
        return digest_arrays(out[0].rows)

    ops = [
        Op("cone.null_distance[product n_t=200]", product_run, product_check, product_digest),
        phi_op("phi=t", lambda s: s, lambda s: np.ones_like(s)),
        phi_op("phi=t+t^2/2", lambda s: s + 0.5 * s * s, lambda s: 1.0 + s),
        phi_op("phi=2t+5", lambda s: 2.0 * s + 5.0, lambda s: np.full_like(s, 2.0)),
    ]

    # one small cone per non-constant warping kind, against Floyd-Warshall
    # over the causal graph that the closed-form G defines
    kinds = [
        ("affine", {"intercept": float(rng.uniform(0.8, 1.2)), "slope": float(rng.uniform(0.3, 1.0))}),
        ("exponential", {"amplitude": float(rng.uniform(0.8, 1.2)), "rate": float(rng.uniform(-0.8, 0.8))}),
        ("cosh", {"amplitude": float(rng.uniform(0.8, 1.2)), "rate": float(rng.uniform(0.5, 1.5))}),
    ]
    for kind, params in kinds:
        ops.append(_small_cone_op(kind, params, rng))
    return ops


def _small_cone_op(kind: str, params: dict, rng) -> Op:
    iv = Interval(0.0, 1.0)
    n_t = 16
    xs = np.sort(rng.uniform(0.0, 0.8, 12))
    dist = np.abs(xs[:, None] - xs[None, :])
    fiber = metric_core.FiniteLengthSpace(tuple(range(xs.size)), dist)
    make = {"affine": WarpingFunction.affine, "exponential": WarpingFunction.exponential,
            "cosh": WarpingFunction.cosh_type}[kind]
    warping = make(*params.values(), iv)
    t = np.linspace(0.0, 1.0, n_t + 1)

    def run():
        return cone.null_distance(cone.ConeGrid(iv, fiber, warping, n_t))

    def check(res):
        oracle = orc.cone_shortest_paths(t, orc.warp_G(kind, params, 0.0, t), dist)
        err = float(np.max(np.abs(res.rows - oracle)))
        require(err <= 1e-12, f"{kind} cone: {err:.3g} from shortest paths over the exact causal graph")

    return Op(f"cone.null_distance[{kind}]", run, check, lambda res: digest_arrays(res.rows))


# ---------------------------------------------------------------------------
# timelike-triangles


def check_dp_path(path, p, q, t, dist) -> np.ndarray:
    """A DP maximizer goes up one level per step along causal moves of a
    unit-warping cone; returns the Minkowski lengths of its steps."""
    require(tuple(path[0]) == tuple(p) and tuple(path[-1]) == tuple(q), "side path endpoints")
    a = np.asarray(path)
    require(np.all(np.diff(a[:, 0]) == 1), "side path skips a level")
    dt = t[a[1:, 0]] - t[a[:-1, 0]]
    d = dist[a[:-1, 1], a[1:, 1]]
    require(np.all(d <= dt + 1e-12), "side path leaves the causal future")
    return orc.minkowski_separation(dt, d)


def check_triangle(tri, t, dist) -> None:
    verts = (tri.x, tri.y, tri.z)
    for (u, v), side in zip(((tri.x, tri.y), (tri.y, tri.z), (tri.x, tri.z)), (tri.a, tri.b, tri.c)):
        dt, d = t[v[0]] - t[u[0]], dist[u[1], v[1]]
        require(d < dt - 1e-12, f"vertices {u}, {v} not chronological")
        require(0.0 < side <= float(orc.minkowski_separation(dt, d)) + 1e-12,
                f"side {u}-{v} = {side!r} outside (0, Minkowski]")
    require(tri.c >= tri.a + tri.b - 1e-12, f"reverse triangle inequality fails on {verts}")
    for name, (u, v), side in (("xy", (tri.x, tri.y), tri.a), ("yz", (tri.y, tri.z), tri.b),
                               ("xz", (tri.x, tri.z), tri.c)):
        # A step within the causal slack of the null cone counts zero in the
        # DP but up to sqrt(2 dt slack) ~ 3e-8 in the path's accumulated
        # length (measured 2e-8), so lengths agree to 1e-6, not to rounding.
        path, acc = tri.side_paths[name]
        steps = check_dp_path(path, u, v, t, dist)
        require(abs(acc[-1] - side) <= 1e-6 and abs(steps.sum() - side) <= 1e-6,
                f"side {name} length does not match its path")


def timelike_triangles(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    iv3 = Interval(0.0, 3.0)
    flat_fiber = metric_core.path_space(201, 1.0)
    flat_w = WarpingFunction.constant(1.0, iv3)
    t60 = np.linspace(0.0, 3.0, 61)
    d201 = unit_path(201)
    # The sampler's own seed stays fixed (criterion 11 uses 42): its cost
    # follows the triangles it happens to draw, 2.6 s to 4.5 s over seeds
    # 1-5 for six triangles, which would swamp any change worth measuring.
    sample_seed = 42
    n_tri = 6
    state = {}

    def sample_run():
        grid = cone.ConeGrid(iv3, flat_fiber, flat_w, 60)
        tris, diag = curvature.sample_timelike_triangles(grid, n_tri, sample_seed, 2.0)
        state["grid"], state["tris"] = grid, tris
        return tris, diag

    def sample_check(out):
        tris, diag = out
        require(len(tris) == n_tri and diag["found"] == n_tri, f"found {len(tris)} of {n_tri} triangles")
        for tri in tris:
            check_triangle(tri, t60, d201)
            require(max(tri.a, tri.b, tri.c) < 2.0, "triangle above the size bound")

    def tri_digest(tri):
        return [tri.x, tri.y, tri.z, tri.a, tri.b, tri.c,
                [(k, v[0], v[1].tolist()) for k, v in sorted(tri.side_paths.items())]]

    def compare_run():
        grid, cache = state["grid"], {}
        return [
            curvature.triangle_comparison(grid, tri, 0.0, direction, 5, 0.05, cache)
            for tri in state["tris"] for direction in ("lower", "upper")
        ]

    def compare_check(verdicts):
        for v in verdicts:
            require(v.n_probes == 5, f"{v.n_probes} probes")
            check_witness(v.worst_witness, t60, d201, v.direction)

    def compare_status(verdicts):
        # a flat cone must pass K = 0 both ways (it does at sampler seed 42)
        bad = [f"{k // 2}:{v.direction}" for k, v in enumerate(verdicts) if not v.passed]
        return f"flat-cone triangles fail K = 0: {bad}" if bad else None

    # explicit tripod triangle: tips of the three legs at t = 0, 2.5, 5
    iv5 = Interval(0.0, 5.0)
    tripod = metric_core.tripod_space(50, 1.0)
    tripod_w = WarpingFunction.constant(1.0, iv5)
    t100 = np.linspace(0.0, 5.0, 101)

    def tripod_run():
        grid = cone.ConeGrid(iv5, tripod, tripod_w, 100)
        tri = curvature._triangle_from_vertices(grid, (0, 50), (50, 100), (100, 150))
        return tri, curvature.triangle_comparison(grid, tri, 0.0, "lower", 5, 0.05)

    def tripod_check(out):
        tri, verdict = out
        require(tri is not None, "tripod triangle not timelike")
        check_triangle(tri, t100, tripod.dist)
        require(not verdict.passed, "tripod triangle passes the K = 0 lower bound")

    # one time-separation row at m = 501
    m_row = 501
    row_fiber = metric_core.path_space(m_row, 1.0)
    iv1 = Interval(0.0, 1.0)
    row_w = WarpingFunction.constant(1.0, iv1)
    row_src = (0, int(rng.integers(0, m_row)))
    t200 = np.linspace(0.0, 1.0, 201)
    d501 = unit_path(m_row)

    def row_run():
        grid = cone.ConeGrid(iv1, row_fiber, row_w, 200)
        return cone.time_separation(grid, sources=[row_src])

    def row_check(res):
        lv, fb = level_fiber(201, m_row)
        dt, d = t200[lv] - t200[row_src[0]], d501[row_src[1], fb]
        row = res.rows[0]
        require(np.all(row <= orc.minkowski_separation(dt, d) + 1e-12), "time separation above Minkowski")
        require(np.all(row[d >= dt - 1e-12] == 0.0), "positive time separation off the chronological future")

    return [
        Op("curvature.sample_timelike_triangles", sample_run, sample_check,
           lambda out: text_digest([tri_digest(x) for x in out[0]])),
        Op("curvature.triangle_comparison", compare_run, compare_check,
           lambda vs: text_digest([(v.passed, v.worst_witness) for v in vs]), compare_status),
        Op("curvature.triangle_comparison[tripod]", tripod_run, tripod_check,
           lambda out: text_digest((tri_digest(out[0]), out[1].worst_witness))),
        Op("cone.time_separation[m=501]", row_run, row_check, lambda res: digest_arrays(res.rows)),
    ]


# ---------------------------------------------------------------------------
# finite-spaces


def finite_spaces(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)

    # Minkowski diamond sprinkle with tau = t
    st, sx = orc.diamond_sprinkle(rng, 300)
    causal, chrono, rho = orc.minkowski_relations(st, sx)
    euclid = np.hypot(st[:, None] - st[None, :], sx[:, None] - sx[None, :])
    base = metric_core.FiniteLengthSpace(tuple(range(st.size)), euclid)
    pls = lpls.DiscretePreLengthSpace(base, causal, chrono, rho)
    triples = list(zip(*rng.integers(0, st.size, (3, 5000))))

    def nd_check(d):
        asym, excess = orc.metric_violations(d, triples)
        require(np.all(np.isfinite(d)), "sprinkle null distance has infinite entries")
        require(asym <= 1e-12 and excess <= 1e-12, f"not a metric: asymmetry {asym:.3g}, triangle {excess:.3g}")
        gaps = np.abs(st[None, :] - st[:, None])
        require(np.all(d >= gaps - 1e-12), "below |dt|")
        require(np.max(np.abs(d - gaps)[causal]) <= 1e-12, "causal pair not |dt|")

    def rho_check(out):
        t_mat, mismatch = out
        strict = causal & ~np.eye(st.size, dtype=bool)
        require(not mismatch.any(), "longest chains disagree with rho")
        require(np.max(np.abs(t_mat - rho)[strict]) <= 1e-12, "longest chain differs from Minkowski rho")

    # affine cone 41 x 41 for the dense Dijkstra
    iv = Interval(0.0, 1.0)
    aff = {"intercept": 1.0, "slope": float(rng.uniform(0.5, 1.5))}
    aff_w = WarpingFunction.affine(aff["intercept"], aff["slope"], iv)
    fiber41 = metric_core.path_space(41, 1.0)
    d41 = unit_path(41)
    t40 = np.linspace(0.0, 1.0, 41)
    g40 = orc.warp_G("affine", aff, 0.0, t40)
    # opposite ends of the fiber (d = 1 > G(1) = log(1 + slope) / slope, so
    # never causal): the search settles most of the grid whatever the levels,
    # which keeps its cost from following the seed
    pairs = [((int(i), 0), (int(k), 40)) for i, k in rng.integers(0, 41, (3, 2))]

    def minimizer_run():
        grid = cone.ConeGrid(iv, fiber41, aff_w, 40)
        return [cone.minimizer_analysis(grid, p, q) for p, q in pairs]

    def minimizer_check(results):
        for (p, q), res in zip(pairs, results):
            path = res.path
            require(tuple(path[0]) == p and tuple(path[-1]) == q, f"minimizer endpoints {p}->{q}")
            for u, v in zip(path, path[1:]):
                gap = abs(g40[v[0]] - g40[u[0]])
                require(d41[u[1], v[1]] <= gap + 1e-12, f"minimizer step {u}->{v} not causal")
            require(all(defect >= -1e-12 for _, defect in res.run_defects), "negative nullity defect")

    # null curves on a cosh cone
    cosh = {"amplitude": float(rng.uniform(0.8, 1.2)), "rate": float(rng.uniform(0.5, 1.5))}
    cosh_w = WarpingFunction.cosh_type(cosh["amplitude"], cosh["rate"], iv)
    fiber21 = metric_core.path_space(21, 0.5)
    t20 = np.linspace(0.0, 1.0, 21)
    # the same level and fiber offsets for every seed, so the number of
    # zigzag legs (and the cost) does not follow the seed
    curve_pairs = [((int(i), int(j)), (int(i) + 5, int(j) + 10)) for i, j in rng.integers(0, 11, (2, 2))]

    def curve_run():
        grid = cone.ConeGrid(iv, fiber21, cosh_w, 20)
        out = []
        for p, q in curve_pairs:
            curve = nullcurve.null_curve(grid, p, q)
            out.append((curve, nullcurve.verify_null_curve(grid, curve)))
        return out

    def curve_check(out):
        for (p, q), (curve, rep) in zip(curve_pairs, out):
            segs = np.array([(s.t_start, s.t_end, s.u_start, s.u_end, s.direction) for s in curve.segments])
            check_null_curve_segments(segs, t20[p[0]], t20[q[0]], fiber21.dist[p[1], q[1]],
                                      lambda s: orc.warp_G("cosh", cosh, 0.0, s))
            require(rep["n_segments"] == len(curve.segments), "verify_null_curve segment count")

    # tiny Gromov-Hausdorff pairs, exhaustive oracle
    def tiny_space(n):
        pts = rng.random((n, 2))
        d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
        return metric_core.FiniteLengthSpace(tuple(range(n)), d)

    gh_pairs = [(tiny_space(a), tiny_space(b)) for a, b in
                ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (2, 5), (2, 6), (6, 2), (1, 5))]
    gh_truth = [orc.brute_force_gh(a.dist, b.dist) for a, b in gh_pairs]

    def gh_check(values):
        for v, want in zip(values, gh_truth):
            require(abs(v - want) <= 1e-12, f"gh {v!r} against exhaustive {want!r}")

    # quadruple test: a tripod fails k = 0 by exactly pi; every quadruple of a
    # path is collinear, so its excess is 0 up to the rounding of arccos at
    # straight angles (a cosine off by 1e-16 moves the angle by ~1e-8), and
    # the path must pass k = 0
    tripod = metric_core.tripod_space(20, 1.0)
    line = metric_core.path_space(60, 3.0)

    def tripod_quad_check(v):
        require(not v.passed and abs(v.worst_excess - orc.tripod_hub_excess()) <= 1e-12,
                f"tripod excess {v.worst_excess!r} is not pi")

    def path_quad_status(v):
        return None if v.passed else f"a 60-point path fails k = 0 with excess {v.worst_excess:.3g}"

    def quad_digest(v):
        return text_digest((v.passed, v.worst_excess, v.worst_quadruple))

    # epsilon net on a long path with seeded spacing
    net_x = np.sort(rng.random(1000))
    net_d = net_x[:, None] - net_x[None, :]
    np.abs(net_d, out=net_d)
    net_space = metric_core.FiniteLengthSpace(tuple(range(net_x.size)), net_d)
    del net_d
    net_eps = float(rng.uniform(0.003, 0.006))

    def net_check(net):
        cover, sep = orc.net_radii(net_space.dist, net.center_indices)
        require(cover <= net_eps and sep > net_eps, f"net cover {cover:.3g}, separation {sep:.3g}")
        require(abs(net.covering_radius_achieved - cover) <= 1e-15, "reported covering radius")

    return [
        Op("lpls.null_distance_matrix", lambda: lpls.null_distance_matrix(pls, st), nd_check, digest_arrays),
        Op("lpls.rho_length_and_time_separation", lambda: lpls.rho_length_and_time_separation(pls),
           rho_check, lambda out: digest_arrays(*out)),
        Op("lpls.validate_pls", lambda: lpls.validate_pls(pls),
           lambda rep: require(rep.ok, f"valid sprinkle reported invalid: {rep.summary()[:200]}"),
           lambda rep: text_digest(rep.summary())),
        Op("cone.minimizer_analysis", minimizer_run, minimizer_check,
           lambda rs: text_digest([(r.path, r.run_defects) for r in rs])),
        Op("nullcurve.null_curve", curve_run, curve_check,
           lambda out: text_digest([(c.segments, sorted(r.items())) for c, r in out])),
        Op("metric_core.gh_distance_exact",
           lambda: [metric_core.gh_distance_exact(a, b).distance for a, b in gh_pairs], gh_check, text_digest),
        Op("metric_core.quadruple_curvature_check[tripod]",
           lambda: metric_core.quadruple_curvature_check(tripod, 0.0), tripod_quad_check, quad_digest),
        Op("metric_core.quadruple_curvature_check[path]",
           lambda: metric_core.quadruple_curvature_check(line, 0.0),
           lambda v: require(abs(v.worst_excess) <= 1e-6, f"path excess {v.worst_excess!r} is not 0"),
           quad_digest, path_quad_status),
        Op("metric_core.epsilon_net", lambda: metric_core.epsilon_net(net_space, net_eps), net_check,
           lambda net: text_digest((net.center_indices, net.covering_radius_achieved))),
    ]


MAKERS = {
    "cli-scenarios": cli_scenarios,
    "null-sweeps": null_sweeps,
    "timelike-triangles": timelike_triangles,
    "finite-spaces": finite_spaces,
}


def build(name: str, seed: int, work: Path) -> list[Op]:
    return MAKERS[name](seed, work)
