#!/usr/bin/env python3
"""Product-cone closed-form experiment.

For unit warping over a path fiber the null distance has the closed form
max(d, |dt|); this sweep measures the worst discretization error on causal
and non-causal pairs across grid resolutions and writes a CSV table.
"""

import argparse
import time
from pathlib import Path

import numpy as np

import nulldist as nd
from nulldist.cone import PAIR_BUDGET, stratified_sources


def run(n_t: int, factor: float, budget: float, seed: int):
    iv = nd.Interval(0.0, 1.0)
    fiber = nd.path_space(n_t + 1, 1.0)
    grid = nd.ConeGrid(iv, fiber, nd.WarpingFunction.constant(factor, iv), n_t)
    srcs = stratified_sources(grid, budget, seed)
    res = nd.null_distance(grid, sources=srcs)
    lv = np.repeat(np.arange(grid.n_levels), grid.m)
    fb = np.tile(np.arange(grid.m), grid.n_levels)
    worst_c = worst_nc = 0.0
    for s, (i0, j0) in enumerate(res.sources):
        dt = np.abs(grid.t_levels[lv] - grid.t_levels[i0])
        dd = fiber.dist[j0, fb]
        causal = grid.causal_row(i0, j0).ravel()
        err = np.abs(res.rows[s] - np.maximum(factor * dd, dt))
        worst_c = max(worst_c, float(err[causal].max()))
        worst_nc = max(worst_nc, float(err[~causal].max()))
    return worst_c, worst_nc, len(srcs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", type=int, nargs="*", default=[50, 100, 200])
    ap.add_argument("--factor", type=float, default=1.0, help="constant warping value")
    ap.add_argument("--budget", type=float, default=PAIR_BUDGET, help="checked-pair budget")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("out/product_oracle.csv"))
    args = ap.parse_args()

    args.out.parent.mkdir(parents=True, exist_ok=True)
    rows = ["n_t,causal_err,noncausal_err,bound_2_over_nt,sources,seconds"]
    for n_t in args.resolutions:
        t0 = time.monotonic()
        worst_c, worst_nc, n_src = run(n_t, args.factor, args.budget, args.seed)
        rows.append(
            f"{n_t},{worst_c:.17g},{worst_nc:.17g},{2.0 / n_t:.17g},{n_src},"
            f"{time.monotonic() - t0:.2f}"
        )
        print(rows[-1])
    args.out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
