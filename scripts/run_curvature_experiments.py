#!/usr/bin/env python3
"""Curvature-persistence experiments.

Three runs: flat path fibers under unit warping (everything passes), a
branching tripod fiber (fiber and cone checks fail together), and the
cosh-warped mode with circle fibers at the induced bound K' = 1. Emits one
CSV row per fiber/cone verdict pair.
"""

import argparse
from pathlib import Path

import nulldist as nd


def rows_from(rep, tag):
    out = []
    for r in rep.cross_tab():
        out.append(
            f"{tag},{r['label']},{r['fiber_k']:.17g},{int(r['fiber_pass'])},"
            f"{-1 if r['cone_pass'] is None else int(r['cone_pass'])}"
        )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", type=Path, default=Path("out/curvature_experiments.csv"))
    args = ap.parse_args()

    rows = ["experiment,label,fiber_k,fiber_pass,cone_pass"]

    flat = nd.persistence_experiment(
        "product",
        [nd.path_space(n, 1.0) for n in (11, 21, 41)],
        nd.path_space(81, 1.0),
        interval=(0.0, 3.0),
        n_t=60,
        seed=args.seed,
        n_triangles=4,
        n_probe=4,
        tol=0.25,
    )
    rows += rows_from(flat, "flat-product")

    tripod = nd.persistence_experiment(
        "product",
        [nd.tripod_space(25, 1.0)],
        nd.tripod_space(50, 1.0),
        interval=(0.0, 5.0),
        n_t=100,
        seed=args.seed,
        n_triangles=6,
        n_probe=5,
        tol=0.05,
    )
    rows += rows_from(tripod, "tripod-product")

    warped = nd.persistence_experiment(
        "warped",
        [nd.circle_space(n, 4.0) for n in (500, 1000)],
        nd.circle_space(1000, 4.0),
        interval=(0.0, 1.0),
        n_t=50,
        seed=args.seed,
        n_triangles=4,
        n_probe=4,
        tol=0.15,
        k_prime=1.0,
        warpings=[nd.WarpingFunction.cosh_type(1.0, 1.0, nd.Interval(0.0, 1.0))] * 2,
        warping_limit=nd.WarpingFunction.cosh_type(1.0, 1.0, nd.Interval(0.0, 1.0)),
    )
    rows += rows_from(warped, "cosh-warped")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for line in rows:
        print(line)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
