"""File formats used by the command-line runner.

CSV: comma-separated, UTF-8, LF line endings, mandatory header row; floats
serialized with 17 significant digits so they round-trip exactly. Matrices
are written in long form (row_id, col_id, value). JSON reports are written
with sorted keys; +inf is encoded as the string "inf".
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .lpls import DiscretePreLengthSpace
from .metric_core import FiniteLengthSpace, intrinsic_metric
from .warping import Interval, WarpingFunction

PathLike = Union[str, Path]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# metric spaces


def load_distance_matrix_csv(path: PathLike) -> FiniteLengthSpace:
    """Distance-matrix CSV: a header row of point ids, then the square matrix."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InvalidInputError(f"{path}: empty file")
    ids = [c.strip() for c in rows[0]]
    data = rows[1:]
    if len(data) != len(ids):
        raise InvalidInputError(
            f"{path}: expected {len(ids)} matrix rows, found {len(data)}"
        )
    try:
        mat = np.array([[float(c) for c in row] for row in data])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: non-numeric entry ({exc})") from exc
    return FiniteLengthSpace(tuple(ids), mat, "matrix-input")


def save_distance_matrix_csv(path: PathLike, space: FiniteLengthSpace) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(str(i) for i in space.point_ids) + "\n")
        for row in space.dist:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def load_edge_list_csv(path: PathLike) -> FiniteLengthSpace:
    """Edge-list CSV with header src,dst,weight; the metric is graph-induced."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != [
            "src",
            "dst",
            "weight",
        ]:
            raise InvalidInputError(f"{path}: header must be src,dst,weight")
        edges = []
        n = 0
        for row in reader:
            s, t, w = int(row["src"]), int(row["dst"]), float(row["weight"])
            edges.append((s, t, w))
            n = max(n, s + 1, t + 1)
    return intrinsic_metric(n, edges)


def load_space(path: PathLike) -> FiniteLengthSpace:
    """Dispatch on the header: edge lists start with src,dst,weight."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
    if [c.strip() for c in first.split(",")] == ["src", "dst", "weight"]:
        return load_edge_list_csv(path)
    return load_distance_matrix_csv(path)


# ---------------------------------------------------------------------------
# warpings and cones


def warping_from_dict(doc: dict, domain: Interval) -> WarpingFunction:
    kind = doc.get("kind")
    params = doc.get("params", {})
    if kind == "constant":
        return WarpingFunction.constant(params["value"], domain)
    if kind == "affine":
        return WarpingFunction.affine(params["intercept"], params["slope"], domain)
    if kind == "exponential":
        return WarpingFunction.exponential(
            params.get("amplitude", 1.0), params["rate"], domain
        )
    if kind == "cosh":
        return WarpingFunction.cosh_type(
            params.get("amplitude", 1.0), params.get("rate", 1.0), domain
        )
    if kind == "tabulated":
        return WarpingFunction.tabulated(params["ts"], params["values"], domain)
    raise InvalidInputError(f"unknown warping kind {kind!r}")


def load_cone_json(path: PathLike):
    """Cone document: {interval: [a, b], n_t, fiber: <csv ref>, warping: {...}}."""
    from .cone import ConeGrid  # deferred to keep module import light

    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    a, b = doc["interval"]
    interval = Interval(float(a), float(b))
    fiber_ref = doc["fiber"]
    fiber = load_space(path.parent / fiber_ref)
    warping = warping_from_dict(doc["warping"], interval)
    return ConeGrid(interval, fiber, warping, int(doc.get("n_t", 200)))


# ---------------------------------------------------------------------------
# discrete pre-length spaces


def _encode_rho(rho: np.ndarray) -> list:
    return [["inf" if math.isinf(v) else v for v in row] for row in rho.tolist()]


def _decode_rho(rows: list) -> np.ndarray:
    return np.array(
        [[math.inf if v == "inf" else float(v) for v in row] for row in rows]
    )


def save_pls_json(path: PathLike, space: DiscretePreLengthSpace, tau=None) -> None:
    doc = {
        "points": list(space.base.point_ids),
        "dist": space.base.dist.tolist(),
        "causal": space.causal.astype(int).tolist(),
        "chrono": space.chrono.astype(int).tolist(),
        "rho": _encode_rho(space.rho),
    }
    if tau is not None:
        doc["tau"] = list(map(float, tau))
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def load_pls_json(path: PathLike):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    base = FiniteLengthSpace(tuple(doc["points"]), np.array(doc["dist"]))
    space = DiscretePreLengthSpace(
        base,
        np.array(doc["causal"], dtype=bool),
        np.array(doc["chrono"], dtype=bool),
        _decode_rho(doc["rho"]),
    )
    tau = np.array(doc["tau"], dtype=float) if "tau" in doc else None
    return space, tau


# ---------------------------------------------------------------------------
# outputs


def write_long_matrix_csv(
    path: PathLike,
    rows: np.ndarray,
    row_ids: Sequence,
    col_ids: Optional[Sequence] = None,
) -> None:
    """Matrix as long-form triples (row_id, col_id, value)."""
    rows = np.asarray(rows)
    if col_ids is None:
        col_ids = list(range(rows.shape[1]))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("row_id,col_id,value\n")
        for r, rid in enumerate(row_ids):
            for c, cid in enumerate(col_ids):
                fh.write(f"{rid},{cid},{fmt(rows[r, c])}\n")


def read_long_matrix_csv(path: PathLike) -> tuple[list, list, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["row_id", "col_id", "value"]:
            raise InvalidInputError(f"{path}: bad long-form header {header}")
        entries = [(r, c, float(v)) for r, c, v in reader]
    row_ids = list(dict.fromkeys(r for r, _, _ in entries))
    col_ids = list(dict.fromkeys(c for _, c, _ in entries))
    ri = {r: i for i, r in enumerate(row_ids)}
    ci = {c: i for i, c in enumerate(col_ids)}
    mat = np.full((len(row_ids), len(col_ids)), np.nan)
    for r, c, v in entries:
        mat[ri[r], ci[c]] = v
    return row_ids, col_ids, mat


def write_table_csv(path: PathLike, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def write_report_json(path: PathLike, report: dict) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(report), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def sha256_file(path: PathLike) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(
    path: PathLike, command: str, inputs: dict, params: dict, seed: int
) -> None:
    manifest = {
        "command": command,
        "inputs": {
            name: {"path": str(p), "sha256": sha256_file(p)} for name, p in inputs.items()
        },
        "params": _jsonable(params),
        "seed": int(seed),
        "version": __version__,
    }
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
