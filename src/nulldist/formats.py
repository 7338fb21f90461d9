"""File formats used by the command-line runner.

CSV: comma-separated, UTF-8, LF line endings, mandatory header row; floats
serialized with 17 significant digits so they round-trip exactly. Matrices
are written in long form (row_id, col_id, value) from blocks of rows that
the caller hands over one at a time; a group of rows finds its distinct
values with one sort and each entry's by a binary search, each
distinct value is formatted once, and the bytes equal per-entry `.17g`
formatting. A distance-matrix CSV is read with csv.reader for its header
and numpy's C parser (np.loadtxt) for the numbers.
JSON reports and manifests are written by one writer with sorted keys;
non-finite floats become the strings "inf", "-inf" and "nan", which the
pre-length-space reader parses back as floats.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from . import __version__
from .cone import _GATHER_CAP, DEFAULT_N_T, ConeGrid
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
    """Distance-matrix CSV: a header row of point ids, then one line of the
    square matrix per point. csv.reader reads the header and np.loadtxt the
    numbers: decimal and exponent forms, inf and nan, cells padded with
    spaces or quoted. Forms float() also took (digit separators as in 1_0,
    non-ASCII digits) are refused, and so is a blank line, which loadtxt
    would skip and csv.reader counted as a row."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        if not header:
            raise InvalidInputError(f"{path}: empty file or blank header row")
        ids = [c.strip() for c in header]
        n_lines, blank, error = 0, False, None

        def lines():
            nonlocal n_lines, blank
            for line in fh:
                n_lines += 1
                blank = blank or not line.rstrip("\r\n")
                yield line

        body = lines()
        # loadtxt skips blank lines and warns when it finds no row, so it
        # runs only on a body whose first line holds numbers
        first = next(body, "")
        if first.rstrip("\r\n"):
            try:
                mat = np.loadtxt(
                    itertools.chain([first], body), delimiter=",", comments=None, quotechar='"', ndmin=2
                )
            except ValueError as exc:
                error = exc
        n_lines += sum(1 for _ in fh)  # the lines after a parse error
    if n_lines != len(ids):
        raise InvalidInputError(f"{path}: expected {len(ids)} matrix rows, found {n_lines}")
    if blank:
        raise InvalidInputError(f"{path}: blank line in the matrix")
    if error is not None:
        raise InvalidInputError(f"{path}: non-numeric entry ({error})") from error
    return FiniteLengthSpace(tuple(ids), mat, "matrix-input")


def save_distance_matrix_csv(path: PathLike, space: FiniteLengthSpace) -> None:
    write_table_csv(path, [str(i) for i in space.point_ids], space.dist.tolist())


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


def load_cone_json(path: PathLike) -> ConeGrid:
    """Cone document: {interval: [a, b], n_t, fiber: <csv ref>, warping: {...}}."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    a, b = doc["interval"]
    interval = Interval(float(a), float(b))
    fiber_ref = doc["fiber"]
    fiber = load_space(path.parent / fiber_ref)
    warping = warping_from_dict(doc["warping"], interval)
    return ConeGrid(interval, fiber, warping, int(doc.get("n_t", DEFAULT_N_T)))


# ---------------------------------------------------------------------------
# discrete pre-length spaces


def load_pls_json(path: PathLike):
    # the constructors read the matrices as numpy arrays, and numpy parses
    # the "inf" and "nan" strings of write_report_json as floats
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    base = FiniteLengthSpace(tuple(doc["points"]), doc["dist"])
    space = DiscretePreLengthSpace(base, doc["causal"], doc["chrono"], doc["rho"])
    if "tau" not in doc:
        return space, None
    # numpy reads a JSON null as NaN, which would pass for a stated "nan"
    if isinstance(doc["tau"], list) and None in doc["tau"]:
        raise InvalidInputError(f"{path}: tau[{doc['tau'].index(None)}] is null")
    tau = np.array(doc["tau"], dtype=float)
    if tau.shape != (base.n,):
        raise InvalidInputError(f"{path}: tau has {tau.size} entries for {base.n} points")
    return space, tau


# ---------------------------------------------------------------------------
# outputs


def write_long_matrix_csv(
    path: PathLike,
    blocks: Iterable[tuple[Sequence, np.ndarray]],
    col_ids: Sequence,
) -> None:
    """Matrix as long-form triples (row_id, col_id, value), its rows given
    as (row ids, rows) blocks in order. The blocks are read one at a time, so
    a caller can compute each after the one before is written and hold one
    block of rows, not the matrix. A block's ids must match its shape; on
    any error, that mismatch or one raised while a block is computed, the
    file is removed and the error raised.

    Rows go in groups of at most _GATHER_CAP entries (at least one row).
    Values are keyed by their bit pattern, so -0.0 and 0.0 (and NaN
    payloads) stay apart. One sort of a group's keys and a neighbour
    inequality give its distinct keys, a binary search gives each entry's
    index among them, and each distinct value is formatted once; the bytes
    equal fmt(v) on every entry, however the rows are split into blocks.
    Each row's lines are one join of its (row id, ",col_id,", value line)
    parts.
    """
    path = Path(path)
    parts = [""] * (3 * len(col_ids))
    parts[1::3] = [f",{cid}," for cid in col_ids]
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write("row_id,col_id,value\n")
            for block in blocks:
                _write_long_rows(fh, parts, *block)
                del block  # not alive while the next block is computed
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_long_rows(fh, parts: list, row_ids: Sequence, rows: np.ndarray) -> None:
    """One block of `write_long_matrix_csv`; parts holds every column's
    ",col_id," at [1::3]."""
    rows = np.asarray(rows)
    n_c = len(parts) // 3
    if (len(row_ids), n_c) != rows.shape:
        raise InvalidInputError(
            f"a {rows.shape[0]} x {rows.shape[1]} matrix needs {rows.shape[0]} row ids and "
            f"{rows.shape[1]} col ids, got {len(row_ids)} and {n_c}"
        )
    group = max(1, _GATHER_CAP // max(n_c, 1))  # rows per group
    for lo in range(0, len(row_ids), group):
        ids = row_ids[lo : lo + group]
        keys = np.ascontiguousarray(rows[lo : lo + len(ids)], dtype=float).view(np.int64).reshape(-1)
        bits = np.sort(keys)
        first = np.ones(bits.size, dtype=bool)  # first of its run of equal keys
        np.not_equal(bits[1:], bits[:-1], out=first[1:])
        bits = bits[first]
        # format(v, ".17g") is fmt(v) on a Python float
        strs = np.array([f"{v:.17g}\n" for v in bits.view(float).tolist()], dtype=object)
        vals = strs.take(np.searchsorted(bits, keys)).reshape(len(ids), n_c).tolist()
        for rid, row in zip(ids, vals):
            parts[0::3] = [f"{rid}"] * n_c
            parts[2::3] = row
            fh.write("".join(parts))


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
        "params": params,
        "seed": int(seed),
        "version": __version__,
    }
    write_report_json(path, manifest)
