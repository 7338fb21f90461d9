"""Finite Lorentzian pre-length spaces.

A space is a finite metric space together with a causal preorder, a
transitive chronological relation contained in it, and a time-separation
matrix satisfying the reverse triangle inequality with rho > 0 exactly on
chronological pairs. Time functions are plain per-point value arrays.

The null distance is a shortest path over the causally related pairs, each
of weight |tau(u) - tau(v)|, and the sweep reads only the links among them.
Rank the points by tau, ties by index. A related pair (i, j) with
i <= j is relayed by a point k with i <= k <= j whose rank lies strictly
between the ranks of i and j. Then tau(k) lies between tau(i) and tau(j),
so the weights telescope, |tau(j) - tau(i)| = |tau(k) - tau(i)| +
|tau(j) - tau(k)|, and the two shorter pairs are again related pairs of the
same rank direction, each of strictly smaller rank span. Replacing relayed
pairs by their two halves therefore ends, on pairs that no point relays (the
links), and a path over links of the same cost exists for every path over
related pairs. No transitivity, acyclicity or time-function property is
used: the rule is exact for any relation and any finite tau. It holds in
exact arithmetic; in floating point the two sides of the telescoped sum may
differ by an ulp.

Oriented from lower to higher rank the links form a DAG. A rising pass
relaxes the links into each point from its lower-ranked neighbours, layer
by layer of Kahn's layers of that DAG, and leaves every rising link relaxed;
a falling pass does the same from the higher-ranked neighbours, layers in
reverse. A pass that changes nothing right after a pass of the other
direction leaves every link relaxed on the values it found, so those values
are a fixed point of the relaxation. They start as the costs of the direct
pairs and every update is the cost of a path, so no value falls below the
shortest path, and a fixed point is the shortest path. A pass carries every
value along a whole run of a path that is monotone in rank, and the runs of
a path alternate in direction as the passes do, so a path of r runs is
reached within r + 1 passes and certified by the next. Rounding never makes
a sum of nonnegative weights fall when a cycle is added, so some shortest
path is simple and has at most n - 1 runs: the sweep ends within n + 1
passes, and 2n + 2 bound the loop. Costs from a source are summed along the
path from that source, so the two orientations of a pair may differ by an
ulp; the result takes the smaller, again the cost of a path, and is exactly
symmetric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ParameterError
from .cone import _GATHER_CAP
from .metric_core import FiniteLengthSpace, _monotone_runs
from .reporting import ValidationReport, Verdict

FUTURE, PAST, TRIVIAL = "future", "past", "trivial"
_TAG_STEP = {FUTURE: 1, PAST: -1, TRIVIAL: 0}


@dataclass(frozen=True, eq=False)
class DiscretePreLengthSpace:
    base: FiniteLengthSpace
    causal: np.ndarray  # boolean, causal[i, j] <-> i <= j
    chrono: np.ndarray  # boolean, chrono[i, j] <-> i << j
    rho: np.ndarray  # nonnegative or +inf time separations

    def __post_init__(self):
        n = self.base.n
        causal = np.asarray(self.causal, dtype=bool)
        chrono = np.asarray(self.chrono, dtype=bool)
        rho = np.asarray(self.rho, dtype=float)
        for name, m in (("causal", causal), ("chrono", chrono), ("rho", rho)):
            if m.shape != (n, n):
                raise InvalidInputError(f"{name} must be {n}x{n}, got {m.shape}")
        if np.any(np.isnan(rho)) or np.any(rho < 0):
            raise InvalidInputError("rho must be nonnegative (or +inf)")
        for name, m in (("causal", causal), ("chrono", chrono), ("rho", rho)):
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.base.n


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The composition of boolean relations, (a @ b)[i, j] = any_k a[i, k] &
    b[k, j], as one float32 BLAS product. Every term is 0 or 1, so a sum is 0
    exactly when every term is, and a positive sum of nonnegative terms never
    rounds to 0: the test is exact at any size."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def validate_pls(space: DiscretePreLengthSpace) -> ValidationReport:
    """Exhaustively check the pre-length-space axioms, with witnesses."""
    report = ValidationReport()
    causal, chrono, rho = space.causal, space.chrono, space.rho
    n = space.n

    for i in np.nonzero(~np.diag(causal))[0]:
        report.add("causal-not-reflexive", (int(i),))
    for i, j in np.argwhere(_compose(causal, causal) & ~causal):
        report.add("causal-not-transitive", (int(i), int(j)))
    for i, j in np.argwhere(chrono & ~causal):
        report.add("chrono-not-in-causal", (int(i), int(j)))
    for i, j in np.argwhere(_compose(chrono, chrono) & ~chrono):
        report.add("chrono-not-transitive", (int(i), int(j)))
    for i, j in np.argwhere((rho > 0) != chrono):
        report.add(
            "rho-chrono-mismatch",
            (int(i), int(j)),
            f"rho={rho[i, j]!r}, chrono={bool(chrono[i, j])}",
        )
    # reverse triangle inequality over causal chains x <= y <= z: every
    # point's past xs and future zs, ascending, are slices of one nonzero of
    # causal.T and one of causal; witnesses are sought only in failing blocks
    past_y, past = np.nonzero(causal.T)
    fut_y, fut = np.nonzero(causal)
    past_at = np.searchsorted(past_y, np.arange(n + 1))
    fut_at = np.searchsorted(fut_y, np.arange(n + 1))
    for y in range(n):
        xs = past[past_at[y] : past_at[y + 1]]
        zs = fut[fut_at[y] : fut_at[y + 1]]
        if xs.size == 0 or zs.size == 0:
            continue
        lhs = rho[np.ix_(xs, zs)]
        rhs = rho[xs, y][:, None] + rho[y, zs][None, :]
        with np.errstate(invalid="ignore"):
            fails = lhs < rhs - 1e-12
        if not fails.any():
            continue
        for a, c in np.argwhere(fails):
            x, z = int(xs[a]), int(zs[c])
            if x == y or z == y:
                continue
            report.add(
                "reverse-triangle",
                (x, y, z),
                f"rho[{x},{z}]={lhs[a, c]!r} < {rhs[a, c]!r}",
            )
    return report


def check_time_function(space: DiscretePreLengthSpace, tau: Sequence[float]) -> Verdict:
    """Pass iff tau is strictly increasing along every nontrivial causal pair."""
    tau = np.asarray(tau, dtype=float)
    strict = np.asarray(space.causal).copy()
    np.fill_diagonal(strict, False)
    # written as a failed "<" so that a NaN on a causal pair fails too
    bad = np.argwhere(strict & ~(tau[:, None] < tau[None, :]))
    if bad.size:
        i, j = map(int, bad[0])
        return Verdict(False, witness=(i, j), detail=f"tau[{i}]={tau[i]!r} !< tau[{j}]={tau[j]!r}")
    return Verdict(True)


def check_anti_lipschitz(
    space: DiscretePreLengthSpace,
    tau: Sequence[float],
    subset: Sequence[int],
    d_subset: np.ndarray,
) -> Verdict:
    """Pass iff tau(y) - tau(x) >= d_U(x, y) for all causal pairs inside the subset."""
    tau = np.asarray(tau, dtype=float)
    idx = list(subset)
    d_u = np.asarray(d_subset, dtype=float)
    if d_u.shape != (len(idx), len(idx)):
        raise InvalidInputError("d_U shape does not match the subset")
    if np.any(np.isnan(d_u)) or np.any(d_u < 0) or np.any(np.abs(d_u - d_u.T) > 1e-12):
        raise InvalidInputError("d_U must be a nonnegative symmetric matrix")
    sub_causal = space.causal[np.ix_(idx, idx)]
    np.fill_diagonal(sub_causal, False)
    gaps = tau[idx][None, :] - tau[idx][:, None]
    bad = np.argwhere(sub_causal & ~(gaps >= d_u - 1e-15))
    if bad.size:
        a, b = map(int, bad[0])
        return Verdict(
            False,
            witness=(idx[a], idx[b]),
            detail=f"tau gap {gaps[a, b]!r} < d_U {d_u[a, b]!r}",
        )
    return Verdict(True)


# ---------------------------------------------------------------------------
# piecewise causal paths and null length


@dataclass(frozen=True)
class PiecewiseCausalPath:
    vertices: tuple
    segment_tags: tuple

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise InvalidInputError("path needs at least one vertex")
        if len(self.segment_tags) != len(self.vertices) - 1:
            raise InvalidInputError("need one tag per consecutive vertex pair")
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "segment_tags", tuple(self.segment_tags))


def validate_path(space: DiscretePreLengthSpace, path: PiecewiseCausalPath) -> None:
    for k, tag in enumerate(path.segment_tags):
        u, v = path.vertices[k], path.vertices[k + 1]
        if tag == TRIVIAL:
            ok = u == v
        elif tag == FUTURE:
            ok = bool(space.causal[u, v])
        elif tag == PAST:
            ok = bool(space.causal[v, u])
        else:
            raise InvalidInputError(f"unknown segment tag {tag!r}")
        if not ok:
            raise InvalidInputError(f"segment {k} ({u}->{v}) does not match tag {tag!r}")


def path_null_length(
    space: DiscretePreLengthSpace, tau: Sequence[float], path: PiecewiseCausalPath
) -> float:
    """Sum of |tau increments| over the maximal monotone runs of the path."""
    validate_path(space, path)
    tau = np.asarray(tau, dtype=float)
    v = path.vertices
    runs = _monotone_runs([_TAG_STEP[tag] for tag in path.segment_tags])
    return float(sum(abs(tau[v[b]] - tau[v[a]]) for a, b in runs))


# ---------------------------------------------------------------------------
# null distance


def null_distance_matrix(
    space: DiscretePreLengthSpace, tau: Sequence[float]
) -> np.ndarray:
    """Shortest-path matrix over causally related pairs, weight |tau(u)-tau(v)|.

    The sweep of the module docstring: the links are the related pairs that
    no point relays, kept = (up & ~up∘up) | (down & ~down∘down) with up
    (down) the strict causal pairs of rising (falling) rank. Values start as
    |tau(u) - tau(v)| on related pairs and 0 on the diagonal, and passes over
    the links' Kahn layers alternate between rising and falling rank until
    the first pass after the first that changes nothing. The result is the
    minimum of the swept matrix and its transpose, so it is exactly
    symmetric. tau must hold one finite value per point, since the ranks
    compare it. Pairs in different components of the symmetrized causal
    graph come out as +inf, with a warning: such spaces fail the
    connectivity hypothesis under which piecewise causal curves between all
    pairs exist.
    """
    n = space.n
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (n,):
        raise InvalidInputError(f"tau has shape {tau.shape} for {n} points")
    if not np.all(np.isfinite(tau)):
        raise InvalidInputError("tau must be finite")
    order, bounds, arcs = _link_layers(space.causal, tau)
    tau = tau[order]
    # val[v, s] is the cost from source s to target v; row n stays +inf
    val = np.full((n + 1, n), np.inf)
    related = (space.causal | space.causal.T)[np.ix_(order, order)]
    np.subtract(tau[:, None], tau[None, :], out=val[:n], where=related)
    np.abs(val, out=val)
    np.fill_diagonal(val[:n], 0.0)
    _sweep(val, _layer_steps(arcs.T, tau, bounds), _layer_steps(arcs, tau, bounds[::-1]))
    val = np.minimum(val[:n], val[:n].T)
    pos = np.argsort(order)
    out = val[np.ix_(pos, pos)]
    if np.any(np.isinf(out)):
        warnings.warn(
            "causal graph is disconnected; unreachable pairs reported as +inf "
            "(the space is not sufficiently causally connected)",
            stacklevel=2,
        )
    return out


def _link_layers(causal: np.ndarray, tau: np.ndarray) -> tuple:
    """The links, oriented from lower to higher rank, and their Kahn layers:
    (order, bounds, arcs) with order the points layer by layer (each layer
    in index order), bounds the layers' [lo, hi) in that order and arcs the
    oriented links in that order, arcs[u, v] for u before v."""
    n = tau.size
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((np.arange(n), tau))] = np.arange(n)
    rises = rank[:, None] < rank[None, :]
    strict = causal & ~np.eye(n, dtype=bool)
    up, down = strict & rises, strict & rises.T
    kept = (up & ~_compose(up, up)) | (down & ~_compose(down, down))
    arcs = (kept | kept.T) & rises
    layers = _kahn_layers(arcs)
    order = np.concatenate([np.empty(0, dtype=np.intp), *layers])
    ends = np.cumsum([0] + [layer.size for layer in layers]).tolist()
    return order, list(zip(ends[:-1], ends[1:])), arcs[np.ix_(order, order)]


def _kahn_layers(arcs: np.ndarray) -> list:
    """Kahn layers of the relation `arcs`: each round takes the points of
    in-degree 0 left, in index order, and removes their arcs. On a cycle the
    layers hold fewer than n points."""
    indeg = arcs.sum(axis=0)
    left = np.ones(arcs.shape[0], dtype=bool)
    layers = []
    while (layer := np.flatnonzero(left & (indeg == 0))).size:
        left[layer] = False
        indeg -= arcs[layer].sum(axis=0)
        layers.append(layer)
    return layers


def _sweep(val: np.ndarray, rising: list, falling: list) -> None:
    """Alternate rising and falling passes over `val` in place, from a
    rising one, until a pass after the first changes nothing; each step
    lowers rows lo, lo + 1, ... to the minimum over their gathered rows plus
    weights."""
    n = val.shape[1]
    for p in range(2 * n + 2):
        changed = False
        for lo, idx, w in rising if p % 2 == 0 else falling:
            cand = val.take(idx.ravel(), axis=0).reshape(*idx.shape, n)
            cand += w
            cand = cand.min(axis=0)
            rows = val[lo : lo + cand.shape[0]]
            changed = changed or bool((cand < rows).any())
            np.minimum(rows, cand, out=rows)
        if p and not changed:
            return
    raise RuntimeError("null-distance passes did not settle")


def _layer_steps(arcs: np.ndarray, tau: np.ndarray, bounds: list) -> list:
    """The gathers of one pass: for each layer [lo, hi) in `bounds` order, in
    blocks of its points, (lo, idx, w) with idx[k, a] the k-th point that
    point lo + a reads from (row a + lo of `arcs`), padded with n, and w the
    matching weights |tau[lo + a] - tau[idx]| as a (k, a, 1) array, 0 on the
    padding. A block gathers at most _GATHER_CAP values unless one point's
    neighbours alone hold more."""
    n = tau.size
    steps = []
    for lo, hi in bounds:
        pt, nb = np.nonzero(arcs[lo:hi])
        if not pt.size:
            continue
        deg = np.bincount(pt, minlength=hi - lo)
        slot = np.arange(pt.size) - np.repeat(np.cumsum(deg) - deg, deg)
        idx = np.full((deg.max(), hi - lo), n)
        idx[slot, pt] = nb
        w = np.zeros((deg.max(), hi - lo, 1))
        w[slot, pt, 0] = np.abs(tau[lo + pt] - tau[nb])
        block = max(1, _GATHER_CAP // (idx.shape[0] * n))
        steps.extend((lo + a, np.ascontiguousarray(idx[:, a : a + block]), np.ascontiguousarray(w[:, a : a + block]))
                     for a in range(0, hi - lo, block))
    return steps


# ---------------------------------------------------------------------------
# bundled property checks


def properties_report(space: DiscretePreLengthSpace, tau: Sequence[float]) -> ValidationReport:
    """Exhaustive checks of the basic null-distance identities:

    (i)   dhat(p,q) >= |tau(q)-tau(p)|
    (ii)  causal(p,q) implies dhat(p,q) = tau(q)-tau(p)
    (iii) tau is monotone on causal diamonds
    (iv)  dhat(x,y) <= 2(tau(q)-tau(p)) for x, y in the diamond of (p,q)
    (vi)  rescaling tau by lambda*tau + C rescales dhat by lambda (at 2, 5)
    """
    tau = np.asarray(tau, dtype=float)
    report = ValidationReport()
    dna = null_distance_matrix(space, tau)
    n = space.n
    causal = space.causal

    gaps = tau[None, :] - tau[:, None]
    bad = np.argwhere(dna < np.abs(gaps) - 1e-12)
    for i, j in bad:
        report.add("lower-bound", (int(i), int(j)), f"{dna[i, j]!r} < |{gaps[i, j]!r}|")

    strict = causal.copy()
    np.fill_diagonal(strict, True)
    bad = np.argwhere(strict & (np.abs(dna - gaps) > 1e-12))
    for i, j in bad:
        report.add("causal-realizer", (int(i), int(j)), f"{dna[i, j]!r} != {gaps[i, j]!r}")

    for p in range(n):
        for q in range(n):
            if not causal[p, q]:
                continue
            inside = np.nonzero(causal[p, :] & causal[:, q])[0]
            if inside.size == 0:
                continue
            lo = np.argwhere(tau[inside] < tau[p] - 1e-12)
            hi = np.argwhere(tau[inside] > tau[q] + 1e-12)
            for (k,) in lo:
                report.add("diamond-tau", (p, int(inside[k]), q), "tau below tau(p)")
            for (k,) in hi:
                report.add("diamond-tau", (p, int(inside[k]), q), "tau above tau(q)")
            cap = 2.0 * (tau[q] - tau[p]) + 1e-12
            sub = dna[np.ix_(inside, inside)]
            for a, b in np.argwhere(sub > cap):
                report.add(
                    "diamond-bound",
                    (p, int(inside[a]), int(inside[b]), q),
                    f"dhat={sub[a, b]!r} > 2*gap={cap!r}",
                )

    lam, const = 2.0, 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # connectivity already diagnosed above
        rescaled = null_distance_matrix(space, lam * tau + const)
    fin = np.isfinite(dna)
    if not np.array_equal(fin, np.isfinite(rescaled)):
        report.add("rescaling", (), "finite patterns differ after rescaling")
    drift = np.zeros_like(dna)
    drift[fin] = np.abs(rescaled[fin] - lam * dna[fin])
    bad = np.argwhere(drift > 1e-12 * np.maximum(1.0, lam * np.where(fin, dna, 0.0)))
    for i, j in bad[:1]:
        report.add(
            "rescaling", (int(i), int(j)), f"{rescaled[i, j]!r} != 2*{dna[i, j]!r}"
        )
    return report


# ---------------------------------------------------------------------------
# causally convex neighborhoods


@dataclass(frozen=True)
class ConvexNeighborhood:
    members: tuple
    certified: bool
    time_function_failure: Optional[tuple] = None


def causally_convex_neighborhood(
    space: DiscretePreLengthSpace,
    tau: Sequence[float],
    p: int,
    subset: Sequence[int],
    d_subset: np.ndarray,
    eps: float,
) -> ConvexNeighborhood:
    """Carve a causally convex neighborhood of p out of the anti-Lipschitz
    witness (U, d_U) by perturbing tau with the tent profile
    phi = max(0, eps - d_U(p, .)/2) on U (0 off U) and keeping the points
    squeezed between the down- and up-perturbed time functions:
    (tau-phi)(q) < tau(p) < (tau+phi)(q).

    The result is certified exactly when tau+phi and tau-phi both pass
    `check_time_function`; otherwise the failing function and its witness
    pair are returned rather than raised. No causal triple is examined,
    because the two checks prove convexity. Let x <= y <= z with x, z
    members and y not. Then y differs from x and z, and y fails one of the
    two inequalities:
    - (tau-phi)(y) >= tau(p) > (tau-phi)(z) contradicts tau-phi strictly
      increasing along y <= z;
    - (tau+phi)(y) <= tau(p) < (tau+phi)(x) contradicts tau+phi strictly
      increasing along x <= y.
    The argument needs only that "<" is transitive on the values compared,
    which holds for floats with infinities but not with NaN. A NaN on a
    causal pair fails `check_time_function`; a NaN elsewhere makes its point
    a non-member on no causal pair, so it cannot lie between two members.
    """
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    tau = np.asarray(tau, dtype=float)
    idx = list(subset)
    if p not in idx:
        raise InvalidInputError("p must belong to the subset")
    anti = check_anti_lipschitz(space, tau, idx, d_subset)
    if not anti.passed:
        raise InvalidInputError(
            f"(U, d_U) is not an anti-Lipschitz witness: {anti.detail}"
        )
    phi = np.zeros(space.n)
    phi[idx] = np.maximum(0.0, eps - 0.5 * np.asarray(d_subset, dtype=float)[idx.index(p)])
    tau_up = tau + phi
    tau_dn = tau - phi

    for name, perturbed in (("tau+phi", tau_up), ("tau-phi", tau_dn)):
        verdict = check_time_function(space, perturbed)
        if not verdict.passed:
            return ConvexNeighborhood((), False, time_function_failure=(name, verdict.witness))
    members = np.flatnonzero((tau_dn < tau[p]) & (tau[p] < tau_up))
    return ConvexNeighborhood(tuple(members.tolist()), True)


# ---------------------------------------------------------------------------
# rho-length of chains and the induced time separation


def chain_rho_length(space: DiscretePreLengthSpace, chain: Sequence[int]) -> float:
    """Sum of rho over consecutive pairs of a causal chain (the infimum over
    subdivisions is attained at the full chain by the reverse triangle
    inequality)."""
    chain = [int(v) for v in chain]
    if len(chain) < 2:
        return 0.0
    total = 0.0
    for u, v in zip(chain, chain[1:]):
        if not space.causal[u, v]:
            raise InvalidInputError(f"({u},{v}) is not a causal step")
        total += float(space.rho[u, v])
    return total


def rho_length_and_time_separation(
    space: DiscretePreLengthSpace,
) -> tuple[np.ndarray, np.ndarray]:
    """Longest-chain time separation and its disagreement with rho.

    Returns (T, mismatch) where T[x, y] in [0, +inf] is the maximum of
    chain_rho_length over causal chains from x to y (0 when unreachable, +inf
    when a chain has an infinite step) and mismatch flags the strictly causal
    pairs where T and rho differ by more than 1e-12 (equal infinities agree).
    """
    causal = space.causal.copy()
    np.fill_diagonal(causal, False)
    if np.any(causal & causal.T):
        i, j = map(int, np.argwhere(causal & causal.T)[0])
        raise InvalidInputError(f"causal cycle between {i} and {j}")
    n = space.n
    order = [v for layer in _kahn_layers(causal) for v in layer.tolist()]
    if len(order) < n:
        raise InvalidInputError("causal relation contains a cycle")
    # row s holds the longest chains from s, -inf where no chain reaches; a
    # column is final once its node comes up in topological order, and every
    # reached value (+inf included) propagates. No update reaches the
    # diagonal: that would need a cycle.
    t_mat = np.full((n, n), -np.inf)
    np.fill_diagonal(t_mat, 0.0)
    for v in order:
        rows = np.flatnonzero(t_mat[:, v] > -np.inf)
        succ = np.flatnonzero(causal[v])
        if rows.size and succ.size:
            block = np.ix_(rows, succ)
            cand = t_mat[rows, v][:, None] + space.rho[v, succ][None, :]
            t_mat[block] = np.maximum(t_mat[block], cand)
    t_mat[t_mat == -np.inf] = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        mismatch = causal & (t_mat != space.rho) & ~(np.abs(t_mat - space.rho) <= 1e-12)
    return t_mat, mismatch
