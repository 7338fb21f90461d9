"""Finite Lorentzian pre-length spaces.

A space is a finite metric space together with a causal preorder, a
transitive chronological relation contained in it, and a time-separation
matrix satisfying the reverse triangle inequality with rho > 0 exactly on
chronological pairs. Time functions are plain per-point value arrays.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ParameterError
from .metric_core import FiniteLengthSpace, floyd_warshall
from .reporting import ValidationReport, Verdict

FUTURE, PAST, TRIVIAL = "future", "past", "trivial"


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


def validate_pls(space: DiscretePreLengthSpace) -> ValidationReport:
    """Exhaustively check the pre-length-space axioms, with witnesses."""
    report = ValidationReport()
    causal, chrono, rho = space.causal, space.chrono, space.rho
    n = space.n

    for i in np.nonzero(~np.diag(causal))[0]:
        report.add("causal-not-reflexive", (int(i),))
    comp = causal @ causal  # boolean matrix product = 2-step reachability
    for i, j in np.argwhere(comp & ~causal):
        report.add("causal-not-transitive", (int(i), int(j)))
    for i, j in np.argwhere(chrono & ~causal):
        report.add("chrono-not-in-causal", (int(i), int(j)))
    for i, j in np.argwhere((chrono @ chrono) & ~chrono):
        report.add("chrono-not-transitive", (int(i), int(j)))
    for i, j in np.argwhere((rho > 0) != chrono):
        report.add(
            "rho-chrono-mismatch",
            (int(i), int(j)),
            f"rho={rho[i, j]!r}, chrono={bool(chrono[i, j])}",
        )
    # reverse triangle inequality over causal chains x <= y <= z
    for y in range(n):
        xs = np.nonzero(causal[:, y])[0]
        zs = np.nonzero(causal[y, :])[0]
        if xs.size == 0 or zs.size == 0:
            continue
        lhs = rho[np.ix_(xs, zs)]
        rhs = rho[xs, y][:, None] + rho[y, zs][None, :]
        with np.errstate(invalid="ignore"):
            bad = np.argwhere(lhs < rhs - 1e-12)
        for a, c in bad:
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
    bad = np.argwhere(strict & (tau[None, :] <= tau[:, None]))
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
    gaps = tau[idx][None, :] - tau[idx][:, None]
    bad = np.argwhere(sub_causal & (gaps < d_u - 1e-15))
    for a, b in bad:
        if a != b:
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
    total = 0.0
    run_start = path.vertices[0]
    run_dir = None
    for k, tag in enumerate(path.segment_tags):
        if tag == TRIVIAL:
            continue
        if run_dir is not None and tag != run_dir:
            total += abs(tau[path.vertices[k]] - tau[run_start])
            run_start = path.vertices[k]
        run_dir = tag
    total += abs(tau[path.vertices[-1]] - tau[run_start])
    return float(total)


# ---------------------------------------------------------------------------
# null distance


def _weight_matrix(space: DiscretePreLengthSpace, tau: np.ndarray) -> np.ndarray:
    related = space.causal | space.causal.T
    w = np.where(related, np.abs(tau[None, :] - tau[:, None]), np.inf)
    np.fill_diagonal(w, 0.0)
    return w


def null_distance_matrix(
    space: DiscretePreLengthSpace, tau: Sequence[float]
) -> np.ndarray:
    """Shortest-path matrix over causally related pairs, weight |tau(u)-tau(v)|.

    One Floyd-Warshall pass over the dense weight matrix gives every pair;
    the result is exactly symmetric. Pairs in different components of the
    symmetrized causal graph come out as +inf, with a warning: such spaces
    fail the connectivity hypothesis under which piecewise causal curves
    between all pairs exist.
    """
    out = floyd_warshall(_weight_matrix(space, np.asarray(tau, dtype=float)))
    if np.any(np.isinf(out)):
        warnings.warn(
            "causal graph is disconnected; unreachable pairs reported as +inf "
            "(the space is not sufficiently causally connected)",
            stacklevel=2,
        )
    return out


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
    counterexample: Optional[tuple] = None  # causal chain (x, y, z) leaving the set
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
    max(0, eps - d_U(p, .)/2) and keeping the points squeezed between the
    down- and up-perturbed time functions.

    Verifies causal convexity by exhausting causal triples and checks both
    perturbed functions for strict monotonicity; failures are returned as
    witnesses rather than raised.
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
    d_u = np.asarray(d_subset, dtype=float)
    pos = idx.index(p)
    ball = [idx[k] for k in np.nonzero(d_u[pos] <= 2.0 * eps)[0]]
    if set(ball) - set(idx):
        raise InvalidInputError("the 2*eps ball must stay inside the subset")

    phi = np.zeros(space.n)
    for k, point in enumerate(idx):
        phi[point] = max(0.0, eps - 0.5 * d_u[pos, k])
    tau_up = tau + phi
    tau_dn = tau - phi

    for name, perturbed in (("tau+phi", tau_up), ("tau-phi", tau_dn)):
        verdict = check_time_function(space, perturbed)
        if not verdict.passed:
            return ConvexNeighborhood((), False, time_function_failure=(name, verdict.witness))

    members = tuple(
        int(q) for q in range(space.n) if tau_dn[q] < tau[p] < tau_up[q]
    )
    member_set = set(members)
    causal = space.causal
    for x in members:
        for z in members:
            if not causal[x, z]:
                continue
            between = np.nonzero(causal[x, :] & causal[:, z])[0]
            for y in between:
                if int(y) not in member_set:
                    return ConvexNeighborhood(members, False, counterexample=(x, int(y), z))
    return ConvexNeighborhood(members, True)


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

    Returns (T, mismatch) where T[x, y] is the maximum of chain_rho_length
    over causal chains from x to y (0 when unreachable) and mismatch flags
    entries with T != rho on strictly causal pairs.
    """
    causal = space.causal.copy()
    np.fill_diagonal(causal, False)
    if np.any(causal & causal.T):
        i, j = map(int, np.argwhere(causal & causal.T)[0])
        raise InvalidInputError(f"causal cycle between {i} and {j}")
    n = space.n
    # row s holds the longest chains from s; a column is final once its
    # node comes up in topological order, and only finite values propagate
    t_mat = np.full((n, n), -np.inf)
    np.fill_diagonal(t_mat, 0.0)
    for v in _topo_order(causal):
        rows = np.nonzero(np.isfinite(t_mat[:, v]))[0]
        succ = np.nonzero(causal[v])[0]
        if rows.size and succ.size:
            block = np.ix_(rows, succ)
            cand = t_mat[rows, v][:, None] + space.rho[v, succ][None, :]
            t_mat[block] = np.maximum(t_mat[block], cand)
    t_mat[~np.isfinite(t_mat)] = 0.0
    np.fill_diagonal(t_mat, 0.0)
    with np.errstate(invalid="ignore"):
        mismatch = causal & (np.abs(t_mat - space.rho) > 1e-12)
        mismatch |= causal & np.isinf(space.rho) & (t_mat != space.rho)
    return t_mat, mismatch


def _topo_order(strict_causal: np.ndarray) -> list[int]:
    n = strict_causal.shape[0]
    indeg = strict_causal.sum(axis=0).astype(int)
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for u in np.nonzero(strict_causal[v])[0]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, int(u))
    if len(out) != n:
        raise InvalidInputError("causal relation contains a cycle")
    return out
