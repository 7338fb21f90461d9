"""Generalized cones over finite length spaces.

A cone grid discretizes I x_f X: a uniform t-grid times the fiber points.
The causal predicate is exact (it uses the reciprocal antiderivative G of
the warping function, never the grid):

    (t_p, x_p) <= (t_q, x_q)   iff   t_p <= t_q  and  d(x_p, x_q) <= G(t_q) - G(t_p)

with strict inequalities for the chronological relation. Null distances are
shortest paths over *all* causally related pairs, weight |t_u - t_v|; causal
pairs therefore come out exactly |t_q - t_p|, and discretization error is
confined to non-causal pairs.

The shortest-path engine never materializes the O(N^2) edge set. Monotone
runs of causal edges compose into single edges, so distances are reached by
repeated passes of "relax every future edge" in ascending time, alternating
between the grid and its time reversal. Each level update is a minimum over
running per-fiber minima P[i, c] = min over levels i' <= i of val[i', c] -
pi[i']: the update of (k, a) takes pi[k] + min over c of P[T'(k, a, c), c],
where T(k, a, c) is the last level i <= k with (i, a) causal to (k, c) or
-1, T'(k, a, c) = min(T(k, a, c), k - 1) and P[-1, c] = +inf. T reads the
pair only through its distance, so it is kept per distinct fiber distance: a
(levels, U) table for U distinct distances, one search per level. The
minima of every level sit in one (levels + 1)*m by sources array whose last
m rows stay +inf, and one int32 (W_k, m) index per level gathers them in a
single take.

Only cover pairs are gathered. Along a monotone causal run the weight
telescopes, so an edge that factors through a grid point between its ends
adds nothing the two shorter edges do not give. Pair (a, c) of level k is
dropped when a relay c' has j = T'(k, a, c') >= 0 and T'(j, c', c) >=
T'(k, a, c). Level j < k is relaxed earlier in the same pass, so
P[j, c'] <= val[j, c'] - pi[j] <= P[T'(j, c', c), c] <= P[T'(k, a, c), c],
the last step because P falls with the level. Such a relay has a strictly
larger T'(k, a, .), so dropping every such pair leaves the minimum
unchanged in exact arithmetic (the chain of relays ends at a kept pair),
and any subset of the relays is valid; pairs with T' = -1 always go. Two
relays per pair are tried: a itself one level down, and the neighbour of a
in the fiber's relative neighbourhood graph with the least d(a, c') +
d(c', c). On a product cone whose fiber spacing equals the level step this
keeps exactly c in {a - 1, a, a + 1}; a fiber that prunes nothing gets
W_k = m, the full gather. The rule reads a pair only through the distances
of (a, c), (a, c') and (c', c), so the index is built once per grid from
pair classes, the pairs grouped by those three distances: each level
evaluates the rule once per class, over the prefix of classes (sorted by
distance) with T' >= 0, and expands only the kept classes into pairs. A
level costs O(classes) plus its kept pairs, m^2 at worst, when every pair is
a class of its own, as on a random point cloud. Rounding: the relay reads
val[j, c'] - pi[j], which may differ from the dropped P[T'(k, a, c), c] by
an ulp when the sums are not exact, so rows can move by ulps against a full
gather; on dyadic grids every sum is exact and the rows are bitwise equal.

An ascending pass leaves every future-directed edge relaxed and a descending
pass every past-directed one, so a pass that changes nothing certifies the
fixed point when it runs right after a pass of the other direction, on the
values that pass left; the sweeps stop at the first such pass. `sweeps`
counts pass pairs begun, the count of the rule that stops only at a whole
pass pair that changes nothing: passes // 2 when the last two passes both
changed nothing, (passes + 2) // 2 otherwise.

A pass pair finds one turn of a path, so a minimizer that zigzags between
two adjacent levels, as minimizers of a nonlinear time function phi do where
phi' f is smallest, would cost one pass pair per turn. A band closure moves
such a zigzag in one step. In the band of levels k, k+1 every causal edge
joins the two levels and costs pi[k+1] - pi[k], so closing the band is a
shortest path over its edges, the fiber pairs causal across the step (the
leading rows of the move index the time-separation DP reads), from the
band's current values. Band by band, the closure relaxes every edge into the
lower level, then into the higher one, until a round changes nothing.
Round r reaches every path of up to 2r - 1 edges, and a shortest path on the
band's 2m points has at most 2m - 1, so m rounds bound the loop. It is
exact: every value it writes is the cost of a path of causal edges, so no
value drops below the null distance. It runs once, after the fourth pass, so
runs that settle sooner, such as phi = t or phi = 2t + 5 on a product cone,
keep their arithmetic bit for bit; bands with self edges only (depth 1) are
skipped, since the passes already close them. The closure
lowers values on both levels of a band, and past-directed edges from those
values are relaxed only by a descending pass, so the ascending pass right
after it certifies nothing: such runs stop at the sixth pass at the
earliest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ParameterError, SizeBoundError
from .metric_core import FiniteLengthSpace, read_back_path
from .reporting import GuaranteeReport
from .warping import Interval, WarpingFunction

DEFAULT_N_T = 200
_TABLE_CAP = 3e8  # levels x fiber pairs: cover-index pair-class work and int32 flat indices
_GATHER_CAP = 1 << 16  # entries per block: time-separation columns, band points, checked rows
_BATCH = 64  # sources per null-distance sweep batch
CHRONOLOGICAL, CAUSAL, NONE = "chronological", "causal", "none"


@dataclass(eq=False)
class ConeGrid:
    interval: Interval
    fiber: FiniteLengthSpace
    warping: WarpingFunction
    n_t: int = DEFAULT_N_T

    def __post_init__(self):
        if self.n_t < 1:
            raise ParameterError("need at least one t-step")
        if not (self.warping.domain.a <= self.interval.a and self.interval.b <= self.warping.domain.b):
            raise InvalidInputError("warping domain does not cover the interval")
        if not np.all(np.isfinite(self.fiber.dist)):
            raise InvalidInputError("fiber must be connected (finite distances)")
        self.t_levels = np.linspace(self.interval.a, self.interval.b, self.n_t + 1)
        self.g_levels = np.asarray(self.warping.recip_integral(self.t_levels), dtype=float)
        # strict monotonicity of G is equivalent to positivity of f
        if np.any(np.diff(self.g_levels) <= 0):
            raise InvalidInputError("warping must be strictly positive on the interval")
        # warping at the level midpoints, for the time-separation step lengths
        self.f_mid = np.asarray(
            self.warping.value(0.5 * (self.t_levels[:-1] + self.t_levels[1:])), dtype=float
        )
        self.f_min, self.f_max = self.warping.extrema(self.interval)
        if self.f_min <= 0:
            raise InvalidInputError("warping must be strictly positive on the interval")
        # Exactly-null relations (d equal to the G-gap) must stay causal under
        # floating-point grid construction; the slack is far below one grid
        # quantum, so no genuinely timelike/spacelike pair can flip class.
        scale = max(
            1.0,
            float(self.g_levels[-1]),
            float(np.max(self.fiber.dist)),
        )
        self.causal_slack = 32.0 * np.finfo(float).eps * scale
        self._cover: Optional[tuple[list[np.ndarray], list[np.ndarray]]] = None
        self._moves: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
        self._weights: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- indexing ----------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.n_t + 1

    @property
    def m(self) -> int:
        return self.fiber.n

    @property
    def n_points(self) -> int:
        return self.n_levels * self.m

    def node(self, i: int, j: int) -> int:
        self._check_point(i, j)
        return i * self.m + j

    def point(self, node: int) -> tuple[int, int]:
        return divmod(int(node), self.m)

    def _check_point(self, i: int, j: int) -> None:
        if not (0 <= i < self.n_levels):
            raise ParameterError(f"t-index {i} outside the interval grid")
        if not (0 <= j < self.m):
            raise ParameterError(f"fiber index {j} out of range")

    def grid_step(self) -> float:
        return self.interval.length / self.n_t

    # -- causal structure ----------------------------------------------------

    def causal_relation(self, p: tuple[int, int], q: tuple[int, int]) -> str:
        """Classify q relative to the causal future of p."""
        i, j = p
        k, l = q
        self._check_point(i, j)
        self._check_point(k, l)
        if k < i:
            return NONE
        gap = self.g_levels[k] - self.g_levels[i]
        d = self.fiber.dist[j, l]
        if d > gap + self.causal_slack:
            return NONE
        if d < gap - self.causal_slack and k > i:
            return CHRONOLOGICAL
        return CAUSAL

    def causal_row(self, i, j) -> np.ndarray:
        """Boolean (n_levels, m) array: points causally comparable with (i, j)
        in either time direction. Arrays of levels i and fibers j of shape
        (b,) give the (b, n_levels, m) stack of their rows."""
        return self.fiber.dist[j][..., None, :] <= _level_gaps(self.g_levels, i) + self.causal_slack

    # -- cover index for the sweep engine ----------------------------------

    def _level_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sweep tables over the fiber's distinct distances, for the grid and
        for its time reversal (G replaced by -G read backwards): entry [k, u]
        is the last level i <= k with (i, a) causal to (k, c) for the pairs
        (a, c) at the u-th distance, or -1 when there is none. Returned with
        the int32 (m, m) index u of each pair's distance."""
        dist, inv = np.unique(self.fiber.dist, return_inverse=True)
        up = self._last_causal_levels(self.g_levels, dist)
        rev = self._last_causal_levels(-self.g_levels[::-1], dist)
        return up, rev, inv.reshape(self.m, self.m).astype(np.int32)

    def _last_causal_levels(self, g: np.ndarray, dist: np.ndarray) -> np.ndarray:
        # causal_row's expression |G_i - G_k| + slack only falls as i rises
        # towards k, so the causal levels i <= k form a prefix and one search
        # down from k finds its end; entries run from -1 to g.size - 1 and
        # fall as the distance grows
        dtype = np.int16 if g.size < 32768 else np.int32
        table = np.empty((g.size, dist.size), dtype=dtype)
        for k in range(g.size):
            gap = np.abs(g - g[k]) + self.causal_slack
            table[k] = k - np.searchsorted(gap[k::-1], dist, side="left")
        return table

    def _cover_index(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per sweep table, one int32 (W_k, m) gather index per level k:
        column a holds T'(k, a, c)*m + c for the pairs (a, c) that no relay
        covers (module docstring), padded with the +inf row n_levels*m."""
        if self._cover is None:
            # refused before the O(m^3) relays: the pair classes take up to
            # m^2 entries per level, and flat indices into levels x pairs
            # must fit int32
            if self.n_levels * self.m * self.m > _TABLE_CAP:
                raise SizeBoundError(
                    "the sweep cover index over levels x fiber pairs would exceed "
                    "its size cap; use a coarser fiber or time_separation-style queries"
                )
            up, rev, inv = self._level_tables()
            classes = self._pair_classes(inv)
            self._cover = tuple(self._cover_levels(t, *classes) for t in (up, rev))
        return self._cover

    def _relays(self) -> np.ndarray:
        """relay[a, c]: the neighbour c' of a in the fiber's relative
        neighbourhood graph with the least d(a, c') + d(c', c), ties to the
        smallest index; a itself when a has no neighbour. (a, b) is an edge
        unless some point c has max(d(a, c), d(c, b)) < d(a, b)."""
        d = self.fiber.dist
        edge = np.zeros((self.m, self.m), dtype=bool)
        for a in range(self.m - 1):
            # the test is symmetric in (a, b): each pair once, with b > a
            far = np.maximum(d[a][:, None], d[:, a + 1 :]) < d[a, a + 1 :]
            edge[a, a + 1 :] = ~np.any(far, axis=0)
        edge |= edge.T
        relay = np.repeat(np.arange(self.m)[:, None], self.m, axis=1)
        for a in range(self.m):
            nbrs = np.nonzero(edge[a])[0]
            if nbrs.size:
                relay[a] = nbrs[np.argmin(d[a, nbrs][:, None] + d[nbrs], axis=0)]
        return relay

    def _pair_classes(self, inv: np.ndarray) -> tuple[np.ndarray, ...]:
        """The fiber pairs (a, c) grouped by the distance indices inv (see
        _level_tables) of (a, c), (a, c') and (c', c), with c' = relay[a, c]:
        all the cover rule reads of a pair. Returns int32 u, v, w per class,
        sorted by u (so by distance), and the classes' flat pairs a*m + c,
        class i ascending at pairs[offsets[i]:offsets[i + 1]]."""
        m = self.m
        relay = self._relays()
        u = inv.ravel()
        v = np.take_along_axis(inv, relay, axis=1).ravel()
        w = inv[relay, np.arange(m)].ravel()
        pairs = np.lexsort((w, v, u)).astype(np.int32)
        new = np.zeros(pairs.size, dtype=bool)
        new[:1] = True
        for x in (u[pairs], v[pairs], w[pairs]):
            new[1:] |= x[1:] != x[:-1]
        start = np.flatnonzero(new)
        first = pairs[start]
        return u[first], v[first], w[first], pairs, np.append(start, pairs.size)

    def _cover_levels(
        self,
        table: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        pairs: np.ndarray,
        offsets: np.ndarray,
    ) -> list[np.ndarray]:
        # level by level, with T' = min(table[k], k - 1) read once per pair
        # class: a class goes when T' = -1, when a one level down covers it
        # (T'(k-1, a, c) >= T'), or when the relay covers it: at
        # j = T'(k, a, c') both table[j, w] and j - 1 reach T'. T' is -1 on
        # level 0 and falls with the distance, so the classes with T' >= 0
        # are a prefix. Flat indices fit int32 under _TABLE_CAP; j = -1 wraps
        # to a valid read that j > T' then discards
        m, (n_lv, n_u) = self.m, table.shape
        flat, sizes = table.reshape(-1), np.diff(offsets)
        ends = np.searchsorted(u, np.count_nonzero(table >= 0, axis=1)).tolist()
        index = [np.full((1, m), n_lv * m, dtype=np.int32)]
        for k in range(1, n_lv):
            n = ends[k]
            cur = np.minimum(table[k].take(u[:n]), k - 1)
            prev = np.minimum(table[k - 1].take(u[:n]), k - 2)
            j = np.minimum(table[k].take(v[:n]), k - 1)
            via = flat.take(j.astype(np.int32) * n_u + w[:n])
            kept = np.flatnonzero((prev < cur) & ((j <= cur) | (via < cur)))
            # the kept classes' pairs, sorted by pair with their level; a
            # column's entries are then contiguous
            counts = sizes[kept]
            pos = np.repeat(offsets[kept] - (np.cumsum(counts) - counts), counts)
            pos += np.arange(pos.size)
            key = np.sort(pairs[pos] * n_lv + np.repeat(cur[kept].astype(np.int32), counts))
            pair = key // n_lv
            a = pair // m
            bounds = np.searchsorted(a, np.arange(m + 1))
            counts = np.diff(bounds)
            idx = np.full((max(1, int(counts.max())), m), n_lv * m, dtype=np.int32)
            rank = np.arange(a.size) - np.repeat(bounds[:-1], counts)
            idx[rank, a] = (key - pair * n_lv) * m + pair - a * m  # level * m + c
            index.append(idx)
        return index

    def _move_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The fiber moves of every level step as (nbrs, du, depth, dist).
        Column a of the int32 (deg, m) nbrs lists the points c causal to a
        across the widest step, d(c, a) <= G-gap + slack, nearest first with
        ties to the smallest index, padded with a at an infinite distance; du
        indexes each entry's distance in dist, the ascending distinct move
        distances and inf. A step's moves lead every column, so depth[k], the
        rows holding step k's moves, counts the rows whose least distance
        passes step k's test."""
        if self._moves is None:
            thr = np.diff(self.g_levels) + self.causal_slack
            a, src = np.nonzero(self.fiber.dist.T <= thr.max())  # a ascending
            d = self.fiber.dist[src, a]
            order = np.lexsort((d, a))  # stable: equal distances keep src ascending
            counts = np.bincount(a, minlength=self.m)
            rank = np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
            dist, inv = np.unique(np.append(d, np.inf), return_inverse=True)
            nbrs = np.repeat(np.arange(self.m, dtype=np.int32)[None], counts.max(), axis=0)
            du = np.full(nbrs.shape, dist.size - 1, dtype=np.int32)
            nbrs[rank, a], du[rank, a] = src[order], inv[order]
            # dist ascends, so a row's least distance is that of its least du
            depth = np.searchsorted(dist[du.min(axis=1)], thr, side="right")
            self._moves = (nbrs, du, depth, dist)
        return self._moves

    def _step_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Step lengths of the fiber moves as (table, rows): entry (r, a) of
        the move index has length table[rows[i], du[r, a]] on the step
        i -> i+1 (-inf on the padding). A row is `_level_step_weights` over
        the index's distances, once per distinct (G-gap, dt, f_mid) step,
        since the formula reads nothing else of the level."""
        if self._weights is None:
            dist = self._move_index()[3]
            steps = np.stack([np.diff(self.g_levels), np.diff(self.t_levels), self.f_mid], axis=1)
            _, first, rows = np.unique(steps, axis=0, return_index=True, return_inverse=True)
            table = np.stack([_level_step_weights(self, i, dist) for i in first.tolist()])
            self._weights = (table, rows)
        return self._weights


# ---------------------------------------------------------------------------
# null distance


@dataclass(eq=False)
class _SourceRows:
    """One row over every grid point per source point."""

    grid: ConeGrid
    sources: tuple
    rows: np.ndarray  # (len(sources), n_points)

    def value(self, p: tuple[int, int], q: tuple[int, int]) -> float:
        try:
            s = self.sources.index(tuple(p))
        except ValueError:
            raise ParameterError(f"{p} is not one of the computed sources") from None
        return float(self.rows[s, self.grid.node(*q)])


@dataclass(eq=False)
class NullDistanceResult(_SourceRows):
    weight_levels: np.ndarray  # node weights per t-level used for |.|-edge costs
    # pass pairs begun by each batch of _BATCH sources, the passes ending
    # with the first that certified the fixed point: passes // 2 after two
    # quiet passes in a row, (passes + 2) // 2 after one
    sweeps: tuple[int, ...]

    def full_matrix(self) -> np.ndarray:
        if len(self.sources) != self.grid.n_points:
            raise ParameterError("result does not cover all sources")
        return self.rows


def all_grid_points(grid: ConeGrid) -> list[tuple[int, int]]:
    return [(i, j) for i in range(grid.n_levels) for j in range(grid.m)]


def stratified_sources(
    grid: ConeGrid, max_entries: float = 1e6, seed: int = 0
) -> list[tuple[int, int]]:
    """Deterministic stratified source sample: all pairs from these rows stay
    below `max_entries` checked entries. Strata cover both endpoints and the
    interior of the t-grid and of the fiber."""
    n = grid.n_points
    n_src = max(2, int(max_entries // n))
    if n_src >= n:
        return all_grid_points(grid)
    rng = np.random.default_rng(seed)
    # return_index keeps np.unique from importing numpy.ma on a first call
    levels, fibers = (
        np.unique(np.linspace(0, top, n_src).round().astype(int), return_index=True)[0]
        for top in (grid.n_levels - 1, grid.m - 1)
    )
    fib_perm = rng.permutation(fibers)
    return [(int(lev), int(fib_perm[idx % fib_perm.size])) for idx, lev in enumerate(levels)]


def _resolve_sources(
    grid: ConeGrid, sources: Optional[Sequence[tuple[int, int]]]
) -> list[tuple[int, int]]:
    """Checked source points as int pairs; every grid point when `sources` is
    None, refused beyond 6000 points."""
    if sources is None:
        if grid.n_points > 6000:
            raise SizeBoundError(
                f"full matrix over {grid.n_points} points refused; pass explicit sources"
            )
        return all_grid_points(grid)
    sources = [tuple(map(int, s)) for s in sources]
    for i, j in sources:
        grid._check_point(i, j)
    return sources


def null_distance(
    grid: ConeGrid,
    sources: Optional[Sequence[tuple[int, int]]] = None,
    weight_levels: Optional[np.ndarray] = None,
) -> NullDistanceResult:
    """Null distances from the given source points to every grid point.

    `weight_levels` replaces the per-level node weights (default: the t-values
    themselves); it must be strictly increasing. Edge cost between causally
    related points is the absolute weight gap, so any generalized time
    function of the form phi(t) reuses this engine.
    """
    sources = _resolve_sources(grid, sources)
    pi = np.asarray(
        grid.t_levels if weight_levels is None else weight_levels, dtype=float
    )
    if pi.shape != (grid.n_levels,):
        raise InvalidInputError("weight_levels must have one value per t-level")
    if np.any(np.diff(pi) <= 0):
        raise InvalidInputError("weight_levels must be strictly increasing")

    rows = np.empty((len(sources), grid.n_points))
    sweeps = []
    for lo in range(0, len(sources), _BATCH):
        chunk = sources[lo : lo + _BATCH]
        rows[lo : lo + len(chunk)], n = _sweep_rows(grid, chunk, pi)
        sweeps.append(n)
    return NullDistanceResult(grid, tuple(sources), rows, pi, tuple(sweeps))


def _sweep_rows(
    grid: ConeGrid, sources: Sequence[tuple[int, int]], pi: np.ndarray
) -> tuple[np.ndarray, int]:
    """Null-distance rows of a batch of sources, and the pass pairs begun
    (see NullDistanceResult.sweeps)."""
    c_up, c_rev = grid._cover_index()
    n_lv, m, b = grid.n_levels, grid.m, len(sources)

    val = np.empty((n_lv, m, b))
    for s, (i0, j0) in enumerate(sources):
        val[:, :, s] = np.where(grid.causal_row(i0, j0), _level_gaps(pi, i0), np.inf)
        val[i0, j0, s] = 0.0

    # running per-fiber minima of val - pi, level k in rows k*m:(k+1)*m; the
    # last m rows stay +inf for the cover index's padding
    prefix = np.empty(((n_lv + 1) * m, b))
    prefix[n_lv * m :] = np.inf
    # Gauss-Seidel passes reassociate sums, so late iterations can keep
    # shaving single ulps; improvements below this threshold do not count
    # as progress (they are still applied). Scales exactly with the weights,
    # keeping rescaled time functions bitwise proportional.
    eps_stop = 1e3 * np.finfo(float).eps * float(pi[-1] - pi[0])

    def ascend(val: np.ndarray, pi: np.ndarray, index: list[np.ndarray]) -> bool:
        """Relax every future-directed edge in one ascending pass, through
        the cover pairs of each level. Gathered row (w, a) is the prefix
        minimum of the w-th cover pair of (k, a); with w leading, the
        minimum over w runs over contiguous blocks."""
        changed = False
        for k, idx in enumerate(index):
            cand = prefix.take(idx.ravel(), axis=0).reshape(idx.shape[0], m, b).min(axis=0) + pi[k]
            if np.any(cand < val[k] - eps_stop):
                changed = True
            np.minimum(val[k], cand, out=val[k])
            row = val[k] - pi[k]
            if k == 0:
                prefix[:m] = row
            else:
                np.minimum(prefix[(k - 1) * m : k * m], row, out=prefix[k * m : (k + 1) * m])
        return changed

    # Past-directed edges are future-directed on the time-reversed grid, so
    # the passes alternate between the two, and a pass that changes nothing
    # certifies the fixed point when the pass before it ran on the values it
    # found (module docstring): not pass 1, which has no pass before it, and
    # not pass 5, since the bands are closed between passes 4 and 5 when
    # the sweeps are still going. Closing again later saved at most two pass
    # pairs per grid on 48 measured grids and time functions, and cost more
    # than it saved. The count returned is in pass pairs begun, as a rule
    # that stops only at a whole pass pair that changes nothing counts: two
    # quiet passes in a row end pair p // 2; a single quiet pass reads
    # (p + 2) // 2, the pair an ascending pass begins, or the pair after the
    # one a descending pass ends, since that pair still changed something.
    passes = ((val, pi, c_up), (val[::-1], -pi[::-1], c_rev))
    quiet = 0  # passes in a row that changed nothing
    for p in range(1, 8 * (n_lv + 2) + 1):
        if p == 5:
            _close_bands(grid, val, pi)
        quiet = 0 if ascend(*passes[(p - 1) % 2]) else quiet + 1
        if quiet and p not in (1, 5):
            return val.reshape(n_lv * m, b).T, p // 2 if quiet == 2 else (p + 2) // 2
    raise RuntimeError("null-distance sweeps did not stabilize")


def _close_bands(grid: ConeGrid, val: np.ndarray, pi: np.ndarray) -> None:
    """Close each band k, k+1 of val, in ascending order, by shortest paths
    over its edges of cost pi[k+1] - pi[k] (module docstring): a round
    relaxes every edge into level k, then every edge into level k + 1. The
    band's graph is the move index's first depth[k] rows, the entries of
    distances beyond the step's first n_dist[k] padded with their column's
    point. The gathers run in blocks of band points, each under _GATHER_CAP
    entries unless one point's neighbours over all columns exceed it."""
    m, b = grid.m, val.shape[2]
    moves, du, depth, dist = grid._move_index()
    n_dist = np.searchsorted(dist, np.diff(grid.g_levels) + grid.causal_slack, side="right")
    for k, deg in enumerate(depth.tolist()):
        if deg == 1:  # self edges only: the passes close the band
            continue
        nbrs = np.where(du[:deg] < n_dist[k], moves[:deg], np.arange(m, dtype=np.int32))
        step = pi[k + 1] - pi[k]
        block = max(1, _GATHER_CAP // (nbrs.shape[0] * b))  # band points per block
        for _ in range(m):
            changed = False
            for src, dst in ((val[k + 1], val[k]), (val[k], val[k + 1])):
                for lo in range(0, m, block):
                    cand = src.take(nbrs[:, lo : lo + block], axis=0).min(axis=0)
                    cand += step
                    out = dst[lo : lo + block]
                    changed |= (cand < out).any()
                    np.minimum(out, cand, out=out)
            if not changed:
                break


def _level_gaps(x: np.ndarray, levels) -> np.ndarray:
    """|x[k] - x[i]| over the levels k, as an (n_levels, 1) column for a
    level i, or a (b, n_levels, 1) stack for an array of b levels."""
    return np.abs(x - x[levels][..., None])[..., None]


def _source_blocks(grid: ConeGrid, result: NullDistanceResult) -> Iterator[tuple]:
    """The sources of `result` in order, in blocks of b: yields (sources,
    levels, fibers, rows, dists, gaps, causal) with the block's rows and
    causal mask (b, n_levels, m), each source's fiber distances (b, 1, m)
    and G-gaps (b, n_levels, 1). An array holds at most _GATHER_CAP
    entries, unless one source's row alone holds more."""
    block = max(1, _GATHER_CAP // grid.n_points)
    src = np.array(result.sources, dtype=int).reshape(-1, 2)
    for lo in range(0, len(src), block):
        levels, fibers = src[lo : lo + block].T
        rows = result.rows[lo : lo + block].reshape(-1, grid.n_levels, grid.m)
        dists = grid.fiber.dist[fibers][:, None, :]
        gaps = _level_gaps(grid.g_levels, levels)
        causal = grid.causal_row(levels, fibers)
        yield result.sources[lo : lo + block], levels, fibers, rows, dists, gaps, causal


def null_distance_guarantees(grid: ConeGrid, result: NullDistanceResult) -> GuaranteeReport:
    """Check the structural inequalities on computed null-distance rows.

    Exact claims (violations are reported at tolerance 1e-12):
      * causal pairs realize the weight gap exactly,
      * f_min * d(x_p, x_q) <= dhat(p, q),
      * no zero off-diagonal entries,
      * anti-Lipschitz of t on causal pairs: dt >= f_min * d.
    Grid-tolerant claim (violations beyond the tolerance are reported with a
    refinement hint):
      * dhat(p, q) <= f_max * d(x_p, x_q) on non-causal pairs, within
        (2 + f_max) * step (fiber quantization enters at the local speed of
        the warping).
    """
    tol_fmax = (2.0 + grid.f_max) * grid.grid_step()
    rep = GuaranteeReport()
    pi = result.weight_levels
    for srcs, levels, fibers, rows, dists, _, causal in _source_blocks(grid, result):
        ix = np.arange(levels.size)
        err = np.where(causal, np.abs(rows - _level_gaps(pi, levels)), 0.0).max(axis=(1, 2))
        lower = (rows - grid.f_min * dists).reshape(ix.size, -1)
        low_at = lower.argmin(axis=1)
        upper = np.where(causal, np.inf, grid.f_max * dists - rows).min(axis=(1, 2))
        has_non = ~causal.all(axis=(1, 2))
        off = rows > 0
        off[ix, levels, fibers] = True
        definite = off.all(axis=(1, 2))
        dt = _level_gaps(grid.t_levels, levels)
        fut = causal & (dt > 0)  # causal pairs off the source's level
        anti = np.where(fut, dt - grid.f_min * dists, np.inf).min(axis=(1, 2))
        anti[~fut.any(axis=(1, 2))] = 0.0
        for s, src in enumerate(srcs):
            worst = float(err[s])
            bad = worst > 1e-12
            rep.record("causal-exact", -worst if bad else 0.0, (src, worst) if bad else None)
            wl = float(lower[s, low_at[s]])
            rep.record("lower-bound", wl, (src, grid.point(low_at[s]), wl) if wl < -1e-12 else None)
            if has_non[s]:
                wu = float(upper[s])
                bad = wu < -tol_fmax
                rep.record("upper-bound", wu + tol_fmax, (src, float(-wu)) if bad else None)
                if bad:
                    rep.notes.append(
                        f"upper bound missed by {-wu:.3g} at source {src}; "
                        "refine the grid (error shrinks with 1/n_t)"
                    )
            rep.record("definiteness", 0.0, None if definite[s] else src)
            wa = float(anti[s])
            rep.record("anti-lipschitz", wa, src if wa < -1e-12 else None)
    return rep


# ---------------------------------------------------------------------------
# time separation


@dataclass(eq=False)
class TimeSeparationResult(_SourceRows):
    """Time-separation rows, zero where no positive separation is found."""


def _level_step_weights(grid: ConeGrid, i: int, dist: np.ndarray) -> np.ndarray:
    """Lengths of fiber moves over distances `dist` on the step level i -> i+1:
    sqrt(dt^2 - f(mid)^2 d^2) on strict moves, zero on exactly-null moves and
    -inf on moves that are not causal."""
    gap = grid.g_levels[i + 1] - grid.g_levels[i]
    dt = grid.t_levels[i + 1] - grid.t_levels[i]
    fd = grid.f_mid[i] * dist
    w = np.sqrt(np.clip(dt * dt - fd * fd, 0.0, None))
    w = np.where(dist < gap - grid.causal_slack, w, 0.0)
    return np.where(dist <= gap + grid.causal_slack, w, -np.inf)


def _dp_levels(
    grid: ConeGrid, sources: Sequence[tuple[int, int]], top: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Longest single-step path values from `sources`, level by level up to
    `top`: yields (i, cols, val) with val (m, len(cols)) the values on level
    i from the sources `cols` (indices into `sources`) at or below level i,
    -inf where no causal chain arrives. A source's column enters with 0 at
    its own point on its own level and is not stepped before.

    A level step gathers the move index's first depth[i] rows, which hold
    the step's moves, in column blocks of bounded gather size, adds their
    step lengths from the grid's step table (-inf off the step's moves) and
    takes the maximum down each column.
    """
    nbrs, du, depth, _ = grid._move_index()
    table, rows = grid._step_weights()
    levels = np.array([i for i, _ in sources], dtype=int)
    order = np.argsort(levels, kind="stable")
    levels = levels[order]
    fibers = np.array([sources[s][1] for s in order], dtype=int)
    first = int(levels.min(initial=top + 1))
    counts = np.searchsorted(levels, np.arange(first, top + 1), side="right").tolist()
    val = np.empty((grid.m, 0))
    for i, k in enumerate(counts, first):
        n = val.shape[1]
        nxt = np.empty((grid.m, k))
        if n:
            d = depth[i - 1]
            w = table[rows[i - 1]].take(du[:d])[..., None]
            block = max(1, _GATHER_CAP // w.size)
            for lo in range(0, n, block):
                cand = val[:, lo : lo + block].take(nbrs[:d], axis=0)
                cand += w
                nxt[:, lo : lo + cand.shape[2]] = cand.max(axis=0)
        if k > n:
            nxt[:, n:] = -np.inf
            nxt[fibers[n:k], np.arange(n, k)] = 0.0
        val = nxt
        yield i, order[:k], val


def _dp_rows(grid: ConeGrid, sources: Sequence[tuple[int, int]], top: int) -> np.ndarray:
    """The values of `_dp_levels` up to level `top` as raw (len(sources),
    n_points) rows: -inf where no causal chain arrives, on every point below
    a source's own level and on every level above `top`."""
    m = grid.m
    rows = np.full((len(sources), grid.n_points), -np.inf)
    for i, cols, val in _dp_levels(grid, sources, top):
        rows[cols, i * m : (i + 1) * m] = val.T
    return rows


def time_separation(
    grid: ConeGrid, sources: Optional[Sequence[tuple[int, int]]] = None
) -> TimeSeparationResult:
    """Longest-path approximation of the time separation from below.

    Dynamic program over the DAG of causally related pairs on consecutive
    t-levels; segment length sqrt(dt^2 - f(mid)^2 d^2) clamped at zero, and
    exactly-null steps contribute zero, so a positive output certifies a
    chronological pair. One pass over the levels serves every source.
    """
    sources = _resolve_sources(grid, sources)
    rows = _dp_rows(grid, sources, grid.n_t)
    np.maximum(rows, 0.0, out=rows)
    return TimeSeparationResult(grid, tuple(sources), rows)


def _read_back(
    grid: ConeGrid, row: np.ndarray, p: tuple[int, int], q: tuple[int, int]
) -> tuple[float, list[tuple[int, int]], np.ndarray]:
    """A maximizing single-step path from p to q read back from p's raw DP
    row (from `_dp_rows`, up to at least q's level; -inf below p's level) as
    (value, path, acc).

    At each level the predecessor is the smallest fiber index in the current
    point's column of the move index whose value plus step length meets the
    current value within 1e-12. acc holds the running sums of the step
    lengths of the path, read from the grid's step table at the hits, added
    front to back from 0. When no chain reaches q the result is (0.0, [],
    an empty acc); p itself gives (0.0, [p], [0.0]).
    """
    i0, (i1, j1) = int(p[0]), map(int, q)
    m = grid.m
    total = row[i1 * m + j1]
    if not math.isfinite(total):
        return 0.0, [], np.empty(0)
    nbrs, du, _, _ = grid._move_index()
    table, rows = grid._step_weights()
    path = [(i1, j1)]
    steps = []
    cur = j1
    for i in range(i1 - 1, i0 - 1, -1):
        prev = nbrs[:, cur]
        w = table[rows[i]].take(du[:, cur])
        cand = row[i * m + prev] + w
        hit = np.flatnonzero(np.isfinite(cand) & (np.abs(cand - row[(i + 1) * m + cur]) <= 1e-12))
        if hit.size == 0:
            raise RuntimeError("backtracking lost the maximizing path")
        r = hit[np.argmin(prev[hit])]
        cur = int(prev[r])
        path.append((i, cur))
        steps.append(float(w[r]))
    acc = np.array(list(itertools.accumulate(steps[::-1], initial=0.0)))
    return float(max(total, 0.0)), path[::-1], acc


def time_separation_path(
    grid: ConeGrid, p: tuple[int, int], q: tuple[int, int]
) -> tuple[float, list[tuple[int, int]]]:
    """One maximizing single-step path realizing the DP value (empty when the
    value is zero and the pair is not a trivial/causal-start pair).

    One DP run from p up to the level of q (`_dp_rows`), then the path is
    read back from that row by `_read_back`.
    """
    p, q = tuple(map(int, p)), tuple(map(int, q))
    grid._check_point(*p)
    grid._check_point(*q)
    value, path, _ = _read_back(grid, _dp_rows(grid, [p], q[0])[0], p, q)
    return value, path


# ---------------------------------------------------------------------------
# reparametrized time functions phi(t)


@dataclass
class PhiReport:
    causal_exact: bool
    worst_causal_error: float
    gap_bound_holds: bool
    worst_gap_margin: float
    c_constant: float
    n_checked: int
    witness: Optional[tuple] = None


def null_distance_phi(
    grid: ConeGrid,
    phi: Callable[[np.ndarray], np.ndarray],
    sources: Optional[Sequence[tuple[int, int]]] = None,
) -> tuple[NullDistanceResult, PhiReport]:
    """Null distance for the time function phi(t) with a verification report.

    phi is read at the t-levels only, where it must be strictly increasing.
    Checks on every computed pair, within 1e-9: causal pairs realize
    phi(t_q) - phi(t_p) exactly, and non-causal pairs (ordered so
    t_p <= t_q) obey

        dhat_phi(p, q) >= phi(t_q) - phi(t_p) + (d(x_p, x_q) - (G(t_q) - G(t_p))) / c

    with the grid constant c = max_k (G[k+1] - G[k]) / (phi[k+1] - phi[k]).
    Proof, for any path of causal edges from p to q:
      * every edge moves the fiber by at most its G-gap (plus the causal
        slack), so d(x_p, x_q) is at most the path's G-variation;
      * G read as a function of phi on the levels is c-Lipschitz; both
        increase with the level, so the path's variation of either beyond
        its net gap is twice its sum over the edges back in time, and the
        G-excess is at most c times the phi-excess;
      * the path's cost is its phi-variation, so it is at least the bound,
        less one causal_slack / c per edge, which the 1e-9 tolerance covers.
    """
    phi_levels = np.asarray(phi(grid.t_levels), dtype=float)
    result = null_distance(grid, sources=sources, weight_levels=phi_levels)
    c_const = float(np.max(np.diff(grid.g_levels) / np.diff(phi_levels)))

    worst_causal = 0.0
    worst_margin = np.inf
    witness = None
    for srcs, levels, _, rows, dists, gaps, causal in _source_blocks(grid, result):
        phigap = _level_gaps(phi_levels, levels)
        worst_causal = max(worst_causal, float(np.where(causal, np.abs(rows - phigap), 0.0).max()))
        margin = np.where(causal, np.inf, rows - (phigap + (dists - gaps) / c_const))
        margin = margin.reshape(len(srcs), -1)
        at = margin.argmin(axis=1)
        mins = margin[np.arange(len(srcs)), at]
        s = int(mins.argmin())  # the first source at the minimum, at its first point
        if mins[s] < worst_margin:
            worst_margin = float(mins[s])
            witness = (srcs[s], grid.point(at[s]))
    return result, PhiReport(
        causal_exact=worst_causal <= 1e-9,
        worst_causal_error=worst_causal,
        gap_bound_holds=bool(worst_margin >= -1e-9),
        worst_gap_margin=worst_margin if math.isfinite(worst_margin) else 0.0,
        c_constant=c_const,
        n_checked=result.rows.size,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# induced fiber metric


@dataclass
class FiberComparisonReport:
    t_index: int
    lower_ok: bool
    upper_ok: bool
    worst_lower_margin: float
    worst_upper_margin: float
    unit_equal_count: int
    unit_max_deviation: float
    n_pairs: int
    note: str = ""


def fiber_metric_comparison(grid: ConeGrid, t0: float) -> FiberComparisonReport:
    """Compare the null distance restricted to the slice t = t0 with the fiber
    metric: f_min * d <= dhat <= f_max * d + (2 + f_max) * step.

    For unit warping the slice metric equals d up to at most one t-step: a
    closed path must balance its up and down moves, so slice costs live on the
    lattice of doubled t-steps and odd fiber gaps cannot be hit exactly.
    """
    if not grid.interval.contains(t0):
        raise ParameterError(f"t0={t0!r} outside the interval")
    i0 = int(np.argmin(np.abs(grid.t_levels - t0)))
    tol = (2.0 + grid.f_max) * grid.grid_step()
    sources = [(i0, j) for j in range(grid.m)]
    res = null_distance(grid, sources=sources)
    m = grid.m
    slice_nodes = [grid.node(i0, j) for j in range(m)]
    sub = res.rows[:, slice_nodes]
    d = grid.fiber.dist
    lower = sub - grid.f_min * d
    upper = grid.f_max * d + tol - sub
    is_unit = grid.f_min == 1.0 == grid.f_max
    dev = np.abs(sub - d)
    return FiberComparisonReport(
        t_index=i0,
        lower_ok=bool(lower.min() >= -1e-12),
        upper_ok=bool(upper.min() >= -1e-12),
        worst_lower_margin=float(lower.min()),
        worst_upper_margin=float(upper.min()),
        unit_equal_count=int(np.sum(dev <= 1e-12)) if is_unit else 0,
        unit_max_deviation=float(dev.max()) if is_unit else float("nan"),
        n_pairs=m * m,
        note="unit warping: equality up to one t-step (parity of closed paths)"
        if is_unit
        else "",
    )


# ---------------------------------------------------------------------------
# minimizer structure


@dataclass
class MinimizerAnalysis:
    path: list
    run_defects: list
    grid_step: float
    diagnostic: str = ""


def minimizer_analysis(grid: ConeGrid, p: tuple[int, int], q: tuple[int, int]) -> MinimizerAnalysis:
    """Extract one minimizing path and report, per maximal monotone run, the
    nullity defect (G(t_end) - G(t_start)) - d(fiber endpoints of the run).

    The distances from p are the sweep engine's row `null_distance(grid, [p])`,
    so the grid size is bounded as for `null_distance`: SizeBoundError when
    levels x fiber pairs exceed `_TABLE_CAP`, the bound on the sweep cover
    index's pair-class work and int32 flat indices. The path is read
    back from q by `metric_core.read_back_path`: each step goes to a causally
    comparable point of smallest distance (then smallest node index) whose
    distance plus |dt| meets the current one within 1e-12; RuntimeError if
    none does.
    """
    p, q = tuple(map(int, p)), tuple(map(int, q))
    grid._check_point(*p)
    grid._check_point(*q)
    if p == q:
        return MinimizerAnalysis([], [], grid.grid_step(), "trivial pair")
    rel = grid.causal_relation(p, q)
    rel_back = grid.causal_relation(q, p)
    if rel != NONE or rel_back != NONE:
        return MinimizerAnalysis(
            [p, q], [], grid.grid_step(), "causal pair: the direct edge minimizes"
        )
    dist = null_distance(grid, [p]).rows[0]
    dst = grid.node(*q)
    if not math.isfinite(dist[dst]):
        return MinimizerAnalysis([], [], grid.grid_step(), "unreachable pair")

    def weight_row(v: int) -> np.ndarray:
        i, j = grid.point(v)
        return np.where(grid.causal_row(i, j), _level_gaps(grid.t_levels, i), np.inf).ravel()

    path = [grid.point(v) for v in read_back_path(dist, weight_row, grid.node(*p), dst)]
    runs = []
    start = 0
    for k in range(1, len(path)):
        direction = np.sign(path[k][0] - path[k - 1][0])
        if k > 1:
            prev = np.sign(path[k - 1][0] - path[start][0]) or direction
            if direction != prev and direction != 0:
                runs.append((start, k - 1))
                start = k - 1
    runs.append((start, len(path) - 1))
    defects = []
    for a, b in runs:
        ia, ja = path[a]
        ib, jb = path[b]
        gap = abs(grid.g_levels[ib] - grid.g_levels[ia])
        defects.append(((path[a], path[b]), float(gap - grid.fiber.dist[ja, jb])))
    return MinimizerAnalysis(path, defects, grid.grid_step())
