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
(levels, U) table for U distinct distances, built in blocks of levels from
one search of each level pair's G-gap among the distances. The
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
W_k = m, the full gather. The graph's edges are found from near neighbours
first: a witness against edge (a, b) lies nearer to both ends than they lie
to each other, so round r tests each undecided pair against the r-th
nearest point of either end, until the round that reaches b from a decides
the pair (`ConeGrid._relays`); on paths, circles, tripods and plane clouds
the relays cost O(m^2 log m), and O(m^3) only at worst. The
rule reads a pair only through the distances of (a, c), (a, c') and
(c', c), so the index is built once per grid from pair classes, the pairs
grouped by those three distances, sorted by distance, with T' >= 0 on a
prefix of them at each level. The rule is evaluated on dense blocks of
levels x the longest prefix among them, each under _GATHER_CAP
evaluations, and only the kept classes are expanded into pairs, in runs of
levels under _GATHER_CAP pairs: one sort of packed int32 keys (level in the
run, pair, T') orders a run's pairs by level, column and fiber point, and
one scatter lays them out in a buffer the run's levels share. A grid costs
O(levels x classes) plus its kept pairs, m^2 classes at worst, when every
pair is a class of its own, as on a random point cloud, in a few dozen
numpy calls per block rather than per level. Rounding: the relay reads
val[j, c'] - pi[j], which may differ from the dropped P[T'(k, a, c), c] by
an ulp when the sums are not exact, so rows can move by ulps against a full
gather; on dyadic grids every sum is exact and the rows are bitwise equal.

The index is a function of the sweep table and the pair classes, so when
the time-reversed table equals the forward one, as on every constant
warping over the uniform t-grid (every product cone), both directions read
the forward index and the reversed one is not built; the cached index
arrays are read-only, so neither direction can change the other's. The
start values, the weight gap on each source's causal points (the test of
`ConeGrid._causal`, which `causal_row` makes too), are written in blocks
of levels x every source of a chunk, sources last as in the swept values,
so each block is one contiguous write; finished rows are copied out in
blocks of points, each a transposed tile that stays in cache.

An ascending pass leaves every future-directed edge relaxed and a descending
pass every past-directed one, so a pass that changes nothing certifies the
fixed point when it runs right after a pass of the other direction, on the
values that pass left; the sweeps stop at the first such pass. `sweeps`
counts pass pairs begun, the count of the rule that stops only at a whole
pass pair that changes nothing: passes // 2 when the last two passes both
changed nothing, (passes + 2) // 2 otherwise.

Sources are swept in batches of _BATCH columns, and one level loop serves
as many whole batches side by side as fit under _CHUNK_CAP values, at least
one. Each batch keeps its own stop rule and count: the quiet-pass test is
reduced to one flag per batch, and a batch that stops leaves the chunk, the
others going on without its columns. Every step acts on each column alone
(gathers along the levels, minima over gathered rows, elementwise sums),
and a band-closure step after the first that leaves a column unchanged
leaves it unchanged in every later step, so each batch ends bitwise as it
would alone. `_sweep_chunks` is the chunk rule. `null_distance` writes
every chunk into the one result it returns; the CLI's `nulldist` and
`convergence.null_convergence_check` call it one chunk at a time instead,
checking and writing each chunk's rows before the next, so they hold one
chunk x n_points rows rather than the whole matrix, with every row and
sweep count bitwise the same.

A pass pair finds one turn of a path, so a minimizer that zigzags between
two adjacent levels, as minimizers of a nonlinear time function phi do where
phi' f is smallest, would cost one pass pair per turn. A band closure moves
such a zigzag in one step. In the band of levels k, k+1 every causal edge
joins the two levels and costs pi[k+1] - pi[k], so closing the band is a
shortest path over its edges, the fiber pairs causal across the step (the
leading rows of the move index the time-separation DP reads), from the
band's current values. Band by band, the closure relaxes every edge into the
lower level, then every edge into the higher one, and so on by turns. After
step s every path of up to s - 1 edges is reached, and a shortest path on
the band's 2m points has at most 2m - 1, so 2m steps bound the loop. It
stops at the first step after the first that changes nothing, the passes'
certificate on two levels: the quiet step leaves its level as the step
before read it, so the next step would relax the same edges from the same
values again. It ends bitwise where whole rounds of both steps, run until a
round changes nothing, would end. It is exact: every value it writes is the
cost of a path of causal edges, so no value drops below the null distance.
It runs once, after the fourth pass, so runs that settle sooner, such as
phi = t or phi = 2t + 5 on a product cone, keep their arithmetic bit for
bit; bands with self edges only (depth 1) are skipped, since the passes
already close them. The closure lowers values on both levels of a band,
and past-directed edges from those values are relaxed only by a descending
pass, so the ascending pass right after it certifies nothing: such runs
stop at the sixth pass at the earliest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, ParameterError, SizeBoundError
from .metric_core import FiniteLengthSpace, _monotone_runs, read_back_path
from .reporting import GuaranteeReport
from .warping import Interval, WarpingFunction

DEFAULT_N_T = 200  # t-steps of a cone document that gives no n_t
PAIR_BUDGET = 1_000_000  # checked entries a source sample stays under
_TABLE_CAP = 3e8  # levels x fiber pairs: cover-index pair-class work and int32 flat indices
# entries per block: time-separation columns, band points, checked rows, CSV
# rows and the sweeps' start values (levels x a chunk's sources); the sweeps
# copy finished rows out in blocks of _GATHER_CAP // 16 values (32 KB), a
# transposed tile that stays in cache
_GATHER_CAP = 1 << 16
_CHUNK_CAP = 1 << 18  # null-distance values swept side by side: whole batches, at least one
_BATCH = 64  # sources per null-distance sweep batch
CHRONOLOGICAL, CAUSAL, NONE = "chronological", "causal", "none"


@dataclass(eq=False)
class ConeGrid:
    interval: Interval
    fiber: FiniteLengthSpace
    warping: WarpingFunction
    n_t: int

    def __post_init__(self):
        if self.n_t < 1:
            raise ParameterError("need at least one t-step")
        if not (self.warping.domain.a <= self.interval.a and self.interval.b <= self.warping.domain.b):
            raise InvalidInputError("warping domain does not cover the interval")
        if not np.all(np.isfinite(self.fiber.dist)):
            raise InvalidInputError("fiber must be connected (finite distances)")
        self.t_levels = np.linspace(self.interval.a, self.interval.b, self.n_t + 1)
        self.g_levels = np.asarray(self.warping.recip_integral(self.t_levels), dtype=float)
        # f is positive on its domain; G must also increase in floating point
        if np.any(np.diff(self.g_levels) <= 0):
            raise InvalidInputError("warping must be strictly positive on the interval")
        self.f_min, self.f_max = self.warping.extrema(self.interval)
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
        self._moves: Optional[tuple[np.ndarray, ...]] = None

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
        return self._causal(self.fiber.dist[j][..., None, :], _level_gaps(self.g_levels, i))

    def _causal(self, d: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """The causal test of fiber distances d against G-gaps |G_k - G_i|,
        broadcast together: causal_row's, and the sweeps' start values'."""
        return d <= gaps + self.causal_slack

    def chronological_row(self, i, j) -> np.ndarray:
        """Boolean (n_levels, m) array: points in the chronological future of
        (i, j), the strict predicate of causal_relation (levels k <= i have
        a G-gap of at most 0 and drop out). Arrays of levels i and fibers j
        of shape (b,) give the (b, n_levels, m) stack of their rows."""
        gaps = (self.g_levels - self.g_levels[np.asarray(i)][..., None])[..., None]
        return self.fiber.dist[j][..., None, :] < gaps - self.causal_slack

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

    def _table_bytes(self) -> int:
        """The bytes of the two sweep tables of `_level_tables`, without
        building them."""
        n_dist = np.unique(self.fiber.dist).size
        return 2 * self.n_levels * n_dist * _table_dtype(self.n_levels).itemsize

    def _last_causal_levels(self, g: np.ndarray, dist: np.ndarray) -> np.ndarray:
        # causal_row's expression |G_i - G_k| + slack only falls as i rises
        # towards k, so the causal levels i <= k form a prefix, and its end
        # is k less the levels i <= k with |G_i - G_k| + slack < dist[u].
        # Those are counted in blocks of levels k under _GATHER_CAP entries:
        # searchsorted(dist, gap, "right") is the first distance index u at
        # which level i fails (dist ascends), and a running sum over u of how
        # many levels fail first at each u counts them exactly. Entries run
        # from -1 to g.size - 1 and fall as the distance grows.
        n, n_d = g.size, dist.size
        table = np.empty((n, n_d), dtype=_table_dtype(n))
        block = max(1, _GATHER_CAP // (n + n_d + 1))  # levels k per block
        for k0 in range(0, n, block):
            k1 = min(n, k0 + block)
            k = np.arange(k0, k1)[:, None]
            fails_at = np.searchsorted(dist, np.abs(g[:k1] - g[k]) + self.causal_slack, side="right")
            fails_at[np.arange(k1) > k] = n_d  # levels above k never count
            fails_at += (k - k0) * (n_d + 1)  # one histogram row per level k
            hist = np.bincount(fails_at.ravel(), minlength=k.size * (n_d + 1)).reshape(k.size, n_d + 1)
            rows = table[k0:k1]
            np.cumsum(hist[:, :n_d], axis=1, out=rows)  # counts up to k + 1 fit the table's dtype
            np.subtract(k, rows, out=rows)
        return table

    def _cover_index(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per sweep table, one int32 (W_k, m) gather index per level k:
        column a holds T'(k, a, c)*m + c for the pairs (a, c) that no relay
        covers (module docstring), padded with the +inf row n_levels*m."""
        if self._cover is None:
            # the pair classes take up to m^2 entries per level, and flat
            # indices into levels x pairs must fit int32
            if self.n_levels * self.m * self.m > _TABLE_CAP:
                raise SizeBoundError(
                    "the sweep cover index over levels x fiber pairs would exceed "
                    "its size cap; use a coarser fiber or time_separation-style queries"
                )
            up, rev, inv = self._level_tables()
            classes = self._pair_classes(inv)
            fwd = self._cover_levels(up, *classes)
            # the index is a function of the table and the classes, so a
            # time-symmetric grid's reversed index is the forward one
            back = fwd if np.array_equal(up, rev) else self._cover_levels(rev, *classes)
            for idx in itertools.chain(fwd, back):
                idx.flags.writeable = False  # shared, so no direction may write it
            self._cover = (fwd, back)
        return self._cover

    def _relays(self) -> np.ndarray:
        """relay[a, c]: the neighbour c' of a in the fiber's relative
        neighbourhood graph with the least d(a, c') + d(c', c), ties to the
        smallest index; a itself when a has no neighbour. (a, b) is an edge
        unless some witness c has max(d(a, c), d(c, b)) < d(a, b).

        The test is symmetric in (a, b), so each pair is decided once, a < b,
        and first against the near neighbours of its ends, where a witness,
        nearer to both ends than they are to each other, is likely to sit:
        round r tests each pair still undecided against the r-th nearest
        other point of a and of b. A witness decides the pair; an r-th nearest
        point at least d(a, b) from its end decides it an edge, since every
        point nearer that end was tested. The round that reaches b in a's
        list does so at the latest, so the rounds end by round m - 2. A round
        costs O(its pairs), so the rounds cost O(m^2) when they halve the
        pairs: two rounds decide every pair on paths, circles and tripods,
        and 8-11 rounds on plane clouds of 150-1000 points. With the sort of
        each point's distances and the argmin over each point's neighbours,
        one rank at a time, that is O(m^2 (log m + max degree)); rounds that
        decide few pairs each, as between two far clusters, reach O(m^3) at
        worst."""
        d, m = self.fiber.dist, self.m
        if m < 2:
            return np.zeros((m, m), dtype=np.intp)
        flat = d.reshape(-1)
        order = d.copy()
        np.fill_diagonal(order, -np.inf)  # each point first in its own row
        near = np.argsort(order, axis=1)[:, 1:]  # the other points by distance, nearest first
        a, b = np.triu_indices(m, 1)
        dab = flat.take(a * m + b)
        edge = np.zeros((m, m), dtype=bool)
        for r in range(m - 1):
            c, dc = near[:, r], flat.take(np.arange(m) * m + near[:, r])
            da, db = dc.take(a), dc.take(b)
            lune = ((da < dab) & (flat.take(c.take(a) * m + b) < dab)) | (
                (db < dab) & (flat.take(c.take(b) * m + a) < dab)
            )
            known = (da >= dab) | (db >= dab)  # every point nearer an end tested
            found = known & ~lune
            edge[a[found], b[found]] = True
            left = ~(lune | known)
            a, b, dab = a[left], b[left], dab[left]
            if not a.size:
                break
        edge |= edge.T
        # each point's neighbours ascending, padded with the point itself at
        # an infinite hop; the argmin runs over the neighbour ranks, a strict
        # drop moving on, so ties go to the smallest index
        src, nbr = np.nonzero(edge)
        deg = np.bincount(src, minlength=m)
        rank = np.arange(src.size) - np.repeat(np.cumsum(deg) - deg, deg)
        nbrs = np.repeat(np.arange(m)[:, None], deg.max(), axis=1)
        hop = np.full(nbrs.shape, np.inf)
        nbrs[src, rank], hop[src, rank] = nbr, d[src, nbr]
        best = hop[:, :1] + d[nbrs[:, 0]]
        relay = np.repeat(nbrs[:, :1], m, axis=1)
        for r in range(1, nbrs.shape[1]):
            via = hop[:, r : r + 1] + d[nbrs[:, r]]
            drop = via < best
            np.copyto(relay, nbrs[:, r : r + 1], where=drop)
            np.minimum(best, via, out=best)
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
        # the rule on blocks of levels x the class prefix, with T' =
        # min(table[k], k - 1) read once per pair class: a class goes when
        # T' = -1, when a one level down covers it (T'(k-1, a, c) >= T'), or
        # when the relay covers it: at j = T'(k, a, c') both table[j, w] and
        # j - 1 reach T'. T' is -1 on level 0 and falls with the distance, so
        # the classes with T' >= 0 are a prefix, and a class past a level's
        # prefix (T' = -1) is never kept. A block's levels keep its class
        # evaluations under _GATHER_CAP entries, at least one level. Flat
        # indices fit int32 under _TABLE_CAP; j = -1 wraps to a valid read
        # that j > T' then discards
        m, (n_lv, n_u) = self.m, table.shape
        flat, sizes = table.reshape(-1), np.diff(offsets)
        ends = np.searchsorted(u, np.count_nonzero(table >= 0, axis=1))  # rise with k
        keyed = pairs * n_lv  # a pair's key on a run's first level
        span = m * m * n_lv  # the keys of one level
        most = (1 << 31) // span  # levels in a run of int32 keys
        index = [np.full((1, m), n_lv * m, dtype=np.int32)]
        k0 = 1
        while k0 < n_lv:
            k1 = k0 + max(1, np.count_nonzero(np.arange(1, n_lv - k0 + 1) * ends[k0:] <= _GATHER_CAP))
            n = ends[k1 - 1]
            lv = np.arange(k0 - 1, k1, dtype=table.dtype)[:, None]
            clamped = np.minimum(table[k0 - 1 : k1].take(u[:n], axis=1), lv - 1)
            prev, cur = clamped[:-1], clamped[1:]
            j = np.minimum(table[k0:k1].take(v[:n], axis=1), lv[1:] - 1)
            via = flat.take(j.astype(np.int32) * n_u + w[:n])
            kept = np.flatnonzero((prev < cur) & ((j <= cur) | (via < cur)))  # level * n + class
            # the kept classes' pairs, expanded in runs of levels that hold
            # under _GATHER_CAP pairs (at least one level) and whose keys
            # (level in the run * m^2 + pair) * n_lv + T' fit int32; sorted,
            # a level's column holds its entries contiguously
            first = np.searchsorted(kept, np.arange(k1 - k0 + 1) * n)  # each level's first kept class
            level = kept // n
            base = level * span + cur.ravel().take(kept)
            cls = kept - level * n
            counts = sizes.take(cls)
            before = np.append(0, np.cumsum(counts))  # the block's pairs before each kept class
            done = before[first]
            shift = offsets.take(cls) - before[:-1]
            s0 = 0
            while s0 < k1 - k0:
                s1 = np.searchsorted(done, done[s0] + _GATHER_CAP, side="right") - 1
                s1 = min(max(s1, s0 + 1), s0 + most)
                lo, hi = first[s0], first[s1]
                pos = np.repeat(shift[lo:hi], counts[lo:hi])
                pos += np.arange(done[s0], done[s1])
                key = keyed.take(pos)
                key += np.repeat((base[lo:hi] - s0 * span).astype(np.int32), counts[lo:hi])
                key.sort()
                index += _lay_out(key, s1 - s0, m, n_lv)
                s0 = s1
            k0 = k1
        return index

    def _move_index(self) -> tuple[np.ndarray, ...]:
        """The fiber moves of every level step as (nbrs, du, depth, dist,
        table). Column a of the int32 (deg, m) nbrs lists the points c causal
        to a across the widest step, d(c, a) <= G-gap + slack, nearest first
        with ties to the smallest index, padded with a at an infinite
        distance; du indexes each entry's distance in dist, the ascending
        distinct move distances and inf. Entry (r, a) has length
        table[k, du[r, a]] on step k: row k is `_level_step_weights`, finite
        on a prefix, the step's moves. depth[k] counts the rows whose least du
        lies in that prefix, the rows that hold step k's moves."""
        if self._moves is None:
            widest = np.diff(self.g_levels).max() + self.causal_slack
            a, src = np.nonzero(self.fiber.dist.T <= widest)  # a ascending
            d = self.fiber.dist[src, a]
            order = np.lexsort((d, a))  # stable: equal distances keep src ascending
            counts = np.bincount(a, minlength=self.m)
            rank = np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
            dist, inv = np.unique(np.append(d, np.inf), return_inverse=True)
            nbrs = np.repeat(np.arange(self.m, dtype=np.int32)[None], counts.max(), axis=0)
            du = np.full(nbrs.shape, dist.size - 1, dtype=np.int32)
            nbrs[rank, a], du[rank, a] = src[order], inv[order]
            table = _level_step_weights(self, np.arange(self.n_t)[:, None], dist)
            # a row's least du ascends with the row
            depth = np.searchsorted(du.min(axis=1), np.isfinite(table).sum(axis=1))
            self._moves = (nbrs, du, depth, dist, table)
        return self._moves


def _lay_out(key: np.ndarray, n_run: int, m: int, n_lv: int) -> list[np.ndarray]:
    """The int32 (W, m) gather index of each level of a run of n_run levels
    from their kept pairs' sorted keys (level in the run * m^2 + a*m + c) *
    n_lv + T': column a holds T'*m + c for its pairs (a, c) by c ascending,
    padded with n_lv*m, and W is the widest column's count, at least 1. The
    run's levels share one buffer."""
    pair = key // n_lv
    group = pair // m  # level in the run * m + a
    bounds = np.searchsorted(group, np.arange(n_run * m + 1))
    counts = np.diff(bounds)
    size = np.maximum(counts.reshape(n_run, m).max(axis=1), 1) * m
    start = np.cumsum(size) - size
    out = np.full(int(start[-1] + size[-1]), n_lv * m, dtype=np.int32)
    # entry e of group (l, a) goes to start[l] + (e - bounds[group]) * m + a
    at = np.repeat((start[:, None] + np.arange(m)).ravel() - bounds[:-1] * m, counts)
    at += np.arange(0, key.size * m, m)
    out[at] = (key - pair * n_lv) * m + pair - group * m  # T' * m + c
    return [out[s : s + n].reshape(-1, m) for s, n in zip(start.tolist(), size.tolist())]


def _table_dtype(n_levels: int) -> np.dtype:
    """The integer type of a sweep table over n_levels levels: its entries
    run from -1 to n_levels - 1."""
    return np.dtype(np.int16 if n_levels < 32768 else np.int32)


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
    # quiet passes in a row, (passes + 2) // 2 after one. Batches swept side
    # by side each stop on their own rule, so the counts are those of each
    # batch swept alone
    sweeps: tuple[int, ...]

    def full_matrix(self) -> np.ndarray:
        if len(self.sources) != self.grid.n_points:
            raise ParameterError("result does not cover all sources")
        return self.rows


def all_grid_points(grid: ConeGrid) -> list[tuple[int, int]]:
    return [(i, j) for i in range(grid.n_levels) for j in range(grid.m)]


def stratified_sources(grid: ConeGrid, max_entries: float, seed: int) -> list[tuple[int, int]]:
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
    for lo, chunk in _sweep_chunks(grid, sources):
        sweeps += _sweep_rows(grid, chunk, pi, rows[lo : lo + len(chunk)])
    return NullDistanceResult(grid, tuple(sources), rows, pi, tuple(sweeps))


def _sweep_chunks(grid: ConeGrid, sources: Sequence) -> Iterator[tuple[int, Sequence]]:
    """The sources as (offset, chunk) in the chunks one level loop sweeps
    side by side: whole batches of _BATCH sources, as many as fit under
    _CHUNK_CAP values, at least one. A chunk's rows and sweep counts are
    bitwise the same whether `null_distance` gets the chunk alone or the
    whole list, so a caller can sweep, use and drop one chunk at a time."""
    size = _BATCH * max(1, _CHUNK_CAP // (grid.n_points * _BATCH))
    for lo in range(0, len(sources), size):
        yield lo, sources[lo : lo + size]


def _sweep_rows(
    grid: ConeGrid, sources: Sequence[tuple[int, int]], pi: np.ndarray, out: np.ndarray
) -> list[int]:
    """Null-distance rows of a chunk of sources into `out`, swept side by
    side in batches of _BATCH columns, and the pass pairs each batch began
    (see NullDistanceResult.sweeps)."""
    c_up, c_rev = grid._cover_index()
    n_lv, m, b = grid.n_levels, grid.m, len(sources)

    # running per-fiber minima of val - pi, level k in rows k*m:(k+1)*m; the
    # last m rows stay +inf for the cover index's padding; a view of one
    # buffer, narrowed with val as batches stop
    buf = np.empty((n_lv + 1) * m * b)
    # the start values, the weight gap on the points causal to the source and
    # +inf elsewhere, written in blocks of levels x every source, sources
    # last as in val, so each block is contiguous; a block's causal mask
    # holds _GATHER_CAP entries, at least one level
    val = np.empty((n_lv, m, b))
    src = np.array(sources, dtype=int).reshape(-1, 2)
    levels, dists = src[:, 0], grid.fiber.dist[src[:, 1]].T  # d(x_s, c) at [c, s]
    block = max(1, _GATHER_CAP // (m * b))
    for k0 in range(0, n_lv, block):
        k = slice(k0, k0 + block)
        causal = grid._causal(dists, np.abs(grid.g_levels[k, None, None] - grid.g_levels[levels]))
        val[k] = np.abs(pi[k, None, None] - pi[levels])
        np.putmask(val[k], ~causal, np.inf)
    val[levels, src[:, 1], np.arange(b)] = 0.0
    # Gauss-Seidel passes reassociate sums, so late iterations can keep
    # shaving single ulps; improvements below this threshold do not count
    # as progress (they are still applied). Scales exactly with the weights,
    # keeping rescaled time functions bitwise proportional.
    eps_stop = 1e3 * np.finfo(float).eps * float(pi[-1] - pi[0])

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
    # Each batch keeps its own count and stops on its own (module
    # docstring); its columns then go to `out` and the others close ranks.
    batches = np.arange(0, b, _BATCH)  # out row of each live batch
    quiet = np.zeros(batches.size, dtype=int)  # passes in a row that changed nothing
    sweeps = [0] * batches.size
    for p in range(1, 8 * (n_lv + 2) + 1):
        if p == 5:
            _close_bands(grid, val, pi)
        offsets = np.arange(0, val.shape[2], _BATCH)
        prefix = buf[: (n_lv + 1) * m * val.shape[2]].reshape(-1, val.shape[2])
        prefix[n_lv * m :] = np.inf
        if p % 2:
            changed = _ascend(val, prefix, pi, c_up, eps_stop, offsets)
        else:
            changed = _ascend(val[::-1], prefix, -pi[::-1], c_rev, eps_stop, offsets)
        quiet = np.where(changed, 0, quiet + 1)
        if p in (1, 5) or not quiet.any():
            continue
        stop = quiet > 0
        for s, o, q in zip(batches[stop], offsets[stop], quiet[stop]):
            width = min(_BATCH, b - s)
            done = val[:, :, o : o + width].reshape(n_lv * m, width)
            # transposed in blocks of points, _GATHER_CAP // 16 values each
            tile = max(1, _GATHER_CAP // (16 * width))
            for lo in range(0, n_lv * m, tile):
                out[s : s + width, lo : lo + tile] = done[lo : lo + tile].T
            sweeps[s // _BATCH] = p // 2 if q == 2 else (p + 2) // 2
        if stop.all():
            return sweeps
        keep = np.repeat(~stop, _BATCH)[: val.shape[2]]
        val, batches, quiet = val[:, :, keep], batches[~stop], quiet[~stop]
    raise RuntimeError("null-distance sweeps did not stabilize")


def _ascend(
    val: np.ndarray,
    prefix: np.ndarray,
    pi: np.ndarray,
    index: list[np.ndarray],
    eps_stop: float,
    offsets: np.ndarray,
) -> np.ndarray:
    """Relax every future-directed edge in one ascending pass, through the
    cover pairs of each level, and tell per batch of columns (starting at
    `offsets`) whether a value dropped by more than eps_stop. Gathered row
    (w, a) is the prefix minimum of the w-th cover pair of (k, a); with w
    leading, the minimum over w runs over contiguous blocks."""
    m, b = val.shape[1:]
    changed = np.zeros(offsets.size, dtype=bool)
    every = False  # every batch has changed: the test is settled for this pass
    for k, idx in enumerate(index):
        cand = prefix.take(idx.ravel(), axis=0).reshape(idx.shape[0], m, b).min(axis=0) + pi[k]
        if not every:
            drop = cand < val[k] - eps_stop
            if offsets.size == 1:
                every = changed[0] = np.any(drop)
            else:
                changed |= np.logical_or.reduceat(drop.any(axis=0), offsets)
                every = changed.all()
        np.minimum(val[k], cand, out=val[k])
        row = val[k] - pi[k]
        if k == 0:
            prefix[:m] = row
        else:
            np.minimum(prefix[(k - 1) * m : k * m], row, out=prefix[k * m : (k + 1) * m])
    return changed


def _close_bands(grid: ConeGrid, val: np.ndarray, pi: np.ndarray) -> None:
    """Close each band k, k+1 of val, in ascending order, by shortest paths
    over its edges of cost pi[k+1] - pi[k] (module docstring): steps relax
    every edge into level k, then every edge into level k + 1, by turns,
    until a step after the first changes nothing. The band's graph is the
    move index's first depth[k] rows, the entries past the finite prefix of
    the step's table row padded with their column's point. The gathers run
    in blocks of band points, each under _GATHER_CAP entries unless one
    point's neighbours over all columns exceed it."""
    m, b = grid.m, val.shape[2]
    moves, du, depth, _, table = grid._move_index()
    n_dist = np.isfinite(table).sum(axis=1)
    for k, deg in enumerate(depth.tolist()):
        if deg == 1:  # self edges only: the passes close the band
            continue
        nbrs = np.where(du[:deg] < n_dist[k], moves[:deg], np.arange(m, dtype=np.int32))
        step = pi[k + 1] - pi[k]
        block = max(1, _GATHER_CAP // (nbrs.shape[0] * b))  # band points per block
        ends = ((val[k + 1], val[k]), (val[k], val[k + 1]))  # (src, dst) of each step
        for s in range(2 * m):
            src, dst = ends[s % 2]
            changed = False
            for lo in range(0, m, block):
                cand = src.take(nbrs[:, lo : lo + block], axis=0).min(axis=0)
                cand += step
                out = dst[lo : lo + block]
                changed |= (cand < out).any()
                np.minimum(out, cand, out=out)
            if s and not changed:
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


def _grid_error(f_max: float, step: float) -> float:
    """The grid tolerance (2 + f_max) * step on null distances of a cone with
    warping bounded by f_max: fiber quantization enters at the local speed
    of the warping. A heuristic, not a proved bound."""
    return (2.0 + f_max) * step


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
        `_grid_error(f_max, step)`.

    On sources that fill one slice t = t0, the lower and upper bounds
    restricted to that slice compare its null distance with the fiber
    metric: f_min * d <= dhat <= f_max * d + _grid_error(f_max, step).
    """
    tol_fmax = _grid_error(grid.f_max, grid.grid_step())
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
                        "refine the fiber (the grid error follows the fiber spacing; "
                        "refining n_t alone does not shrink it)"
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

    def zero_chronological_pairs(self) -> tuple[int, int]:
        """(chronological pairs from the sources, those on which the row
        reads 0). The dynamic program reads 0 on a chronological pair where a
        level step's G-gap is below the fiber spacing, since no single-level
        move then leaves its fiber point; a finer fiber resolves it. Sources
        go in blocks whose rows hold at most _GATHER_CAP entries, at least
        one source."""
        grid = self.grid
        block = max(1, _GATHER_CAP // grid.n_points)
        src = np.array(self.sources, dtype=int).reshape(-1, 2)
        chrono = zeros = 0
        for lo in range(0, len(src), block):
            levels, fibers = src[lo : lo + block].T
            ahead = grid.chronological_row(levels, fibers).reshape(levels.size, -1)
            chrono += int(np.count_nonzero(ahead))
            zeros += int(np.count_nonzero(ahead & (self.rows[lo : lo + block] == 0.0)))
        return chrono, zeros


def _level_step_weights(grid: ConeGrid, i, dist: np.ndarray) -> np.ndarray:
    """Lengths of fiber moves over distances `dist` on the step level i -> i+1:
    dt*sqrt(1 - lam^2) with lam = d / (G[i+1] - G[i]) on strict moves, zero on
    exactly-null moves and -inf on moves that are not causal. A column of
    levels i broadcasts to one row per level.

    The strict weight is certified: the fiber curve of speed lam / f(t) over
    the step is causal (f x' = lam < 1), covers exactly d, and has length
    exactly dt*sqrt(1 - lam^2), so on a geodesic fiber every DP value is the
    length of a causal curve and never exceeds the time separation."""
    gap = grid.g_levels[i + 1] - grid.g_levels[i]
    dt = grid.t_levels[i + 1] - grid.t_levels[i]
    lam = dist / gap
    w = dt * np.sqrt(np.clip(1.0 - lam * lam, 0.0, None))
    w = np.where(dist < gap - grid.causal_slack, w, 0.0)
    return np.where(dist <= gap + grid.causal_slack, w, -np.inf)


def _dp_rows(grid: ConeGrid, sources: Sequence[tuple[int, int]], top: int) -> np.ndarray:
    """Longest single-step path values from `sources` up to level `top` as
    raw (len(sources), n_points) rows: -inf where no causal chain arrives,
    on every point below a source's own level and on every level above
    `top`. A source enters with 0 at its own point on its own level.

    A level step gathers the move index's first depth[i] rows, which hold
    the step's moves, in column blocks of bounded gather size, adds their
    step lengths from the step table (-inf off the step's moves) and takes
    the maximum down each column.
    """
    m = grid.m
    nbrs, du, depth, _, table = grid._move_index()
    levels = np.array([i for i, _ in sources], dtype=int)
    order = np.argsort(levels, kind="stable")
    levels = levels[order]
    fibers = np.array([sources[s][1] for s in order], dtype=int)
    first = int(levels.min(initial=top + 1))
    counts = np.searchsorted(levels, np.arange(first, top + 1), side="right").tolist()
    rows = np.full((len(sources), grid.n_points), -np.inf)
    val = np.empty((m, 0))
    for i, k in enumerate(counts, first):
        n = val.shape[1]
        nxt = np.empty((m, k))
        if n:
            d = depth[i - 1]
            w = table[i - 1].take(du[:d])[..., None]
            block = max(1, _GATHER_CAP // w.size)
            for lo in range(0, n, block):
                cand = val[:, lo : lo + block].take(nbrs[:d], axis=0)
                cand += w
                nxt[:, lo : lo + cand.shape[2]] = cand.max(axis=0)
        if k > n:
            nxt[:, n:] = -np.inf
            nxt[fibers[n:k], np.arange(n, k)] = 0.0
        val = nxt
        rows[order[:k], i * m : (i + 1) * m] = val.T
    return rows


def time_separation(
    grid: ConeGrid, sources: Optional[Sequence[tuple[int, int]]] = None
) -> TimeSeparationResult:
    """Longest-path approximation of the time separation from below.

    Dynamic program over the DAG of causally related pairs on consecutive
    t-levels; segment length dt*sqrt(1 - lam^2) with lam = d / (G-gap), the
    length of a causal curve over the step (`_level_step_weights`), and
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
    nbrs, du, _, _, table = grid._move_index()
    path = [(i1, j1)]
    steps = []
    cur = j1
    for i in range(i1 - 1, i0 - 1, -1):
        prev = nbrs[:, cur]
        w = table[i].take(du[:, cur])
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
    if grid.causal_row(*p)[q]:
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
    defects = []
    for a, b in _monotone_runs([int(np.sign(v[0] - u[0])) for u, v in zip(path, path[1:])]):
        ia, ja = path[a]
        ib, jb = path[b]
        gap = abs(grid.g_levels[ib] - grid.g_levels[ia])
        defects.append(((path[a], path[b]), float(gap - grid.fiber.dist[ja, jb])))
    return MinimizerAnalysis(path, defects, grid.grid_step())
