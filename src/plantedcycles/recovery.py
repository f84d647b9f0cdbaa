"""Greedy cycle-cover estimator.

Grows a degree-<=2 subgraph H from the empty set by XOR-ing candidate
trails drawn from the set S of all trails shorter than log n.  Two kinds
of updates: cost-free (subroutine A: strictly more edges, no new
degree-1 vertices) and cost-effective (subroutine B: the best candidate,
applied when it gains at least the sqrt(log n) quota).  The estimator
never reads edge colors.

The candidates live in flat int32 rows (`Candidates`), and each one's
evaluation against H, (gain, feasible, deg1_delta), is kept in arrays,
with `qual`, whether it qualifies for subroutine A, which A's scan reads
as it is.  A row is evaluated when a subroutine reads it, and only then:
until that read it is pending.  H starts empty, where a path or a simple
cycle evaluates in closed form, so only the rows that revisit a vertex
other than a closed trail's start start pending.  Rows that revisit a
vertex are few (270 of the 293,802 rows of the `recover` benchmark's 21
instances at seed 11; 677 of 427,433 at n=4000, lambda=0.55, delta=1),
and only their evaluation folds a repeated vertex's degree change onto
its first occurrence.

An update evaluates nothing: it marks the candidates that share a vertex
with the applied trail P as pending.  No other candidate can change.  A
candidate Q's evaluation reads only the H-membership of Q's edges and
the degrees of Q's vertices.  H xor P changes the membership of P's
edges and the degrees of P's vertices, nothing else.  Both ends of an
edge of P are vertices of P, so if either input of Q changed, Q has a
vertex of P.  Every other candidate would evaluate to what it already
holds.  Subroutine A reads row r only when its cursor is at r, and if r
is pending, first evaluates the pending rows of the CHUNK rows from r;
subroutine B evaluates every pending row before it reads any.  So every
value either reads is current, and a row made pending by several updates
before a read is evaluated once.

H is held once, as the evaluation's inputs (`Candidates._step`, -1 on an
edge of H, and `_deg`), which `toggle` writes and `SubgraphView` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .graphcore import ColoredGraph, Edge
from .trails import TrailRows, enumerate_trails

CHUNK = 2048                      # candidates per block of the row build and of an evaluation


def default_max_len(n: int) -> int:
    """Trail-length bound used by the greedy loop: max(3, floor(ln n))."""
    return max(3, int(math.floor(math.log(max(n, 2)))))


def default_quota(n: int) -> int:
    """Subroutine-B gain quota: max(1, ceil(sqrt(ln n)))."""
    return max(1, int(math.ceil(math.sqrt(math.log(max(n, 2))))))


class SubgraphView:
    """H read-only, built on each read from the arrays a `Candidates` writes.
    It holds them and the edge list, not the rows, so a kept H pins no row."""

    __slots__ = ("_edges", "_step", "_deg")

    def __init__(self, edges: list[Edge], step: np.ndarray, deg: np.ndarray):
        self._edges, self._step, self._deg = edges, step, deg

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(compress(self._edges, (self._step == -1).tolist()))

    @property
    def degree(self) -> list[int]:
        return self._deg.tolist()


@dataclass
class RecoveryState:
    h: SubgraphView
    iterations: int = 0
    updates_a: int = 0
    updates_b: int = 0
    evaluations: int = 0          # every row evaluated, counted once per evaluation


class Candidates:
    """The candidate trails of a graph as flat int32 rows, with their
    evaluation against the H that `toggle` writes and `h` reads.

    Row c spans `off[c]:off[c+1]` of the flat arrays, which are the
    enumerator's own (`TrailRows`): the trail's vertex occurrences
    (`verts`) and its edge ids into sorted(g.edges) (`eids`, the sentinel
    id at the last occurrence); `width[c]` is that span's length.  A row
    that revisits a vertex (`revisit`; a closed trail revisits its start)
    folds each later occurrence of the vertex onto its first: the flat
    positions `fold_at` (ascending) and `fold_to` pair them.  Few rows
    revisit, so the evaluation folds only theirs.  `touch_ptr` (a
    memoryview, read as Python ints) and `touch_rows` index the rows by
    vertex.

    The evaluation is `gain`, `feasible` and `deg1` per row, and `qual`,
    whether the row qualifies for subroutine A (gain > 0, feasible,
    deg1 <= 0); `deg1` means nothing where `feasible` is False, and
    nothing is current where `pending` is set.  `flush` evaluates pending
    rows; nothing else does.  H starts empty, where a path of k edges
    gains k and is feasible with deg1 = 2, and a simple cycle gains k and
    is feasible with deg1 = 0; a row that revisits a vertex other than a
    closed trail's start starts pending.
    """

    def __init__(self, trails: TrailRows):
        n = trails.n
        self.edges = trails.edges
        self.verts, self.eids = trails.verts, trails.eids
        # widths, gains and degree-1 deltas all lie in [-width, width]
        small = np.promote_types(np.int16, np.min_scalar_type(-len(trails.counts) - 1))
        self.width = np.repeat(np.arange(2, len(trails.counts) + 2, dtype=small), trails.counts)
        count = len(self.width)
        self.off = np.zeros(count + 1, dtype=np.int32)
        np.cumsum(self.width, out=self.off[1:])
        self.gain = np.empty(count, dtype=small)
        self.feasible = np.ones(count, dtype=bool)
        self.deg1 = np.empty(count, dtype=small)
        self.revisit = np.zeros(count, dtype=bool)
        self.pending = np.zeros(count, dtype=bool)  # at first, revisits other than a closing one
        fold_at, fold_to = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        # (vertex, row) of each first occurrence, packed into int64 keys
        key = np.empty(len(self.verts), dtype=np.int64)
        leads = row = pos = 0
        for k, (verts, _) in enumerate(trails.levels(), 1):
            for r in range(0, len(verts), CHUNK):                 # the temporaries grow as width^2
                block = verts[r:r + CHUNK]
                rows = slice(row + r, row + r + len(block))
                first = (block[:, :, None] == block[:, None, :]).argmax(axis=2)
                repeat = first != np.arange(k + 1)
                closed = first[:, -1] == 0
                self.revisit[rows] = repeat.any(axis=1)
                self.pending[rows] = repeat.sum(axis=1) > closed    # more than the closing repeat
                self.deg1[rows] = np.where(closed, 0, 2)
                at_row, at_col = np.nonzero(repeat)
                base = pos + (r + at_row) * (k + 1)
                fold_at.append(base + at_col)
                fold_to.append(base + first[at_row, at_col])
                packed = block.astype(np.int64) << 32
                packed |= np.arange(rows.start, rows.stop)[:, None]
                packed = packed[~repeat]
                key[leads:leads + len(packed)] = packed
                leads += len(packed)
            self.gain[row:row + len(verts)] = k
            row, pos = row + len(verts), pos + verts.size
        self.fold_at = np.concatenate(fold_at).astype(np.int32)
        self.fold_to = np.concatenate(fold_to).astype(np.int32)

        # the rows through each vertex, by one in-place sort of the keys
        key = key[:leads]
        key.sort()
        # read through a memoryview, which gives Python ints as a list would
        # but keeps 8 B per vertex, not a list's 36
        self.touch_ptr = memoryview(np.searchsorted(key, np.arange(n + 1, dtype=np.int64) << 32))
        key &= 0xFFFFFFFF
        self.touch_rows = key.astype(np.int32)
        del key

        # H starts empty: every edge would be added (+1); the sentinel adds nothing
        self._step = np.ones(len(self.edges) + 1, dtype=np.int8)
        self._step[-1] = 0
        self._deg = np.zeros(n, dtype=np.int32)
        self.h = SubgraphView(self.edges, self._step, self._deg)
        self._arange = np.arange(0)                 # grown to the largest block evaluated
        self.qual = self.deg1 <= 0
        self.evaluations = 0

    def _evaluate(self, rows: np.ndarray) -> None:
        """Evaluate the given rows (ascending) against H, as
        (gain, feasible, deg1_delta) of XOR-ing each row's trail onto it,
        and whether that qualifies for subroutine A.

        An occurrence's degree change is the steps of its edge and the one
        before (a sentinel's, 0, at a row's start).  In a row that revisits
        a vertex, each later occurrence's change moves onto the first, so
        the vertex is counted once; the later ones keep no change, and H's
        degrees never exceed 2, so they add nothing to either the
        infeasible or the degree-1 count."""
        starts = self.off[rows]
        widths = self.width[rows]
        ends = np.add.accumulate(widths, dtype=np.intp)        # row ends in the gathered block
        local = ends - widths
        size = int(ends[-1])
        if size > len(self._arange):
            self._arange = np.arange(size)
        pos = self._arange[:size] + np.repeat(starts - local, widths)
        step = self._step[self.eids[pos]]
        turn = step.astype(np.int32)
        turn[1:] += step[:-1]
        folded = self.revisit[rows].nonzero()[0]
        if len(folded):
            # the folds from the first such row's start to the last one's end,
            # kept where they fall in the block (pos ascends)
            a, b = self.fold_at.searchsorted((starts[folded[0]], self.off[rows[folded[-1]] + 1]))
            fold_at, fold_to = self.fold_at[a:b], self.fold_to[a:b]
            at = pos.searchsorted(fold_at)
            mine = pos[at] == fold_at
            at = at[mine]
            np.add.at(turn, at - (fold_at - fold_to)[mine], turn[at])
            turn[at] = 0
        old = self._deg[self.verts[pos]]
        new = old + turn
        gain = np.add.reduceat(step, local, dtype=np.int32)
        feasible = np.maximum.reduceat(new, local) <= 2
        deg1 = np.add.reduceat(np.subtract(new == 1, old == 1, dtype=np.int8), local,
                               dtype=np.int32)
        self.gain[rows] = gain
        self.feasible[rows] = feasible
        self.deg1[rows] = deg1
        self.qual[rows] = (gain > 0) & feasible & (deg1 <= 0)

    def flush(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Evaluate the pending rows in [lo, hi), all by default, in blocks
        of CHUNK rows (which bound the temporaries); returns them."""
        rows = lo + self.pending[lo:hi].nonzero()[0]
        for b in range(0, len(rows), CHUNK):
            self._evaluate(rows[b:b + CHUNK])
        self.pending[rows] = False
        self.evaluations += len(rows)
        return rows

    def toggle(self, ids: np.ndarray) -> np.ndarray:
        """H <- H xor the edges with the distinct ids `ids` (an int array):
        flips their steps and adds the old steps onto their ends' degrees.
        Marks the rows through those vertices pending and returns them
        (unsorted, a row once per such vertex it passes through)."""
        steps = self._step[ids]
        self._step[ids] = -steps
        change: dict[int, int] = {}
        edges = self.edges
        for i, s in zip(ids.tolist(), steps.tolist()):
            u, v = edges[i]
            change[u] = change.get(u, 0) + s
            change[v] = change.get(v, 0) + s
        self._deg[np.fromiter(change, np.intp)] += np.fromiter(change.values(), np.int32)
        ptr, rows = self.touch_ptr, self.touch_rows
        dirty = np.concatenate([rows[:0], *(rows[ptr[v]:ptr[v + 1]] for v in change)])
        self.pending[dirty] = True
        return dirty

    def apply(self, row: int) -> np.ndarray:
        """H <- H xor (trail of `row`); returns the rows made pending."""
        return self.toggle(self.eids[self.off[row]:self.off[row + 1] - 1])


def subroutine_a(state: RecoveryState, candidates: Candidates) -> bool:
    """One cost-free scan: apply every candidate that strictly grows H
    without raising the degree-1 count, immediately, in enumeration
    order against the running H.  Returns whether anything changed."""
    c = candidates
    look = c.qual | c.pending                               # qualifies, or is pending
    changed = False
    i = 0
    while i < len(look):
        i += int(look[i:].argmax())
        if not look[i]:
            break
        if c.pending[i]:
            window = c.flush(i, i + CHUNK)
            look[window] = c.qual[window]
            continue
        look[c.apply(i)] = True
        state.updates_a += 1
        changed = True
        i += 1
    return changed


def subroutine_b(state: RecoveryState, candidates: Candidates, quota: int) -> bool:
    """One cost-effective step: among all candidates whose XOR keeps the
    max degree at 2, take the one maximizing |H xor P| (ties: first in
    enumeration order, as argmax returns the first maximum); apply it iff
    the gain meets the quota."""
    c = candidates
    c.flush()
    masked = np.where(c.feasible, c.gain, np.iinfo(c.gain.dtype).min)
    best = int(masked.argmax())
    if masked[best] < quota:                   # also when nothing is feasible
        return False
    c.apply(best)
    state.updates_b += 1
    return True


def recover(g: ColoredGraph, max_len: int | None = None,
            quota: int | None = None, return_state: bool = False):
    """Run the greedy estimator on the observed graph.

    It reads only `g.n` and `g.edges`, never the colors.  Returns the
    final degree-<=2 subgraph H (cycles plus leftover paths, exactly as the
    loop leaves it; a `SubgraphView`, whose `edges` is a frozenset), or
    (H, RecoveryState) when return_state is set.
    """
    if not g.edges:
        raise ValueError("empty graph")
    if max_len is None:
        max_len = default_max_len(g.n)
    if max_len < 3:
        raise ValueError(f"max_len={max_len} must be >= 3")
    if quota is None:
        quota = default_quota(g.n)
    if quota < 1:
        raise ValueError(f"quota={quota} must be >= 1")

    candidates = Candidates(enumerate_trails(g, max_len))
    state = RecoveryState(h=candidates.h)
    can_grow = True
    while can_grow:
        state.iterations += 1
        grew_a = subroutine_a(state, candidates)
        grew_b = subroutine_b(state, candidates, quota)
        can_grow = grew_a or grew_b
    state.evaluations = candidates.evaluations
    if return_state:
        return state.h, state
    return state.h
