"""Greedy cycle-cover estimator.

Grows a degree-<=2 subgraph H from the empty set by XOR-ing candidate
trails drawn from the set S of all trails shorter than log n.  Two kinds
of updates: cost-free (subroutine A: strictly more edges, no new
degree-1 vertices) and cost-effective (subroutine B: the best candidate,
applied when it gains at least the sqrt(log n) quota).  The estimator
never reads edge colors.

The candidates live in flat int32 rows (`Candidates`), and each one's
evaluation against H, (gain, feasible, deg1_delta), is kept in arrays,
with `qual`, whether it qualifies for subroutine A.  A row is evaluated
when a subroutine reads it, and only then: until that read it is
pending.  H starts empty, where a path or a simple cycle evaluates in
closed form, so only the rows that revisit a vertex other than a closed
trail's start start pending.  Rows that revisit a vertex are few (270
of the 293,802 rows of the `recover` benchmark's 21 instances at seed
11; 677 of 427,433 at n=4000, lambda=0.55, delta=1), and only their
evaluation folds a repeated vertex's degree change onto its first
occurrence.  An evaluation reads one entry per occurrence from a small
table indexed by the vertex's degree in H and its folded degree change,
and sums a row's entries once: that sum gives both feasibility and
deg1_delta.

An update evaluates nothing: it marks the candidates that share a vertex
with the applied trail P as pending.  No other candidate can change.  A
candidate Q's evaluation reads only the H-membership of Q's edges and
the degrees of Q's vertices.  H xor P changes the membership of P's
edges and the degrees of P's vertices, nothing else.  Both ends of an
edge of P are vertices of P, so if either input of Q changed, Q has a
vertex of P.  Every other candidate would evaluate to what it already
holds.  Subroutine A reads `pending` and `qual` as they are: from its
cursor it finds the next pending row p and the first row before p that
qualifies, which is current, and applies it; with none, it evaluates the
pending rows of the CHUNK rows from p and goes on from p.  Subroutine B
evaluates every pending row before it reads any.  So every value either
reads is current, and a row made pending by several updates before a
read is evaluated once.

H is held once, as the evaluation's inputs (`Candidates._step`, -1 on an
edge of H, and `_deg`), which `toggle` writes and `SubgraphView` reads.
A trail has at most max_len - 1 edges, so `toggle` writes them one at a
time, through memoryviews of those arrays, which read and write Python
ints without numpy's per-scalar cost.
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
    vertex.  Construction finds a block's repeats by comparing each
    column of the transposed block, one occurrence of every row, with the
    columns before it, and the occurrence a repeat folds onto only on the
    rows that revisit.

    The evaluation is `gain`, `feasible` and `deg1` per row, and `qual`,
    whether the row qualifies for subroutine A (gain > 0, feasible,
    deg1 <= 0); `deg1` means nothing where `feasible` is False, and
    nothing is current where `pending` is set.  `flush` evaluates pending
    rows; nothing else does.  H starts empty, where a path of k edges
    gains k and is feasible with deg1 = 2, and a simple cycle gains k and
    is feasible with deg1 = 0; a row that revisits a vertex other than a
    closed trail's start starts pending.

    The evaluation's table (`_table`) has one entry per degree in H, 0..2,
    and degree change c with |c| <= `_reach`, twice the widest row's
    occurrences, since each occurrence changes its vertex's degree by at
    most 2: BIG (`_big`, 2 * widest + 2) where the vertex would pass
    degree 2, else its change of the degree-1 count (-1, 0 or 1).  So a
    row's entries sum to its deg1_delta, within +-widest, if it is
    feasible, and to at least BIG - widest + 1 if not: it is feasible iff
    the sum is below BIG/2, and qualifies iff gain > 0 and the sum is
    <= 0.  `deg1` stores the sum, in a dtype that holds widest * BIG, so
    it is exact where the row is feasible.  The index is read unsigned:
    a change outside +-`_reach` raises IndexError, never reads another
    entry.
    """

    def __init__(self, trails: TrailRows):
        n = trails.n
        self.edges = trails.edges
        self.verts, self.eids = trails.verts, trails.eids
        wide = len(trails.counts) + 1                       # the widest row's occurrences
        # widths and gains lie in [-wide, wide]; a row's table sum in [-wide, wide * BIG]
        small = np.promote_types(np.int16, np.min_scalar_type(-wide))
        self._big = big = 2 * wide + 2
        sums = np.promote_types(small, np.min_scalar_type(-wide * big))
        self.width = np.repeat(np.arange(2, wide + 1, dtype=small), trails.counts)
        count = len(self.width)
        self.off = np.zeros(count + 1, dtype=np.int32)
        np.cumsum(self.width, out=self.off[1:])
        self.gain = np.empty(count, dtype=small)
        self.feasible = np.ones(count, dtype=bool)
        self.deg1 = np.empty(count, dtype=sums)
        self.revisit = np.zeros(count, dtype=bool)
        self.pending = np.zeros(count, dtype=bool)  # at first, revisits other than a closing one
        fold_at, fold_to = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        # (vertex, row) of each first occurrence, packed into int64 keys
        key = np.empty(len(self.verts), dtype=np.int64)
        leads = row = pos = 0
        for k, (verts, _) in enumerate(trails.levels(), 1):
            for r in range(0, len(verts), CHUNK):
                block = verts[r:r + CHUNK]
                rows = slice(row + r, row + r + len(block))
                column = block.T.copy()                     # column j is occurrence j of each row
                repeat = np.zeros(column.shape, dtype=bool)
                for j in range(1, k + 1):
                    repeat[j] = (column[:j] == column[j]).any(axis=0)
                repeats = repeat.sum(axis=0)
                closed = block[:, -1] == block[:, 0]
                self.revisit[rows] = repeats > 0
                self.pending[rows] = repeats > closed           # more than the closing repeat
                self.deg1[rows] = np.where(closed, 0, 2)
                # a repeat's first occurrence, looked for on the revisiting rows only
                again = repeats.nonzero()[0]
                at_row, at_col = repeat[:, again].T.nonzero()
                at_row = again[at_row]
                seen = column[at_col, at_row]
                first = at_col.copy()
                for i in range(k - 1, -1, -1):                  # the least match is written last
                    first[(column[i, at_row] == seen) & (i < at_col)] = i
                base = pos + (r + at_row) * (k + 1)
                fold_at.append(base + at_col)
                fold_to.append(base + first)
                packed = column.astype(np.int64) << 32
                packed |= np.arange(rows.start, rows.stop)
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
        # the same buffers, read and written as Python ints by toggle and apply
        self._stepv, self._degv = memoryview(self._step), memoryview(self._deg)
        self._offv, self._eidsv = memoryview(self.off), memoryview(self.eids)
        self._arange = np.arange(0)                 # grown to the largest block evaluated
        # a vertex of degree d whose degree changes by c reads entry 3 * (c + reach) + d
        self._reach = reach = 2 * wide
        degree = np.arange(3)
        new = np.arange(-reach, reach + 1)[:, None] + degree
        self._table = np.where((0 <= new) & (new <= 2), (new == 1) * 1 - (degree == 1),
                               big).astype(sums).ravel()
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
        degrees never exceed 2, so their table entries (the class
        docstring) are 0."""
        starts = self.off[rows]
        widths = self.width[rows]
        ends = np.add.accumulate(widths, dtype=np.intp)        # row ends in the gathered block
        local = ends - widths
        size = int(ends[-1])
        if size > len(self._arange):
            self._arange = np.arange(size)
        pos = self._arange[:size] + np.repeat(starts - local, widths)
        step = self._step[self.eids[pos]]
        reach = self._reach
        turn = np.add(step, reach, dtype=np.int32)             # change + reach
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
            np.add.at(turn, at - (fold_at - fold_to)[mine], turn[at] - reach)
            turn[at] = reach
        turn *= 3
        turn += self._deg[self.verts[pos]]
        deg1 = np.add.reduceat(self._table[turn.view(np.uint32)], local, dtype=self.deg1.dtype)
        gain = np.add.reduceat(step, local, dtype=np.int32)
        self.gain[rows] = gain
        self.feasible[rows] = deg1 < self._big // 2
        self.deg1[rows] = deg1
        self.qual[rows] = (gain > 0) & (deg1 <= 0)

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
        """H <- H xor the edges with the distinct ids `ids` (any sequence of
        ints: a list, an int array, or the memoryview `apply` passes), one
        edge at a time: flips its step and adds the old step onto its ends'
        degrees, through memoryviews of `_step` and `_deg`.  Marks the rows
        through those vertices pending and returns them (unsorted, a row
        once per such vertex it passes through)."""
        step, deg, edges = self._stepv, self._degv, self.edges
        ends: dict[int, None] = {}
        for i in ids:
            s = step[i]
            step[i] = -s
            u, v = edges[i]
            deg[u] += s
            deg[v] += s
            ends[u] = ends[v] = None
        ptr, rows = self.touch_ptr, self.touch_rows
        dirty = np.concatenate([rows[:0], *(rows[ptr[v]:ptr[v + 1]] for v in ends)])
        self.pending[dirty] = True
        return dirty

    def apply(self, row: int) -> np.ndarray:
        """H <- H xor (trail of `row`); returns the rows made pending."""
        off = self._offv
        return self.toggle(self._eidsv[off[row]:off[row + 1] - 1])


def subroutine_a(state: RecoveryState, candidates: Candidates) -> bool:
    """One cost-free scan: apply every candidate that strictly grows H
    without raising the degree-1 count, immediately, in enumeration
    order against the running H.  Returns whether anything changed.

    From the cursor it finds the next pending row p, then the first row
    before p that qualifies; it applies that row, or else evaluates the
    pending rows of the CHUNK rows from p and goes on from p."""
    c = candidates
    pending, qual = c.pending, c.qual
    count = len(qual)
    changed = False
    i = 0
    while i < count:
        p = i + int(pending[i:].argmax())
        if not pending[p]:
            p = count
        q = i + int(qual[i:p].argmax()) if p > i else p
        if q < p and qual[q]:
            c.apply(q)
            state.updates_a += 1
            changed = True
            i = q + 1
        elif p < count:
            c.flush(p, p + CHUNK)
            i = p
        else:
            break
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
