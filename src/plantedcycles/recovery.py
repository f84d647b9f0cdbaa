"""Greedy cycle-cover estimator.

Grows a degree-<=2 subgraph H from the empty set by XOR-ing candidate
trails drawn from the set S of all trails shorter than log n.  Two kinds
of updates: cost-free (subroutine A: strictly more edges, no new
degree-1 vertices) and cost-effective (subroutine B: the best candidate,
applied when it gains at least the sqrt(log n) quota).  The estimator
never reads edge colors.

The candidates live in flat int32 rows (`Candidates`), and each one's
evaluation against H, (gain, feasible, deg1_delta), is kept in arrays.
After an update only the candidates that share a vertex with the applied
trail P are evaluated again.  This is exact.  A candidate Q's evaluation
reads only the H-membership of Q's edges and the degrees of Q's
vertices.  H xor P changes the membership of P's edges and the degrees
of P's vertices, nothing else.  Both ends of an edge of P are vertices
of P, so if either input of Q changed, Q has a vertex of P.  Every other
candidate would evaluate to what it already holds.

While a `Candidates` follows an H, only its `toggle` changes that H, and
it writes the evaluation's inputs in the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import ColoredGraph, DegreeBoundedSubgraph
from .trails import TrailRows, enumerate_trails

CHUNK = 2048                      # candidates per block of the row build and initial evaluation


def default_max_len(n: int) -> int:
    """Trail-length bound used by the greedy loop: max(3, floor(ln n))."""
    return max(3, int(math.floor(math.log(max(n, 2)))))


def default_quota(n: int) -> int:
    """Subroutine-B gain quota: max(1, ceil(sqrt(ln n)))."""
    return max(1, int(math.ceil(math.sqrt(math.log(max(n, 2))))))


@dataclass
class RecoveryState:
    h: DegreeBoundedSubgraph
    iterations: int = 0
    updates_a: int = 0
    updates_b: int = 0


class Candidates:
    """The candidate trails of a graph as flat int32 rows, with their
    evaluation against the H that `toggle` writes.

    Row c spans `off[c]:off[c+1]` of the flat arrays, which are the
    enumerator's own (`TrailRows`): the trail's vertex occurrences
    (`verts`) and its edge ids into sorted(g.edges) (`eids`, the sentinel
    id at the last occurrence).  `slot` holds the slot of each occurrence:
    the index of the first occurrence of its vertex in the row, so a
    repeated vertex folds onto one slot.  `touch_ptr`/`touch_rows` index
    the rows by vertex.  The evaluation is `gain`, `feasible` and `deg1`
    per row; `deg1` means nothing where `feasible` is False.
    """

    def __init__(self, trails: TrailRows):
        n = trails.n
        self.edges = trails.edges
        self.verts, self.eids = trails.verts, trails.eids
        widths = np.repeat(np.arange(2, len(trails.counts) + 2, dtype=np.int32), trails.counts)
        self.off = np.zeros(len(widths) + 1, dtype=np.int32)
        np.cumsum(widths, out=self.off[1:])
        del widths
        total = int(self.off[-1])
        # slots, gains and degree-1 deltas all lie in [-width, width]
        small = np.promote_types(np.int16, np.min_scalar_type(-len(trails.counts) - 1))
        self.slot = np.zeros(total + 1, dtype=small)           # a row's last edge reads one past it
        lo = 0
        for verts, _ in trails.levels():
            slots = self.slot[lo:lo + verts.size].reshape(verts.shape)
            lo += verts.size
            for r in range(0, len(verts), CHUNK):                 # the temporaries grow as width^2
                block = verts[r:r + CHUNK]
                slots[r:r + CHUNK] = (block[:, :, None] == block[:, None, :]).argmax(axis=2)

        # the rows through each vertex, from the first occurrences
        rows = np.repeat(np.arange(len(self.off) - 1, dtype=np.int32), np.diff(self.off))
        leads = self.slot[:total] == np.arange(total, dtype=np.int32) - self.off[:-1][rows]
        vs = self.verts[leads]
        self.touch_rows = rows[leads][np.argsort(vs)]
        self.touch_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(vs, minlength=n), out=self.touch_ptr[1:])
        del rows, leads, vs

        # H starts empty: every edge would be added (+1); the sentinel adds nothing
        self._step = np.ones(len(self.edges) + 1, dtype=np.int8)
        self._step[-1] = 0
        self._deg = np.zeros(n, dtype=np.int32)
        count = len(self.off) - 1
        self.gain = np.empty(count, dtype=small)
        self.feasible = np.empty(count, dtype=bool)
        self.deg1 = np.empty(count, dtype=small)
        for lo in range(0, count, CHUNK):
            self._evaluate(np.arange(lo, min(lo + CHUNK, count)))

    def _evaluate(self, rows: np.ndarray) -> None:
        """Evaluate the given rows (ascending) against H, as
        (gain, feasible, deg1_delta) of XOR-ing each row's trail onto it.

        An occurrence's degree change is summed onto its slot, so a vertex
        the trail revisits is counted once.  Non-slot occurrences get no
        change, and H's degrees never exceed 2, so they add nothing to
        either the infeasible or the degree-1 count."""
        starts = self.off[rows]
        widths = self.off[rows + 1] - starts
        ends = np.cumsum(widths)
        local = ends - widths                                  # row starts in the gathered block
        size = int(ends[-1])
        pos = np.arange(size) + np.repeat(starts - local, widths)
        base = np.repeat(local, widths)
        step = self._step[self.eids[pos]]
        gain = np.add.reduceat(step, local, dtype=np.int32)
        delta = (np.bincount(base + self.slot[pos], step, size)
                 + np.bincount(base + self.slot[pos + 1], step, size))
        old = self._deg[self.verts[pos]]
        new = old + delta
        self.gain[rows] = gain
        self.feasible[rows] = ~np.logical_or.reduceat(new > 2, local)
        self.deg1[rows] = (np.add.reduceat(new == 1, local, dtype=np.int32)
                           - np.add.reduceat(old == 1, local, dtype=np.int32))

    def _touching(self, vertices) -> np.ndarray:
        """The rows through any of `vertices`, ascending, each once (sorting
        and masking is several times faster than np.unique here)."""
        ptr, rows = self.touch_ptr, self.touch_rows
        found = np.sort(np.concatenate([rows[:0], *(rows[ptr[v]:ptr[v + 1]] for v in vertices)]))
        keep = np.ones(len(found), dtype=bool)
        np.not_equal(found[1:], found[:-1], out=keep[1:])
        return found[keep]

    def toggle(self, h: DegreeBoundedSubgraph, ids: np.ndarray) -> np.ndarray:
        """H <- H xor the edges with the distinct ids `ids` (an int array),
        in h and in the evaluation's inputs; evaluates the rows through
        the toggled edges' vertices again and returns them."""
        toggled = [self.edges[i] for i in ids.tolist()]
        h.xor_edges(toggled)
        self._step[ids] = -self._step[ids]
        vertices = list({v for e in toggled for v in e})
        self._deg[vertices] = [h.degree[v] for v in vertices]
        dirty = self._touching(vertices)
        if len(dirty):
            self._evaluate(dirty)
        return dirty

    def apply(self, h: DegreeBoundedSubgraph, row: int) -> np.ndarray:
        """H <- H xor (trail of `row`); returns the rows evaluated again."""
        return self.toggle(h, self.eids[self.off[row]:self.off[row + 1] - 1])


def subroutine_a(state: RecoveryState, candidates: Candidates) -> bool:
    """One cost-free scan: apply every candidate that strictly grows H
    without raising the degree-1 count, immediately, in enumeration
    order against the running H.  Returns whether anything changed."""
    c = candidates
    qualifies = (c.gain > 0) & c.feasible & (c.deg1 <= 0)
    changed = False
    i = 0
    while i < len(qualifies):
        i += int(qualifies[i:].argmax())
        if not qualifies[i]:
            break
        dirty = c.apply(state.h, i)
        qualifies[dirty] = (c.gain[dirty] > 0) & c.feasible[dirty] & (c.deg1[dirty] <= 0)
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
    masked = np.where(c.feasible, c.gain, np.iinfo(c.gain.dtype).min)
    best = int(masked.argmax())
    if masked[best] < quota:                   # also when nothing is feasible
        return False
    c.apply(state.h, best)
    state.updates_b += 1
    return True


def recover(g: ColoredGraph, max_len: int | None = None,
            quota: int | None = None, return_state: bool = False):
    """Run the greedy estimator on the observed graph.

    It reads only `g.n` and `g.edges`, never the colors.  Returns the
    final degree-<=2 subgraph H (cycles plus leftover paths, exactly as the
    loop leaves it), or (H, RecoveryState) when return_state is set.
    """
    if not g.edges:
        raise ValueError("empty graph")
    n = g.n
    if max_len is None:
        max_len = default_max_len(n)
    if max_len < 3:
        raise ValueError(f"max_len={max_len} must be >= 3")
    if quota is None:
        quota = default_quota(n)
    if quota < 1:
        raise ValueError(f"quota={quota} must be >= 1")

    candidates = Candidates(enumerate_trails(g, max_len))
    state = RecoveryState(h=DegreeBoundedSubgraph(n))
    can_grow = True
    while can_grow:
        state.iterations += 1
        grew_a = subroutine_a(state, candidates)
        grew_b = subroutine_b(state, candidates, quota)
        can_grow = grew_a or grew_b
    if return_state:
        return state.h, state
    return state.h
