"""Bounded-length trail enumeration, trail classification, shortcut tests.

A trail is a walk with distinct edges (vertices may repeat).  Open
trails are stored in the lexicographically smaller of their two
orientations; closed trails under the minimal rotation-then-direction
key, so each trail appears exactly once and enumeration order is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphcore import ColoredGraph, Edge, csr, edge

# Keeps recover's trails under 2 GiB.  They peak at about 180 B per trail at
# max_len 8, as _extend builds the last level, and at 210 B at max_len 10
# and 335 B at max_len 17, the widest default, as the greedy indexes the flat
# rows by vertex (tests/test_trails.py measures it).  The count is checked
# after each BLOCK of a level, so a level past the cap is never held whole.
# count_ab_trails reads the same constant as a visited-node bound.
DEFAULT_TRAIL_CAP = 3 * 10 ** 6
BLOCK = 1 << 14                   # rows per block of a level under construction


class TrailExplosionError(RuntimeError):
    """Trail count exceeded DEFAULT_TRAIL_CAP (lambda or L too large)."""


@dataclass(frozen=True, slots=True)
class Trail:
    """Walk v0..vk with distinct edges; closed means v0 == vk."""

    vertices: tuple[int, ...]
    closed: bool

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def edges(self) -> tuple[Edge, ...]:
        vs = self.vertices
        return tuple(edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))

    def sort_key(self):
        return (self.length, self.closed, self.vertices)


def canonical_trail(vertices, closed: bool) -> Trail:
    """Canonical orientation: min of both directions for open trails,
    minimal rotation-then-direction for closed trails."""
    vs = tuple(vertices)
    if not closed:
        return Trail(min(vs, vs[::-1]), False)
    cyc = vs[:-1]
    low = min(cyc)                        # the least rotation starts at it
    best = min(seq[i:] + seq[:i] for seq in (cyc, cyc[::-1])
               for i, v in enumerate(seq) if v == low)
    return Trail(best + (best[0],), True)


@dataclass(eq=False, slots=True)
class TrailRows:
    """Every trail of edge-length 1..max_len-1 of a graph, once each, as
    flat int32 rows grouped by length.

    `counts[k-1]` rows of k edges follow those of k-1 edges.  `counts`
    ends at the longest length present, K: it has one nonzero entry per
    length 1..K, and K is max_len-1 unless no trail is that long.  A row
    of k edges is k+1 entries of `verts`, its vertices, and k+1 of
    `eids`, its edge ids and then the sentinel id len(edges).  Edge id i
    is row i of the graph's rows, `g.ends`, and `edges` holds those rows
    as tuples, in their (sorted) order.  Within a length the open trails
    come first, then the closed ones, each group in ascending order of its
    vertex tuples:
    `Trail.sort_key` order.  len() is the trail count, and iterating
    yields the `Trail`s in that order.
    """

    n: int
    edges: list[Edge]
    counts: list[int]
    verts: np.ndarray
    eids: np.ndarray

    def __len__(self) -> int:
        return sum(self.counts)

    def levels(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per length k, views of `verts` and `eids` as (count, k+1) matrices."""
        lo = 0
        for k, count in enumerate(self.counts, 1):
            hi = lo + count * (k + 1)
            yield self.verts[lo:hi].reshape(count, k + 1), self.eids[lo:hi].reshape(count, k + 1)
            lo = hi

    def __iter__(self) -> Iterator[Trail]:
        for verts, _ in self.levels():
            for row in verts.tolist():
                yield Trail(tuple(row), row[0] == row[-1])


def _extend(blocks: list, indptr: np.ndarray, nbr: np.ndarray, eid: np.ndarray):
    """Every row of `blocks` extended by each edge at its last vertex that
    it does not use yet, as blocks of about BLOCK rows; the edge ids keep
    their closing sentinel column.  A row's
    extensions follow it in ascending order of their new vertex, so rows in
    ascending order give extensions in ascending order.  Each block of
    `blocks` is taken off the list as it is extended.

    The parent rows are gathered with `take(axis=0)` and each new block is
    one `concatenate` per array: at under ten columns, numpy's 2-D fancy
    row gather and `column_stack` cost several times as much."""
    while blocks:
        verts, eids = blocks.pop(0)
        first = indptr[verts[:, -1]]
        counts = indptr[verts[:, -1] + 1] - first
        ends = np.cumsum(counts)
        lo = 0
        while lo < len(verts):
            done = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, done + BLOCK, side="right")), lo + 1)
            c = counts[lo:hi]
            # extension j of row r is half-edge first[r] + j - (ends[r] - c[r])
            parent = np.repeat(np.arange(lo, hi), c)
            pos = np.arange(done, ends[hi - 1]) + np.repeat(first[lo:hi] + c - ends[lo:hi], c)
            new = eid[pos]
            fresh = np.ones(len(pos), dtype=bool)
            for column in eids.T[:-1]:                # drop edges the row already uses
                fresh &= column[parent] != new
            parent, pos = parent[fresh], pos[fresh]
            ids = eids.take(parent, axis=0)               # freed by the rebinding, before the yield
            ids = np.concatenate((ids[:, :-1], eid.take(pos)[:, None], ids[:, -1:]), axis=1)
            yield np.concatenate((verts.take(parent, axis=0), nbr.take(pos)[:, None]), axis=1), ids
            lo = hi


def _canonical_rows(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows that are a trail's canonical form: open rows
    with v0 < vk, and closed rows that start at their minimum and, unless
    they revisit it (figure-eights, left to canonical_trail), have
    v1 < v(k-1)."""
    v0, vk = verts[:, 0], verts[:, -1]
    opened = np.flatnonzero(v0 < vk)
    closed = np.flatnonzero(v0 == vk)
    if len(closed):
        rows = verts.take(closed, axis=0)
        inner = rows[:, 1:-1].min(axis=1)
        simple = (inner > rows[:, 0]) & (rows[:, 1] < rows[:, -2])
        for i in np.flatnonzero(inner == rows[:, 0]).tolist():
            walk = tuple(rows[i].tolist())
            simple[i] = canonical_trail(walk, True).vertices == walk
        closed = closed[simple]
    return opened, closed


def enumerate_trails(g: ColoredGraph, max_len: int) -> TrailRows:
    """Every trail of edge-length 1..max_len-1, open and closed, once each,
    in sorted canonical order.  Reads only `g.n` and `g.ends`.  Raises
    TrailExplosionError past DEFAULT_TRAIL_CAP trails.

    Level k holds every directed trail of k edges, from every start: level
    1 is the half-edges in ascending (start, end) order, and level k+1
    extends level k by one edge (`_extend`), which keeps that order.  So
    the canonical rows a level keeps are already sorted, and are gathered
    with `take(axis=0)`.  Levels are built and counted in blocks, so a
    level past the cap is never held whole.  The walk stops at the first
    length with no trail."""
    if max_len < 2:
        raise ValueError(f"max_len={max_len} must be >= 2")
    cap = DEFAULT_TRAIL_CAP
    edges = list(zip(*g.ends.T.tolist()))           # edge id i is row i of g.ends
    indptr, nbr, eid = csr(g.n, g.ends)
    src = np.repeat(np.arange(g.n, dtype=np.int32), np.diff(indptr))
    blocks = [(np.stack([src, nbr], axis=1),
               np.stack([eid, np.full_like(eid, len(edges))], axis=1))]
    parts, counts = [], []
    count = 0
    for k in range(1, max_len):
        before = count
        source = blocks if k == 1 else _extend(blocks, indptr, nbr, eid)
        kept, opened, closed = [], [], []
        for verts, eids in source:
            o, c = _canonical_rows(verts)
            count += len(o) + len(c)
            if count > cap:
                raise TrailExplosionError(f"more than {cap} trails of length < {max_len}")
            opened.append((verts.take(o, axis=0), eids.take(o, axis=0)))
            closed.append((verts.take(c, axis=0), eids.take(c, axis=0)))
            if k < max_len - 1:
                kept.append((verts, eids))
        parts += opened + closed
        if count == before:
            break                         # no trail of k edges, so none longer
        counts.append(count - before)
        blocks = kept
    return TrailRows(g.n, edges, counts, np.concatenate([v.ravel() for v, _ in parts]),
                     np.concatenate([e.ravel() for _, e in parts]))


def ab_step_ok(prev_red: bool | None, red: bool, at: int,
               support: frozenset[int]) -> bool:
    """The (a,b)-trail step rule: may an edge of colour `red` follow one of
    colour `prev_red` (None before the first edge) at vertex `at`?"""
    if prev_red is None:
        return not red                     # first edge must be unplanted
    return red or prev_red or at not in support   # no blue-blue at a planted vertex


def ab_profile(g: ColoredGraph, vs: tuple[int, ...],
               support: frozenset[int]) -> tuple[int, int] | None:
    """(a, b) of the open walk vs read in this direction, or None if it is
    not an (a,b)-trail that way: first edge unplanted, no two unplanted
    edges at a planted vertex, last edge planted when a >= 1."""
    prev = None
    a = 0
    for at, w in zip(vs, vs[1:]):
        red = edge(at, w) in g.planted
        if not ab_step_ok(prev, red, at, support):
            return None
        a += red
        prev = red
    return (a, len(vs) - 1 - a) if prev or not a else None


def classify_ab_trail(g: ColoredGraph, trail: Trail,
                      support: frozenset[int] | None = None) -> tuple[int, int] | None:
    """(a, b) profile if the trail satisfies the alternating-trail
    constraints in some traversal direction, else None."""
    if support is None:
        support = g.red_support()
    vs = trail.vertices
    if not trail.closed:
        return ab_profile(g, vs, support) or ab_profile(g, vs[::-1], support)
    cols = tuple(g.is_red(e) for e in trail.edges)
    a = sum(cols)
    # rotations let any red->blue boundary start the reading, so the
    # binding constraint is the cyclic blue-blue rule (plus b >= 1);
    # an all-blue circuit must avoid the planted support entirely
    ok = a < len(cols) and all(ab_step_ok(cols[i - 1], cols[i], vs[i], support)
                               for i in range(len(cols)))
    return (a, len(cols) - a) if ok else None


def count_ab_trails(g: ColoredGraph, a: int, b: int, frm: int,
                    to: int | None = None, l_cap: int = 64,
                    support: frozenset[int] | None = None) -> int:
    """Exact count of (a,b)-trails anchored at frm (ending at `to` when
    given), one count per valid traversal direction starting at frm.
    DEFAULT_TRAIL_CAP bounds the search nodes visited, not the trails
    counted; past it the search raises TrailExplosionError."""
    if a < 0 or b < 1:
        raise ValueError("need a >= 0, b >= 1")
    if a + b >= l_cap:
        raise ValueError(f"a+b={a + b} must be < l_cap={l_cap}")
    if not 0 <= frm < g.n:
        raise ValueError(f"anchor frm={frm} outside 0..{g.n - 1}")
    if support is None:
        support = g.red_support()
    cap = DEFAULT_TRAIL_CAP
    ptr, nbr, eid, colour = g.adj
    used: set[int] = set()
    count = 0
    visited_nodes = 0

    def dfs(v: int, red_left: int, blue_left: int, last_red: bool | None) -> None:
        nonlocal count, visited_nodes
        visited_nodes += 1
        if visited_nodes > cap:
            raise TrailExplosionError("trail search exceeded cap")
        if red_left == 0 and blue_left == 0:
            if (a == 0 or last_red) and (to is None or v == to):
                count += 1
            return
        for i in range(ptr[v], ptr[v + 1]):
            red = colour[i]
            if red and red_left == 0:
                continue
            if not red and blue_left == 0:
                continue
            if not ab_step_ok(last_red, red, v, support):
                continue
            e = eid[i]
            if e in used:
                continue
            used.add(e)
            dfs(nbr[i], red_left - (1 if red else 0),
                blue_left - (0 if red else 1), red)
            used.remove(e)

    dfs(frm, a, b, None)
    del dfs                               # break the closure's self-reference
    return count

