"""Bounded-length trail enumeration, trail classification, shortcut tests.

A trail is a walk with distinct edges (vertices may repeat).  Open
trails are stored in the lexicographically smaller of their two
orientations; closed trails under the minimal rotation-then-direction
key, so each trail appears exactly once and enumeration order is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import ColoredGraph, Edge, edge

# Keeps recover's trails under 2 GiB: at its peak it holds the Trail list and
# the candidate rows built from it, about 310 B per trail at max_len 8, 345 B at
# max_len 10 and 630 B at max_len 17, the widest default (tests/test_trails.py
# measures it).  count_ab_trails reads the same constant as a visited-node bound.
DEFAULT_TRAIL_CAP = 3 * 10 ** 6


class TrailExplosionError(RuntimeError):
    """Trail count exceeded DEFAULT_TRAIL_CAP (lambda or L too large)."""


@dataclass(frozen=True)
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


def enumerate_trails(g: ColoredGraph, max_len: int) -> list[Trail]:
    """Every trail of edge-length 1..max_len-1, open and closed, once each,
    in sorted canonical order.  Raises TrailExplosionError past
    DEFAULT_TRAIL_CAP trails."""
    if max_len < 2:
        raise ValueError(f"max_len={max_len} must be >= 2")
    cap = DEFAULT_TRAIL_CAP
    found: list[Trail] = []
    adj = g.adj
    used: set[Edge] = set()
    walk: list[int] = []

    def extend(v: int) -> None:
        if len(walk) > 1:                 # keep each trail in its canonical form only
            s = walk[0]
            if s != v:
                if s < v:
                    found.append(Trail(tuple(walk), False))
            elif s == min(walk):          # a figure-eight can revisit s
                trail = canonical_trail(walk, True)
                if trail.vertices == tuple(walk):
                    found.append(trail)
            if len(found) > cap:
                raise TrailExplosionError(
                    f"more than {cap} trails of length < {max_len}")
        if len(walk) == max_len:
            return
        for w, _red in adj[v]:
            e = edge(v, w)
            if e in used:
                continue
            used.add(e)
            walk.append(w)
            extend(w)
            walk.pop()
            used.remove(e)

    for s in range(g.n):
        walk.append(s)
        extend(s)
        walk.pop()
    del extend                            # break the closure's self-reference
    return sorted(found, key=Trail.sort_key)


def ab_step_ok(prev_red: bool | None, red: bool, at: int,
               support: frozenset[int]) -> bool:
    """The (a,b)-trail step rule: may an edge of colour `red` follow one of
    colour `prev_red` (None before the first edge) at vertex `at`?"""
    if prev_red is None:
        return not red                     # first edge must be unplanted
    return red or prev_red or at not in support   # no blue-blue at a planted vertex


def _reads_as_ab(cols: tuple[bool, ...], vs: tuple[int, ...],
                 support: frozenset[int]) -> bool:
    """Whether the open trail vs, with edge colours cols, is an
    (a,b)-trail when read in this direction."""
    prev = None
    for red, at in zip(cols, vs):
        if not ab_step_ok(prev, red, at, support):
            return False
        prev = red
    return prev or not any(cols)           # last edge planted when a >= 1


def classify_ab_trail(g: ColoredGraph, trail: Trail,
                      support: frozenset[int] | None = None) -> tuple[int, int] | None:
    """(a, b) profile if the trail satisfies the alternating-trail
    constraints in some traversal direction, else None."""
    if support is None:
        support = g.red_support()
    cols = tuple(g.is_red(e) for e in trail.edges)
    a = sum(cols)
    b = len(cols) - a
    if b == 0:
        return None
    vs = trail.vertices
    if trail.closed:
        # rotations let any red->blue boundary start the reading, so the
        # binding constraint is the cyclic blue-blue rule (plus b >= 1);
        # an all-blue circuit must avoid the planted support entirely
        ok = all(ab_step_ok(cols[i - 1], cols[i], vs[i], support) for i in range(len(cols)))
    else:
        ok = _reads_as_ab(cols, vs, support) or _reads_as_ab(cols[::-1], vs[::-1], support)
    return (a, b) if ok else None


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
    if support is None:
        support = g.red_support()
    cap = DEFAULT_TRAIL_CAP
    adj = g.adj
    used: set[Edge] = set()
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
        for w, red in adj[v]:
            if red and red_left == 0:
                continue
            if not red and blue_left == 0:
                continue
            if not ab_step_ok(last_red, red, v, support):
                continue
            e = edge(v, w)
            if e in used:
                continue
            used.add(e)
            dfs(w, red_left - (1 if red else 0),
                blue_left - (0 if red else 1), red)
            used.remove(e)

    dfs(frm, a, b, None)
    del dfs                               # break the closure's self-reference
    return count

