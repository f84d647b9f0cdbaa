"""Alternating-trail decomposition of H XOR H*, the recovery test oracle.

The symmetric difference of the hidden cycle cover H* and any
degree-<=2 candidate H splits into edge-disjoint trails that alternate
between red (H* \\ H) and blue (H \\ H*) at every vertex shared by H*
and H, with exactly one open trail per pair of degree-1 vertices of H.
The construction splits each degree-3/4 difference vertex v into two
nodes, (v, 0) holding a red-blue pair and (v, 1) holding the rest; every
other vertex is the single node (v, 0).  The split graph has maximum
degree 2, so the trails are its paths and cycles, read back on the
original vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphcore import Edge, TwoFactor, edge, edge_set, neighbours, paths_and_cycles
from .trails import Trail, canonical_trail


def excess(profile: tuple[int, int], epsilon: float) -> float:
    """b - (1/2 - epsilon) * (a + b): surplus of blue edges in a trail."""
    a, b = profile
    if a < 0 or b < 0:
        raise ValueError("profile counts must be nonnegative")
    return b - (0.5 - epsilon) * (a + b)


@dataclass(frozen=True)
class AlternatingDecomposition:
    trails: tuple[Trail, ...]
    profiles: tuple[tuple[int, int], ...]   # (red, blue) per trail
    open_count: int
    red_edges: frozenset[Edge]              # H* \ H
    blue_edges: frozenset[Edge]             # H \ H*

    def validate(self, h_star: TwoFactor, h_edges: frozenset[Edge]) -> None:
        """Re-check every oracle invariant; raises ValueError on failure."""
        diff = self.red_edges | self.blue_edges
        if self.red_edges & self.blue_edges:
            raise ValueError("red/blue edge sets overlap")
        if diff != h_star.edges ^ h_edges:
            raise ValueError("decomposition does not cover H xor H*")
        covered: set[Edge] = set()
        for t in self.trails:
            for e in t.edges:
                if e in covered:
                    raise ValueError(f"edge {e} appears in two trails")
                covered.add(e)
        if covered != diff:
            raise ValueError("trails do not partition the difference")
        h_nbr = neighbours(h_edges)
        shared = h_star.support.intersection(h_nbr)
        for t in self.trails:
            self._check_alternation(t, shared)
        n_open = sum(1 for t in self.trails if not t.closed)
        if n_open != self.open_count:
            raise ValueError("open_count mismatch")
        deg1 = [v for v, ws in h_nbr.items() if len(ws) == 1]
        if 2 * self.open_count != len(deg1):
            raise ValueError("open trail count != (degree-1 vertices of H)/2")
        for t in self.trails:
            if not t.closed:
                for v in t.endpoints:
                    if len(h_nbr.get(v, ())) != 1:
                        raise ValueError(f"open-trail endpoint {v} has degree != 1 in H")
        for t, (a, b) in zip(self.trails, self.profiles):
            reds = sum(1 for e in t.edges if e in self.red_edges)
            if (reds, t.length - reds) != (a, b):
                raise ValueError("stored profile mismatch")

    def _check_alternation(self, t: Trail, shared: frozenset[int] | set[int]) -> None:
        cols = [e in self.red_edges for e in t.edges]
        vs = t.vertices
        k = len(cols)
        pairs = range(k) if t.closed else range(k - 1)
        for i in pairs:
            j = (i + 1) % k
            if vs[j] in shared and cols[i] == cols[j]:      # a closed trail has vs[0] == vs[-1]
                raise ValueError(f"no alternation at shared vertex {vs[j]}")


def decompose_diff(h_star: TwoFactor, h: Iterable[Edge]) -> AlternatingDecomposition:
    """Alternating-trail decomposition of H* XOR H.

    Every difference vertex of degree 3 or 4 is split into two copies,
    (v, 0) and (v, 1); any other vertex v becomes the single node (v, 0).
    Copy 0 keeps a designated red-blue pair and copy 1 the remaining
    edges, so the split graph has maximum degree 2 and the trails are its
    paths and cycles, read back on the original vertices.  Pairing rule
    (one of the many valid pairings, fixed for reproducibility): the red
    edge with the smallest other endpoint pairs with the blue edge with
    the smallest other endpoint.

    No vertex needs a degree check beyond H's.  A vertex with H*-degree
    d* in {0, 2} (H* is a TwoFactor), H-degree d <= 2 and s shared edges
    has d* - s red and d - s blue difference edges, so at most 4; one with
    4 has 2 red and 2 blue, and one with 3 has 2 red and 1 blue.
    """
    h_edges = edge_set(h)
    if any(len(ws) > 2 for ws in neighbours(h_edges).values()):
        raise ValueError("candidate subgraph has a vertex of degree > 2")

    red = h_star.edges - h_edges
    blue = h_edges - h_star.edges
    red_nbr, blue_nbr = neighbours(red), neighbours(blue)

    pair: dict[int, set[Edge]] = {}
    for v, blues in blue_nbr.items():            # degree 3 and 4 both have a blue edge
        reds = red_nbr.get(v, ())
        if len(reds) + len(blues) >= 3:
            pair[v] = {edge(v, min(reds)), edge(v, min(blues))}

    def node(v: int, e: Edge) -> tuple[int, int]:
        return (v, 1) if v in pair and e not in pair[v] else (v, 0)

    split_nbr = neighbours((node(e[0], e), node(e[1], e)) for e in red | blue)
    trails: list[Trail] = []
    profiles: list[tuple[int, int]] = []
    for walk, closed in paths_and_cycles(split_nbr):
        verts = [v for v, _ in walk]
        if closed:
            verts.append(verts[0])
        t = canonical_trail(verts, closed)
        trails.append(t)
        reds = sum(1 for e in t.edges if e in red)
        profiles.append((reds, t.length - reds))

    open_count = sum(1 for t in trails if not t.closed)
    decomp = AlternatingDecomposition(
        trails=tuple(trails),
        profiles=tuple(profiles),
        open_count=open_count,
        red_edges=frozenset(red),
        blue_edges=frozenset(blue),
    )
    decomp.validate(h_star, h_edges)
    return decomp
