"""Colored graphs, 2-factors, the degree-<=2 structure check, and edge-set
primitives.

Vertices are dense 0-based integer ids.  An edge is a plain tuple
``(u, v)`` with ``u < v``, so Python set semantics are unambiguous.
A ColoredGraph is the observed graph: every edge is either red
(planted, part of the hidden cycle cover) or blue (background).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, Iterable

import numpy as np

Edge = tuple[int, int]

# Largest header n that ColoredGraph.loads accepts.  A load allocates
# nothing per vertex; the first walk over an edgeless graph
# (ColoredGraph.adj) peaks at 16 B per vertex, its int64 offsets and their
# list (tracemalloc), so 2**25 vertices take 512 MiB of the 2 GiB that
# trails.DEFAULT_TRAIL_CAP budgets for a run.
MAX_LOADED_N = 2 ** 25


def edge(u: int, v: int) -> Edge:
    """Canonical edge: endpoints distinct and stored with u < v."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def edge_set(pairs: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    return frozenset(edge(u, v) for u, v in pairs)


def symmetric_difference(a: Iterable[Edge], b: Iterable[Edge]) -> frozenset[Edge]:
    """(A \\ B) | (B \\ A) on edge sets."""
    return frozenset(a) ^ frozenset(b)


def neighbours(edges: Iterable[Edge]) -> dict[int, list[int]]:
    """Neighbour lists of an edge set, keyed by the vertices it touches;
    a vertex's degree is the length of its list."""
    nbr: dict[int, list[int]] = {}
    for u, v in edges:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    return nbr


def sorted_edges(n: int, *parts: Collection[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """The union of disjoint edge sets as an (m, 2) int64 array in
    lexicographic order, and the permutation that sorted it: row i is edge
    order[i] of the parts taken one after another, each in its iteration
    order.  Every end must lie in 0..n-1: one argsort of the packed keys
    u*n + v orders the rows."""
    count = sum(map(len, parts))
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(parts)), dtype=np.int64,
                       count=2 * count).reshape(count, 2)
    order = np.argsort(ends[:, 0] * n + ends[:, 1])
    return ends[order], order


def csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency of an edge array in lexicographic order (`sorted_edges`):
    vertex v's half-edges are `indptr[v]:indptr[v+1]` of `nbr` (ascending)
    and of `eid`, the rows of `ends` they belong to."""
    # v's half-edges to smaller neighbours, then to larger ones, each group
    # ascending in the sorted rows: a stable sort by v keeps that order
    src = np.concatenate([ends[:, 1], ends[:, 0]])
    dst = np.concatenate([ends[:, 0], ends[:, 1]]).astype(np.int32)
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    eid = np.arange(len(ends), dtype=np.int32)
    return indptr, dst[order], np.concatenate([eid, eid])[order]


def paths_and_cycles(nbr: dict) -> list[tuple[list, bool]]:
    """Components of a graph of maximum degree 2, given by its neighbour
    lists, as (walk, closed) pairs.  Paths come first, each walked from
    its smaller end and ordered by it; then cycles, each walked from its
    smallest node towards its smaller neighbour, ordered by that node.
    A cycle's walk does not repeat its first node."""
    order = sorted(nbr)
    seen: set = set()
    out = []
    for closed in (False, True):
        for start in order:
            if start in seen or (len(nbr[start]) == 2) != closed:
                continue
            walk = [start]
            seen.add(start)
            prev, cur = start, min(nbr[start])
            while cur != start:
                walk.append(cur)
                seen.add(cur)
                ws = nbr[cur]
                if len(ws) == 1:
                    break
                a, b = ws
                prev, cur = cur, (b if a == prev else a)
            out.append((walk, closed))
    return out


def _is_vertex_id(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _reject(edges: list[Edge], n: int) -> None:
    """Raise ValueError naming the least of `edges` with an end that is not
    an integer (an int or a numpy integer, not a bool), or else the least
    one outside 0 <= u < v < n; return if there is neither."""
    odd = [e for e in edges if not all(map(_is_vertex_id, e))]
    if odd:
        u, v = min(odd, key=repr)
        raise ValueError(f"edge ({u!r},{v!r}) has an end that is not an integer")
    out = [e for e in edges if not 0 <= e[0] < e[1] < n]
    if out:
        u, v = min(out)
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")


class ColoredGraph:
    """Observed graph with a red/blue edge coloring.

    Immutable after construction.  The blue edge set and the red cover
    are built once, here.  `planted` is a TwoFactor, taken as already
    validated, or edges that must form one; every edge must be (u, v),
    0 <= u < v < n, with integer ends (ints or numpy integers, not
    bools).  A background edge that coincides with a planted edge merges
    into it.  `adj`, the graph's CSR adjacency with each half-edge's
    colour, is built on its first read, from one `sorted_edges` of the
    planted and blue sets: only the walkers read it (`count_ab_trails`,
    the adversary's `_layer_paths` and `link_trees`,
    `enumerate_two_factors`), so a graph that only the greedy estimator
    sees never builds it.
    """

    __slots__ = ("n", "edges", "planted", "blue_edges", "cover", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge], planted: TwoFactor | Iterable[Edge]):
        self.n = n
        self.cover = planted if isinstance(planted, TwoFactor) else TwoFactor(edge_set(planted))
        self.planted = self.cover.edges
        self.blue_edges = edge_set(edges) - self.planted
        self.edges = self.planted | self.blue_edges
        # TwoFactor ordered the planted pairs and took the range of their ids
        span = self.cover.span
        if span is None or span[0] < 0 or span[1] >= n:
            _reject(list(self.planted), n)
        bad = [(u, v) for u, v in self.blue_edges
               if not (type(u) is int is type(v) and 0 <= u < v < n)]
        if bad:
            _reject(bad, n)
        self._adj: tuple[list[int], list[int], list[int], list[bool]] | None = None

    @property
    def adj(self) -> tuple[list[int], list[int], list[int], list[bool]]:
        """(ptr, nbr, eid, red): the CSR of the sorted edges (`csr`) as
        lists, and each half-edge's colour, read off the set (planted or
        blue) its edge was taken from.  Vertex v's half-edges are
        `ptr[v]:ptr[v+1]`, neighbours ascending, so the order carries no
        colour; `eid` indexes `sorted(edges)`."""
        if self._adj is None:
            ends, order = sorted_edges(self.n, self.planted, self.blue_edges)
            ptr, nbr, eid = csr(self.n, ends)
            red = order < len(self.planted)
            self._adj = ptr.tolist(), nbr.tolist(), eid.tolist(), red[eid].tolist()
        return self._adj

    def is_red(self, e: Edge) -> bool:
        return e in self.planted

    def red_support(self) -> frozenset[int]:
        return self.cover.support

    # text format: first line "n m", then m lines "u v c", c in {R, B},
    # edges sorted lexicographically.  Round-trips bit-exactly.
    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write(self.dumps())

    def dumps(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        for u, v in sorted(self.edges):
            c = "R" if (u, v) in self.planted else "B"
            lines.append(f"{u} {v} {c}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path: str) -> "ColoredGraph":
        with open(path, "r", encoding="ascii") as f:
            return cls.loads(f.read())

    @classmethod
    def loads(cls, text: str) -> "ColoredGraph":
        lines = text.strip().splitlines()
        if not lines:
            raise ValueError("empty graph file: no 'n m' header line")
        n, m = map(int, lines[0].split())
        if not 0 <= n <= MAX_LOADED_N:
            raise ValueError(f"header n={n} outside 0..{MAX_LOADED_N}")
        if len(lines) - 1 != m:
            raise ValueError(f"header says {m} edges, file has {len(lines) - 1}")
        edges, planted = [], []
        for ln in lines[1:]:
            a, b, c = ln.split()
            e = edge(int(a), int(b))
            if edges and e <= edges[-1]:
                raise ValueError(f"edge line {ln!r} is a duplicate or out of order")
            edges.append(e)
            if c == "R":
                planted.append(e)
            elif c != "B":
                raise ValueError(f"bad color {c!r}")
        return cls(n, edges, planted)

    def __repr__(self) -> str:
        return (f"ColoredGraph(n={self.n}, edges={len(self.edges)}, "
                f"red={len(self.planted)})")


@dataclass(frozen=True)
class TwoFactor:
    """Vertex-disjoint union of cycles (length >= 3) spanning its support."""

    edges: frozenset[Edge]
    support: frozenset[int] = field(init=False)
    # (least id, greatest id) when the ids are ints or signed numpy integers
    # (no bool), else None; ColoredGraph range-checks the cover through it
    # and, where it is None, edge by edge; reserve_edges rejects a None
    span: tuple[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(map(len, self.edges)) - {2}:
            raise ValueError("not a 2-factor: an edge is not a pair (u, v)")
        # the ends are int64 only when every id is an int; any other id (a
        # float, a str, an int past int64) is kept as the object it is,
        # never converted
        ids = list(chain.from_iterable(self.edges))
        ends = np.array(ids)
        if ends.dtype.kind != "i" or ends.ndim != 1:
            ends = np.fromiter(ids, dtype=object, count=len(ids))
        ends = ends.reshape(-1, 2)
        # u < v rules out self-loops and a pair stored both ways, so degree 2
        # everywhere then means every cycle has length >= 3
        if not (ends[:, 0] < ends[:, 1]).all():
            unordered = min((u, v) for u, v in self.edges if not u < v)
            raise ValueError(f"not a 2-factor: edge {unordered} is not (u, v) with u < v")
        support, degree = np.unique(ends, return_counts=True)
        if (degree != 2).any():
            # name each vertex by the id it has in the edges
            bad = set(support[degree != 2].tolist())
            named = sorted({v for v in ids if v in bad})
            raise ValueError(f"not a 2-factor: degree != 2 at {named[:5]}")
        # from a dict of the distinct ids, the set is sized for them alone:
        # from all 2m ends it can take a table twice the size
        object.__setattr__(self, "support", frozenset(dict.fromkeys(ids)))
        span = None
        if ends.dtype.kind == "i" and len(support):
            # a bool among ints reads as 0 or 1 in the int64 array
            if all(_is_vertex_id(ids[k]) for k in np.flatnonzero(ends.ravel() <= 1).tolist()):
                span = (int(support[0]), int(support[-1]))
        object.__setattr__(self, "span", span)

    def cycles(self) -> list[list[int]]:
        """Cycles as vertex lists, each anchored at its smallest vertex."""
        return [walk for walk, _ in paths_and_cycles(neighbours(self.edges))]


@dataclass(frozen=True)
class StructureReport:
    valid: bool
    offender: int | None       # first vertex of degree > 2, if any
    deg1_count: int
    n_cycles: int
    n_paths: int


def validate_structure(edges: Iterable[Edge]) -> StructureReport:
    """Classify an edge set as degree-bounded (cycles + paths) or not.

    When valid, also reports the number of degree-1 vertices and the
    component split into cycles and paths (an isolated edge is a path).
    """
    nbr = neighbours(edge_set(edges))
    for v in sorted(nbr):
        if len(nbr[v]) > 2:
            return StructureReport(False, v, 0, 0, 0)
    deg1 = sum(1 for ws in nbr.values() if len(ws) == 1)
    comps = paths_and_cycles(nbr)
    n_cycles = sum(closed for _, closed in comps)
    return StructureReport(True, None, deg1, n_cycles, len(comps) - n_cycles)


def risk(h_star: TwoFactor, h_hat: Iterable[Edge]) -> float:
    """Fraction of misclassified edges: |H* XOR H| / |H*|."""
    if not h_star.edges:
        raise ValueError("undefined risk: empty planted set")
    return len(symmetric_difference(h_star.edges, h_hat)) / len(h_star.edges)
