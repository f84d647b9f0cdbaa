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


def sorted_edges(n: int, edges: Collection[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """An edge set as an (m, 2) int64 array in lexicographic order, and the
    permutation that sorted it: row i is edge order[i] of the set in its
    iteration order.  Every end must lie in 0..n-1: one argsort of the
    packed keys u*n + v orders the rows."""
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                       count=2 * len(edges)).reshape(len(edges), 2)
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


_INT64 = (-2 ** 63, 2 ** 63 - 1)


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
    colour, is built on its first read, by merging the cover's sorted
    `TwoFactor.ends` with one `sorted_edges` of the blue set: only the
    walkers read it (`count_ab_trails`, the adversary's `_layer_paths`
    and `link_trees`, `enumerate_two_factors`), so a graph that only the
    greedy estimator sees never builds it.
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
        lists, and each half-edge's colour, read off the part (planted or
        blue) its edge was merged from.  Vertex v's half-edges are
        `ptr[v]:ptr[v+1]`, neighbours ascending, so the order carries no
        colour; `eid` indexes `sorted(edges)`."""
        if self._adj is None:
            n, planted = self.n, self.cover.ends
            blue, _ = sorted_edges(n, self.blue_edges)
            # merge the two sorted parts: planted row i has i planted rows
            # and searchsorted(...)[i] blue rows before it
            red = np.zeros(len(planted) + len(blue), dtype=bool)
            red[np.arange(len(planted)) + np.searchsorted(blue[:, 0] * n + blue[:, 1],
                                                          planted[:, 0] * n + planted[:, 1])] = True
            ends = np.empty((len(red), 2), dtype=np.int64)
            ends[red], ends[~red] = planted, blue
            ptr, nbr, eid = csr(n, ends)
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
    """Vertex-disjoint union of cycles (length >= 3) spanning its support.

    Built from its edges, `TwoFactor(edges)`, or from an integer array of
    them, `TwoFactor.from_ends`; both run the same array check, `_check`.
    """

    edges: frozenset[Edge]
    support: frozenset[int] = field(init=False)
    # (least id, greatest id) when every id is an int or a numpy integer
    # (no bool) in the int64 range, else None; ColoredGraph range-checks the
    # cover through it and, where it is None, edge by edge; reserve_edges
    # rejects a None
    span: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    # the edges as a read-only (m, 2) int64 array in lexicographic order,
    # (0, 2) for no edges; None only where span is None.  reserve_edges,
    # build_trees and ColoredGraph.adj read it in place of sorting the edges
    ends: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(map(len, self.edges)) - {2}:
            raise ValueError("not a 2-factor: an edge is not a pair (u, v)")
        # the ends are int64 only when every id is an integer in the int64
        # range; any other id (a float, a str, an int past int64) is compared
        # as the object it is, never converted.  Plain ints come out of
        # np.array as int64 already; other ids (narrower or unsigned numpy
        # integers, numpy ids of mixed signedness, which promote to float64)
        # are checked and converted one by one
        ids = list(chain.from_iterable(self.edges))
        ends = np.array(ids)
        if ends.dtype != np.int64 or ends.ndim != 1:
            ends = (np.fromiter(map(int, ids), dtype=np.int64, count=len(ids))
                    if all(_is_vertex_id(v) and _INT64[0] <= v <= _INT64[1] for v in ids)
                    else np.fromiter(ids, dtype=object, count=len(ids)))
        self._check(ends.reshape(-1, 2), ids)
        # from a dict of the distinct ids, the set is sized for them alone:
        # from all 2m ends it can take a table twice the size
        object.__setattr__(self, "support", frozenset(dict.fromkeys(ids)))

    @classmethod
    def from_ends(cls, ends: np.ndarray) -> TwoFactor:
        """The 2-factor whose edges are the rows (u, v) of an (m, 2) integer
        array with values in the int64 range, under TwoFactor(edges)'s
        check; a row given twice is a ValueError.  Each id becomes one int
        object, shared by its two edges and the support."""
        ends = np.asarray(ends)
        if (ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2
                or (ends.dtype == np.uint64 and ends.size and ends.max() > _INT64[1])):
            raise ValueError("not a 2-factor: the ends are not an (m, 2) array of int64 values")
        self = object.__new__(cls)
        distinct, ranks = self._check(ends.astype(np.int64, copy=False))
        # a row given twice passes the degree check: it is next to its copy
        # in the sorted rows
        twice = np.flatnonzero((self.ends[1:] == self.ends[:-1]).all(axis=1))
        if len(twice):
            u, v = self.ends[twice[0]].tolist()
            raise ValueError(f"not a 2-factor: edge ({u}, {v}) is given twice")
        ids = distinct.astype(object)                  # one int per id
        object.__setattr__(self, "edges", frozenset(zip(ids[ranks[:, 0]].tolist(),
                                                        ids[ranks[:, 1]].tolist())))
        object.__setattr__(self, "support", frozenset(dict.fromkeys(ids.tolist())))
        return self

    def _check(self, ends: np.ndarray, ids: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Check u < v and degree 2 on `ends`, the (m, 2) array of the edges'
        ends, and set `span` and `ends`.  `ids` are the ends in row order as
        the objects the edges hold, which name an offending edge or vertex;
        None means the array's own ints.  Returns the distinct ids ascending
        and each end's index among them."""
        # u < v rules out self-loops and a pair stored both ways, so degree 2
        # everywhere then means every cycle has length >= 3
        if not (ends[:, 0] < ends[:, 1]).all():
            ids = ends.ravel().tolist() if ids is None else ids
            unordered = min((u, v) for u, v in zip(ids[::2], ids[1::2]) if not u < v)
            raise ValueError(f"not a 2-factor: edge {unordered} is not (u, v) with u < v")
        flat = ends.ravel()
        at = np.argsort(flat)
        ordered = flat[at]
        # degree 2 everywhere: the sorted ends pair up, equal within a pair
        # and different from the next pair
        if not ((ordered[::2] == ordered[1::2]).all()
                and (ordered[1:-1:2] != ordered[2::2]).all()):
            # name each vertex by the id it has in the edges
            distinct, degree = np.unique(ends, return_counts=True)
            bad = set(distinct[degree != 2].tolist())
            named = sorted({v for v in (flat.tolist() if ids is None else ids) if v in bad})
            raise ValueError(f"not a 2-factor: degree != 2 at {named[:5]}")
        distinct = ordered[::2]
        ranks = np.empty(len(flat), dtype=np.int64)
        ranks[at] = np.arange(len(flat)) // 2
        ranks = ranks.reshape(-1, 2)
        span = sorted_ends = None
        # a bool among ints reads as 0 or 1 in the int64 array
        if ends.dtype.kind == "i" and (ids is None or all(
                _is_vertex_id(ids[k]) for k in np.flatnonzero(flat <= 1).tolist())):
            sorted_ends = ends[np.argsort(ranks[:, 0] * len(distinct) + ranks[:, 1])]
            if len(distinct):
                span = (int(distinct[0]), int(distinct[-1]))
            sorted_ends.flags.writeable = False
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "ends", sorted_ends)
        return distinct, ranks

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
