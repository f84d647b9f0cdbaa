"""Colored graphs, 2-factors, the degree-<=2 structure check, and edge-set
primitives.

Vertices are dense 0-based integer ids.  An edge is a plain tuple
``(u, v)`` with ``u < v``, so Python set semantics are unambiguous.
A ColoredGraph is the observed graph: every edge is either red
(planted, part of the hidden cycle cover) or blue (background).  It holds
its edges as sorted int64 rows; its sets of edge tuples are views.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

Edge = tuple[int, int]

# Largest header n that ColoredGraph.loads accepts.  A loaded graph holds its
# rows (17 B per edge, and 16 B per planted edge for the cover's) and nothing
# per vertex; the first walk over an edgeless graph
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


def csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency of an edge array in lexicographic order (`ColoredGraph.ends`):
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


def vertex_ids(ids, n: int | None = None, name: str | None = None) -> np.ndarray:
    """The one integer rule for vertex ids and counts: each is an int or a
    numpy integer, not a bool, in 0..n-1, or in int64 when n is None.
    Returns `ids` as int64: lone values, named after `name` in an error, or
    pairs (u, v) as an (m, 2) array; an integer array keeps its shape.
    Anything else is a ValueError naming the first bad value, or the least
    pair with an end that is not an integer, else the least out of range."""
    return _vertex_ids(ids, n, name)[0]


def _vertex_ids(ids, n: int | None, name: str | None) -> tuple[np.ndarray, bool]:
    """`vertex_ids(ids, n, name)`, and whether every id was a plain int
    (False for an integer array), read off the one pass over their types."""
    lo, hi = (-2 ** 63, 2 ** 63 - 1) if n is None else (0, n - 1)
    plain = False
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        ids = list(ids)
        if name is None and set(map(len, ids)) - {2}:
            raise ValueError("an edge is not a pair (u, v)")
        flat = ids if name is not None else list(chain.from_iterable(ids))
        kinds = set(map(type, flat))
        plain = kinds <= {int}
        if all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds):
            with suppress(OverflowError):                   # an int past int64
                ids = np.fromiter(flat if plain else map(int, flat), np.int64,
                                  len(flat)).reshape(-1 if name is not None else (-1, 2))
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu" and (
            not ids.size or n is None and ids.dtype != np.uint64
            or lo <= ids.min() and ids.max() <= hi):
        return ids.astype(np.int64, copy=False), plain

    def odd(v) -> bool:
        return isinstance(v, bool) or not isinstance(v, (int, np.integer))

    if name is not None:
        v = next(v for v in ids if odd(v) or not lo <= v <= hi)
        raise ValueError(f"{name}{v} ({type(v).__name__}) is not an integer" if odd(v)
                         else f"{name}{v} {'above' if v > hi else 'below'} {min(max(v, lo), hi)}")
    if any(odd(u) or odd(v) for u, v in ids):
        u, v = min(((u, v) for u, v in ids if odd(u) or odd(v)), key=repr)
        raise ValueError(f"edge ({u!r},{v!r}) has an end that is not an integer")
    u, v = min((u, v) for u, v in ids if not (lo <= u <= hi and lo <= v <= hi))
    raise ValueError(f"edge ({u},{v}) out of range for n={n}" if n is not None
                     else f"edge ({u},{v}) does not fit an array of int64 values")


def _edges(pairs: Iterable) -> np.ndarray:
    """The pairs as an (m, 2) int64 array of rows ordered u < v, their ids
    taken by `vertex_ids`; a self-loop is a ValueError."""
    u, v = vertex_ids(pairs).T
    loops = np.flatnonzero(u == v)
    if len(loops):
        raise ValueError(f"self-loop at vertex {u[loops[0]]}")
    return np.column_stack((np.minimum(u, v), np.maximum(u, v)))


class ColoredGraph:
    """Observed graph with a red/blue edge coloring.

    Immutable after construction.  `planted` is a TwoFactor, taken as
    already validated, or edges that must form one.  `n` and every end
    enter by the one integer rule, `vertex_ids`: n <= MAX_LOADED_N, and
    each edge is (u, v), 0 <= u < v < n, of ints.  The graph is its rows:
    `ends` holds each edge once, an (m, 2) int64 array in lexicographic
    order, and `red` a bool per row, True for a planted edge (a background
    edge on one merges into it); both are read-only.  Beside them it keeps
    `n` and `cover`, the planted TwoFactor, and nothing else: `planted` is
    `cover.edges`, and `edges` and `blue_edges` are frozensets built from
    the rows on each read and not kept, so a reader that needs one more
    than once holds it.  `adj` is built on its first read: only the
    walkers read it (`count_ab_trails`, the adversary's `_layer_paths` and
    `link_trees`, `enumerate_two_factors`), so a graph that only the
    greedy estimator sees never builds it.
    """

    __slots__ = ("n", "cover", "ends", "red", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge], planted: TwoFactor | Iterable[Edge]):
        self.n = n = int(vertex_ids([n], MAX_LOADED_N + 1, name="n=")[0])
        if not isinstance(planted, TwoFactor):
            # range-checked first, so that the keys u*n + v order the pairs; a
            # pair given twice, either way round, is one edge
            rows = vertex_ids(_edges(planted), n)
            keys = np.unique(rows[:, 0] * n + rows[:, 1])
            planted = TwoFactor.from_ends(np.stack(np.divmod(keys, n), axis=1))
        self.cover = planted
        # faults named in order: a blue self-loop, the cover's range, a blue range
        blue = _edges(edges)
        vertex_ids(planted.ends, n)
        rows = np.concatenate((planted.ends, vertex_ids(blue, n)))
        # one stable sort of the keys u*n + v: the first of each run of equal
        # rows is a cover row where there is one, as the cover's come first
        first = np.unique(rows[:, 0] * n + rows[:, 1], return_index=True)[1]
        self.ends, self.red = rows[first], first < len(planted.ends)
        self.ends.flags.writeable = self.red.flags.writeable = False
        self._adj: tuple[list[int], list[int], list[int], list[bool]] | None = None

    @property
    def planted(self) -> frozenset[Edge]:
        return self.cover.edges

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(zip(*self.ends.T.tolist()))

    @property
    def blue_edges(self) -> frozenset[Edge]:
        return frozenset(zip(*self.ends[~self.red].T.tolist()))

    @property
    def adj(self) -> tuple[list[int], list[int], list[int], list[bool]]:
        """(ptr, nbr, eid, red): `csr` of `ends` as lists, and each
        half-edge's colour.  Vertex v's half-edges are `ptr[v]:ptr[v+1]`,
        neighbours ascending, so the order carries no colour."""
        if self._adj is None:
            ptr, nbr, eid = csr(self.n, self.ends)
            self._adj = ptr.tolist(), nbr.tolist(), eid.tolist(), self.red[eid].tolist()
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
        rows = zip(self.ends.tolist(), self.red.tolist())
        return f"{self.n} {len(self.ends)}\n" + "".join(
            f"{u} {v} {'R' if red else 'B'}\n" for (u, v), red in rows)

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
        parts, last = {"R": [], "B": []}, None    # each (u, v) of ints, u < v
        for ln in lines[1:]:
            a, b, c = ln.split()
            e = edge(int(a), int(b))
            if last is not None and e <= last:
                raise ValueError(f"edge line {ln!r} is a duplicate or out of order")
            if c not in parts:
                raise ValueError(f"bad color {c!r}")
            parts[c].append(last := e)
        planted = parts["R"]
        return cls(n, parts["B"], TwoFactor.from_ends(
            np.fromiter(chain.from_iterable(planted), np.int64, 2 * len(planted)).reshape(-1, 2)))

    def __repr__(self) -> str:
        return (f"ColoredGraph(n={self.n}, edges={len(self.ends)}, "
                f"red={len(self.cover.ends)})")


@dataclass(frozen=True)
class TwoFactor:
    """Vertex-disjoint union of cycles (length >= 3) spanning its support.

    Built from its edges, `TwoFactor(edges)`, or from an integer array of
    them, `TwoFactor.from_ends`.  Both take the ids by `vertex_ids` and run
    the same array check, `_build`, which keeps the sorted `ends` alone.
    `edges`, `support` and `span` are built from `ends` on their first
    read, each on its own, and then kept (`__getattr__`), so a cover that
    is only walked or range-checked holds no set.  `TwoFactor(edges)`
    keeps the caller's set where every id is a plain int.
    """

    edges: frozenset[Edge]
    support: frozenset[int] = field(init=False)
    # (least id, greatest id), None for no edges; reserve_edges
    # range-checks the cover through it
    span: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    # the edges as a read-only (m, 2) int64 array in lexicographic order,
    # (0, 2) for no edges.  reserve_edges, build_trees and ColoredGraph
    # read it in place of sorting the edges
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ends, plain = _vertex_ids(self.edges, None, None)
        self._build(ends)
        if plain:                         # pairs of ints are kept as the caller's set holds them
            object.__setattr__(self, "edges", frozenset(self.edges))
        else:                             # built from the int64 ends on first read
            object.__delattr__(self, "edges")

    @classmethod
    def from_ends(cls, ends: np.ndarray) -> TwoFactor:
        """The 2-factor whose edges are the rows (u, v) of an (m, 2) integer
        array, under TwoFactor(edges)'s check; a row given twice is a
        ValueError."""
        ends = np.asarray(ends)
        if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("not a 2-factor: the ends are not an (m, 2) array of int64 values")
        self = object.__new__(cls)
        self._build(vertex_ids(ends))
        return self

    def _build(self, ends: np.ndarray) -> None:
        """Check u < v and degree 2 on `ends`, the (m, 2) int64 array of the
        edges, and keep them, sorted and read-only, as `ends`."""
        # u < v rules out self-loops and a pair stored both ways, so degree 2
        # everywhere then means every cycle has length >= 3
        unordered = ends[:, 0] >= ends[:, 1]
        if unordered.any():
            u, v = min(map(tuple, ends[unordered].tolist()))
            raise ValueError(f"not a 2-factor: edge {(u, v)} is not (u, v) with u < v")
        at = np.argsort(ends, axis=None)
        ordered = ends.ravel()[at]
        # degree 2 everywhere: the sorted ends pair up, equal within a pair
        # and different from the next pair
        if not ((ordered[::2] == ordered[1::2]).all()
                and (ordered[1:-1:2] != ordered[2::2]).all()):
            distinct, degree = np.unique(ordered, return_counts=True)
            raise ValueError(f"not a 2-factor: degree != 2 at {distinct[degree != 2][:5].tolist()}")
        ranks = np.empty(ends.size, dtype=np.int64)
        ranks[at] = np.arange(ends.size) // 2
        ranks = ranks.reshape(-1, 2)
        sorted_ends = ends[np.argsort(ranks[:, 0] * (ends.size // 2) + ranks[:, 1])]
        sorted_ends.flags.writeable = False
        # a row given twice passes the degree check: it is next to its copy
        # in the sorted rows
        twice = np.flatnonzero((sorted_ends[1:] == sorted_ends[:-1]).all(axis=1))
        if len(twice):
            u, v = sorted_ends[twice[0]].tolist()
            raise ValueError(f"not a 2-factor: edge ({u}, {v}) is given twice")
        object.__setattr__(self, "ends", sorted_ends)

    def __getattr__(self, name: str):
        """`edges`, `support` or `span` on its first read, built from `ends`
        and kept.  The edges and the support share one int object per id,
        which the first of them to be built makes."""
        if name not in ("edges", "support", "span"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ends = self.ends
        if name == "span":                # the rows are sorted, each with u < v
            value = (int(ends[0, 0]), int(ends[:, 1].max())) if len(ends) else None
        else:
            # each id is two of the sorted ends
            at = np.argsort(ends, axis=None)
            ids = self.__dict__.get("_ids")
            if ids is None:
                ids = self.__dict__["_ids"] = ends.ravel()[at][::2].astype(object)
            if name == "support":
                value = frozenset(dict.fromkeys(ids.tolist()))
            else:
                shared = np.empty(ends.size, dtype=object)
                shared[at] = ids.repeat(2)
                value = frozenset(zip(shared[0::2].tolist(), shared[1::2].tolist()))
        object.__setattr__(self, name, value)
        return value

    def cycles(self) -> list[list[int]]:
        """Cycles as vertex lists, each anchored at its smallest vertex."""
        return [walk for walk, _ in paths_and_cycles(neighbours(zip(*self.ends.T.tolist())))]


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
