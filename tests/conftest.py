"""Shared generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import functools
import gc
import math
import signal
from collections import Counter, deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from plantedcycles import adversary
from plantedcycles import (ColoredGraph, Trail, TrailExplosionError, TwoFactor, Witness,
                           canonical_trail, edge, edge_set, ratio, threshold, trails)
from plantedcycles.graphcore import Edge, StructureReport, neighbours
from plantedcycles.recovery import RecoveryState
from plantedcycles.sampler import sample_two_factor
from plantedcycles.trails import TrailRows


class CountingGraph(ColoredGraph):
    """A copy of a graph that counts the builds of its `edges` and
    `blue_edges` views, which a ColoredGraph makes from its rows on each
    read."""

    __slots__ = ("builds",)

    def __init__(self, g: ColoredGraph):
        super().__init__(g.n, g.ends[~g.red], g.cover)
        self.builds: Counter = Counter()

    @property
    def edges(self):
        self.builds["edges"] += 1
        return super().edges

    @property
    def blue_edges(self):
        self.builds["blue_edges"] += 1
        return super().blue_edges


def reference_two_factor_fields(ends: np.ndarray) -> tuple:
    """(edges, support, span) of a 2-factor as TwoFactor once built them, all
    at once, from its int64 rows in the order given: one int object per id,
    shared by the edges and the support."""
    at = np.argsort(ends, axis=None)
    distinct = ends.ravel()[at][::2]
    ranks = np.empty(ends.size, dtype=np.int64)
    ranks[at] = np.arange(ends.size) // 2
    ranks = ranks.reshape(-1, 2)
    ids = distinct.astype(object)
    return (frozenset(zip(ids[ranks[:, 0]].tolist(), ids[ranks[:, 1]].tolist())),
            frozenset(dict.fromkeys(ids.tolist())), (ids[0], ids[-1]) if len(ids) else None)


def complete_graph(n: int, planted=()) -> ColoredGraph:
    return ColoredGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], planted)


def coloured_neighbours(g: ColoredGraph) -> list[list[tuple[int, bool]]]:
    """Each vertex's (neighbour, is_red) pairs, built from g.edges and
    g.planted alone: no reference reads g.adj, the adjacency the walkers
    read."""
    out: list[list[tuple[int, bool]]] = [[] for _ in range(g.n)]
    for u, v in sorted(g.edges):
        red = (u, v) in g.planted
        out[u].append((v, red))
        out[v].append((u, red))
    return out


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall time
    have passed, so a call that never returns fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_colored_graph(rng: np.random.Generator, n_max: int = 8,
                         m_cap: int = 12) -> ColoredGraph:
    """Random small graph whose red subgraph is a valid cycle cover."""
    n = int(rng.integers(4, n_max + 1))
    planted = []
    if n >= 3 and rng.random() < 0.7:
        k = int(rng.integers(3, n + 1))
        support = rng.choice(n, size=k, replace=False)
        planted = list(sample_two_factor(support, rng).edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = [pairs[i] for i in rng.permutation(len(pairs))
             if rng.random() < 0.35]
    edges = set(planted)
    for e in extra:
        if len(edges) >= m_cap:
            break
        edges.add(e)
    return ColoredGraph(n, edges, planted)


def stitch_walk(edges: tuple) -> tuple | None:
    """Vertex walk realizing an edge sequence, or None if not a trail."""
    if len(edges) == 1:
        return edges[0]
    first, second = edges[0], edges[1]
    shared = set(first) & set(second)
    if len(shared) != 1:
        return None
    s = shared.pop()
    walk = [first[0] if first[1] == s else first[1], s]
    for e in edges[1:]:
        cur = walk[-1]
        if e[0] == cur:
            walk.append(e[1])
        elif e[1] == cur:
            walk.append(e[0])
        else:
            return None
    return tuple(walk)


def brute_force_trails(g: ColoredGraph, max_len: int) -> set:
    """All trails of length 1..max_len-1 via ordered edge tuples and
    stitching; an implementation independent of the DFS enumerator."""
    edges = sorted(g.edges)
    found = set()
    for length in range(1, max_len):
        for combo in permutations(edges, length):
            walk = stitch_walk(combo)
            if walk is None:
                continue
            found.add(canonical_trail(walk, closed=walk[0] == walk[-1]))
    return found


def reference_enumerate_trails(g: ColoredGraph, max_len: int) -> list[Trail]:
    """enumerate_trails as a recursive depth-first search from every start
    vertex, keeping each walk that is its trail's canonical form, then
    sorting by Trail.sort_key; raises TrailExplosionError past
    DEFAULT_TRAIL_CAP trails."""
    if max_len < 2:
        raise ValueError(f"max_len={max_len} must be >= 2")
    cap = trails.DEFAULT_TRAIL_CAP
    found: list[Trail] = []
    adj = coloured_neighbours(g)
    used: set = set()
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
                raise TrailExplosionError(f"more than {cap} trails of length < {max_len}")
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


def trail_rows(g: ColoredGraph, found: list[Trail]) -> TrailRows:
    """Trails of g, sorted by Trail.sort_key, as the flat rows
    enumerate_trails returns."""
    edges = sorted(g.edges)
    index = {e: i for i, e in enumerate(edges)}
    counts = [sum(t.length == k for t in found)
              for k in range(1, max((t.length for t in found), default=0) + 1)]
    verts = [v for t in found for v in t.vertices]
    eids = [i for t in found for i in (*(index[e] for e in t.edges), len(edges))]
    return TrailRows(g.n, edges, counts, np.array(verts, dtype=np.int32),
                     np.array(eids, dtype=np.int32))


def random_degree_bounded_edges(rng: np.random.Generator, n: int,
                                h_star: TwoFactor) -> frozenset:
    """Random degree-<=2 candidate: a blend of planted edges, a second
    cover, and background noise, greedily capped at degree 2."""
    mode = rng.random()
    candidates = []
    if mode < 0.4:
        candidates += [e for e in sorted(h_star.edges) if rng.random() < 0.7]
    if mode > 0.2:
        other = sample_two_factor(
            rng.choice(n, size=max(3, int(rng.integers(3, n + 1))), replace=False), rng)
        candidates += [e for e in sorted(other.edges) if rng.random() < 0.8]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    candidates += [pairs[i] for i in rng.permutation(len(pairs))[:n] if rng.random() < 0.2]
    deg = [0] * n
    out = []
    for u, v in candidates:
        if (u, v) in out:
            continue
        if deg[u] < 2 and deg[v] < 2:
            out.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return edge_set(out)


def reference_two_factor_support(edges) -> frozenset:
    """TwoFactor's check by neighbour lists: the support of a 2-factor, or
    the ValueError that TwoFactor raises.  u < v rules out self-loops and a
    pair stored both ways, so degree 2 everywhere then means every cycle
    has length >= 3."""
    unordered = sorted((u, v) for u, v in edges if not u < v)
    if unordered:
        raise ValueError(f"not a 2-factor: edge {unordered[0]} is not (u, v) with u < v")
    nbr = neighbours(edges)
    bad = sorted(v for v, ws in nbr.items() if len(ws) != 2)
    if bad:
        raise ValueError(f"not a 2-factor: degree != 2 at {bad[:5]}")
    return frozenset(nbr)


def reference_cycles(edges) -> list:
    """TwoFactor.cycles by a direct walk: cycles anchored at their
    smallest vertex, stepping first to its smaller neighbour."""
    nbr = neighbours(edges)
    seen, out = set(), []
    for start in sorted(nbr):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = start, min(nbr[start])
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            a, b = nbr[cur]
            prev, cur = cur, (b if a == prev else a)
        out.append(cyc)
    return out


def reference_structure(edges) -> StructureReport:
    """validate_structure by breadth-first search over each component."""
    nbr = neighbours(edge_set(edges))
    for v in sorted(nbr):
        if len(nbr[v]) > 2:
            return StructureReport(False, v, 0, 0, 0)
    deg1 = sum(1 for ws in nbr.values() if len(ws) == 1)
    n_cycles = n_paths = 0
    seen: set[int] = set()
    for start in sorted(nbr):
        if start in seen:
            continue
        comp, q = {start}, deque([start])
        while q:
            x = q.popleft()
            for y in nbr[x]:
                if y not in comp:
                    comp.add(y)
                    q.append(y)
        seen |= comp
        if all(len(nbr[x]) == 2 for x in comp):
            n_cycles += 1
        else:
            n_paths += 1
    return StructureReport(True, None, deg1, n_cycles, n_paths)


def reference_decompose(h_star: TwoFactor, h_edges) -> tuple:
    """(trails, profiles, open_count) of decompose_diff by a greedy edge
    walk over the split nodes v and (v, 0) / (v, 1): open trails from the
    sorted degree-1 nodes first, then the rest from the sorted nodes,
    each step taking the smallest unused (node, edge) incidence."""
    red = h_star.edges - h_edges
    blue = h_edges - h_star.edges
    red_nbr, blue_nbr = neighbours(red), neighbours(blue)
    split = {}
    for v, blues in blue_nbr.items():
        reds = red_nbr.get(v, ())
        if len(reds) + len(blues) >= 3:
            split[v] = {edge(v, min(reds)), edge(v, min(blues))}

    def node_of(v, e):
        pair = split.get(v)
        if pair is None:
            return v
        return (v, 0) if e in pair else (v, 1)

    def node_key(nd):
        return (nd, -1) if isinstance(nd, int) else nd

    def original(nd):
        return nd if isinstance(nd, int) else nd[0]

    nodes_adj: dict = {}
    for e in sorted(red | blue):
        nu, nv = node_of(e[0], e), node_of(e[1], e)
        nodes_adj.setdefault(nu, []).append((nv, e))
        nodes_adj.setdefault(nv, []).append((nu, e))
    trails, profiles, used = [], [], set()

    def walk_from(start) -> None:
        verts, cur = [original(start)], start
        while True:
            nxt = next(((other, e) for other, e in
                        sorted(nodes_adj[cur], key=lambda t: (node_key(t[0]), t[1]))
                        if e not in used), None)
            if nxt is None:
                break
            other, e = nxt
            used.add(e)
            verts.append(original(other))
            cur = other
        t = canonical_trail(verts, verts[0] == verts[-1] and cur == start)
        trails.append(t)
        reds = sum(1 for e in t.edges if e in red)
        profiles.append((reds, t.length - reds))

    endpoints = sorted((nd for nd, inc in nodes_adj.items() if len(inc) == 1), key=node_key)
    for nd in endpoints + sorted(nodes_adj, key=node_key):
        if not all(e in used for _, e in nodes_adj[nd]):
            walk_from(nd)
    return tuple(trails), tuple(profiles), sum(1 for t in trails if not t.closed)


def reference_background_edges(n: int, p: float, rng: np.random.Generator) -> set:
    """The background sampler with a seen-set and a per-pair triangular
    decode by integer square root: the oracle that
    `sampler._sample_background_edges` must match draw for draw."""
    n_pairs = n * (n - 1) // 2
    k = rng.binomial(n_pairs, p)
    if k == 0:
        return set()
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < k:
        need = k - len(chosen)
        for idx in rng.integers(0, n_pairs, size=2 * need + 8).tolist():
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
                if len(chosen) == k:
                    break
    out = set()
    w = 2 * n - 1
    for idx in chosen:
        u = (w - math.isqrt(w * w - 8 * idx)) // 2
        while u * (2 * n - u - 1) // 2 > idx:
            u -= 1
        while (u + 1) * (2 * n - u - 2) // 2 <= idx:
            u += 1
        v = idx - u * (2 * n - u - 1) // 2 + u + 1
        out.add((u, v))
    return out


# a graph is immutable, so its reference lists are built once for all of
# its hubs; the cache holds the graph, so its identity is not reused
_cached_neighbours = functools.lru_cache(maxsize=2)(coloured_neighbours)


def reference_prune_ball(g: ColoredGraph, u: int, avail, radius: int) -> frozenset:
    """The vertices that exploring hub u prunes, by breadth-first search:
    every available vertex within `radius` steps of u through available
    vertices, u excluded.  Leaves `avail` unchanged."""
    adj = _cached_neighbours(g)
    frontier = [u]
    seen = {u}
    removed: set[int] = set()
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w, _red in adj[v]:
                if w in seen or w not in avail:
                    continue
                seen.add(w)
                removed.add(w)
                nxt.append(w)
        frontier = nxt
    return frozenset(removed)


def reference_build_trees(g: ColoredGraph, available, m_star: int, ell: int, gamma: float,
                          rng: np.random.Generator) -> adversary.TreeBuildResult:
    """`adversary.build_trees` with its root candidates kept as a list:
    each round filters the sorted planted edges down to those with both
    ends available and draws one with `rng.integers` over the list's
    length.  The oracle that the live-root bytes must match draw for
    draw.  The layer walks read a byte array that is cleared alongside
    the set."""
    avail = set(available)
    if not avail:
        raise ValueError("available set is empty")
    n = g.n
    free = bytearray(v in avail for v in range(n))
    trees = []
    available_after = []

    def grow_side(root: int):
        side = adversary.TreeSide(root, {})
        queue = deque([root])
        while queue and len(side.layers) + 1 < 2 * ell:
            found, ball = adversary._layer_paths(g, queue.popleft(), free, m_star)
            side.layers.update(found)
            queue.extend(found)
            avail.difference_update(ball)
            for v in ball:
                free[v] = 0
        return side if len(side.layers) + 1 >= 2 * ell else None

    candidates = sorted(g.planted)
    for _t in range(int(math.floor(gamma * n / ell))):
        candidates = [e for e in candidates if e[0] in avail and e[1] in avail]
        if not candidates:
            return adversary.TreeBuildResult([], True, available_after)
        u0, u0p = candidates[int(rng.integers(len(candidates)))]
        avail.discard(u0)
        avail.discard(u0p)
        free[u0] = free[u0p] = 0
        left = grow_side(u0)
        if left is not None:
            right = grow_side(u0p)
            if right is not None:
                trees.append(adversary.TwoSidedTree(center=(u0, u0p), left=left, right=right))
        available_after.append(len(avail))
    return adversary.TreeBuildResult(trees, False, available_after)


def is_shortcutted(g: ColoredGraph, path: Trail) -> bool:
    """True iff the graph contains a distinct path between the endpoints
    of `path` with the same or shorter length.  Input must be an open,
    vertex-simple path.  The reference for the unique-path rule of
    `adversary._layer_paths`."""
    if path.closed:
        raise ValueError("shortcut test needs an open path")
    if len(set(path.vertices)) != len(path.vertices):
        raise ValueError("shortcut test needs a vertex-simple path")
    s, t = path.endpoints
    own = path.vertices
    limit = path.length
    adj = coloured_neighbours(g)

    def dfs(v: int, trace: list[int]) -> bool:
        if v == t:
            return tuple(trace) != own
        if len(trace) - 1 == limit:
            return False
        for w, _red in adj[v]:
            if w in trace_set:
                continue
            trace.append(w)
            trace_set.add(w)
            ok = dfs(w, trace)
            trace.pop()
            trace_set.remove(w)
            if ok:
                return True
        return False

    trace_set = {s}
    found = dfs(s, [s])
    del dfs                               # break the closure's self-reference
    return found


def reference_canonical_trail(vertices, closed: bool) -> Trail:
    """canonical_trail by comparing every rotation of the closed walk in
    both directions."""
    vs = tuple(vertices)
    if not closed:
        return Trail(min(vs, vs[::-1]), False)
    cyc = vs[:-1]
    best = None
    for seq in (cyc, cyc[::-1]):
        for i in range(len(cyc)):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return Trail(best + (best[0],), True)


def reference_witness(lam: float, delta: float) -> Witness | None:
    """find_witness with y found by a 200-step bisection for the largest
    value keeping r below 1 - 1e-6 along x = (1 - (3*delta - 1)*lam) / 2."""
    if lam >= threshold(delta):
        return None
    x = (1 - (3 * delta - 1) * lam) / 2
    y0 = 1 / x
    r0 = ratio(lam, delta, x, y0)
    if r0 >= 1:
        return None
    target = 1 - 1e-6
    t = 2 * x / (1 - x)
    y_cross = 1 / (lam * (t * delta + 1 - delta))
    if r0 >= target:
        y = (y0 + y_cross) / 2
    else:
        y_lo, y_hi = y0, y_cross
        for _ in range(200):
            mid = (y_lo + y_hi) / 2
            if ratio(lam, delta, x, mid) < target:
                y_lo = mid
            else:
                y_hi = mid
        y = y_lo
    return Witness(x=x, y=y, epsilon=math.log(x * y) / (2 * math.log(y / x)))


def reference_coefficient(lam: float, delta: float, a: int, b: int) -> Fraction:
    """c_{a,b} summed exactly from the float inputs: with lam = pl/ql and
    delta = pd/qd, 2*delta*lam = 2*pd*pl / (qd*ql) and lam*(1-delta) =
    (qd-pd)*pl / (qd*ql), so the sum is an integer over (qd*ql)^b."""
    (pl, ql), (pd, qd) = float(lam).as_integer_ratio(), float(delta).as_integer_ratio()
    total = sum((2 * pd) ** k * (qd - pd) ** (b - k)
                * math.comb(a - 1, k - 1) * math.comb(b - 1, k - 1)
                for k in range(1, min(a, b) + 1))
    return Fraction(total * pl ** b, (qd * ql) ** b)


class DegreeBoundedSubgraph:
    """Mutable edge set with max degree <= 2: disjoint cycles and paths.
    The reference greedy's H, held apart from the arrays `recover` keeps."""

    __slots__ = ("n", "edges", "degree")

    def __init__(self, n: int):
        self.n = n
        self.edges: set[Edge] = set()
        self.degree = [0] * n

    def xor_edges(self, toggled) -> None:
        """Apply H <- H XOR P for a collection of edges, keeping degrees consistent."""
        for e in toggled:
            u, v = e
            if e in self.edges:
                self.edges.remove(e)
                self.degree[u] -= 1
                self.degree[v] -= 1
            else:
                self.edges.add(e)
                self.degree[u] += 1
                self.degree[v] += 1


def reference_evaluate(h: DegreeBoundedSubgraph, cand: tuple):
    """(gain, feasible, deg1_delta) of XOR-ing the candidate's edges onto h,
    one edge at a time: gain = |H xor P| - |H|; feasible means no vertex
    exceeds degree 2."""
    edges_in = 0
    delta: dict[int, int] = {}
    for e in cand:
        if e in h.edges:
            edges_in += 1
            d = -1
        else:
            d = 1
        u, v = e
        delta[u] = delta.get(u, 0) + d
        delta[v] = delta.get(v, 0) + d
    gain = len(cand) - 2 * edges_in
    deg1_delta = 0
    degree = h.degree
    for v, d in delta.items():
        nd = degree[v] + d
        if nd > 2:
            return gain, False, 0
        deg1_delta += (1 if nd == 1 else 0) - (1 if degree[v] == 1 else 0)
    return gain, True, deg1_delta


def reference_subroutine_a(state: RecoveryState, candidates: list) -> bool:
    """Subroutine A as a scan of the edge tuples, evaluating each against
    the running H."""
    changed = False
    h = state.h
    for cand in candidates:
        gain, feasible, deg1_delta = reference_evaluate(h, cand)
        if gain > 0 and feasible and deg1_delta <= 0:
            h.xor_edges(cand)
            state.updates_a += 1
            changed = True
    return changed


def reference_subroutine_b(state: RecoveryState, candidates: list, quota: int) -> bool:
    """Subroutine B as a scan keeping the first feasible candidate of
    largest gain."""
    h = state.h
    best = None
    best_gain = None
    for cand in candidates:
        gain, feasible, _ = reference_evaluate(h, cand)
        if feasible and (best_gain is None or gain > best_gain):
            best, best_gain = cand, gain
    if best is not None and best_gain >= quota:
        h.xor_edges(best)
        state.updates_b += 1
        return True
    return False


def reference_recover(g: ColoredGraph, max_len: int, quota: int) -> RecoveryState:
    """recover's loop over the scalar subroutines."""
    candidates = [t.edges for t in reference_enumerate_trails(g, max_len)]
    state = RecoveryState(h=DegreeBoundedSubgraph(g.n))
    can_grow = True
    while can_grow:
        state.iterations += 1
        grew_a = reference_subroutine_a(state, candidates)
        grew_b = reference_subroutine_b(state, candidates, quota)
        can_grow = grew_a or grew_b
    return state


def cyclic_garbage(call) -> int:
    """Number of objects that `call()` leaves for the cyclic collector:
    with gc disabled, run it, then count what a full collection frees."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
