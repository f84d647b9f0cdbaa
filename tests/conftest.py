"""Shared generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import gc
from itertools import permutations

import numpy as np
import pytest

from plantedcycles import ColoredGraph, TwoFactor, canonical_trail, edge_set
from plantedcycles.sampler import sample_two_factor


def complete_graph(n: int, planted=()) -> ColoredGraph:
    return ColoredGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], planted)


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
