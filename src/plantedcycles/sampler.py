"""Instance sampler for the planted cycles model.

An instance on n vertices with background intensity lambda and planted
fraction delta is drawn by (1) choosing floor(delta*n) support vertices
uniformly, (2) planting a uniform 2-factor (or a single uniform cycle)
on them, and (3) adding every other vertex pair independently with
probability lambda/n.  A background edge that coincides with a planted
edge merges into the single red edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import graphcore
from .graphcore import ColoredGraph, Edge, TwoFactor

TWO_FACTOR = "two-factor"
SINGLE_CYCLE = "single-cycle"

# Largest expected edge count floor(delta*n) + lambda*(n-1)/2 that ModelParams
# accepts.  sample_instance peaks at 270-395 B per expected edge (tracemalloc,
# n from 5,000 to 150,000, lambda from 0.1 to 4, delta 0.5 and 1): the built
# graph with its sorted rows and colours (17 B per edge), its cover with its
# sorted int64 ends (16 B per cover edge) and the sampler's pair set.  At
# 2**10 B per edge, 2**21 edges fill the 2 GiB that trails.DEFAULT_TRAIL_CAP
# budgets for a run (2**31 B / 2**10 B); tests/test_sampler.py checks the 2**10 B.
MAX_EXPECTED_EDGES = 2 ** 21


@dataclass(frozen=True)
class ModelParams:
    n: int
    lam: float
    delta: float
    variant: str = TWO_FACTOR

    def __post_init__(self):
        object.__setattr__(self, "n", int(graphcore.vertex_ids(
            [self.n], graphcore.MAX_LOADED_N + 1, name="n=")[0]))
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta={self.delta} outside (0, 1]")
        if not self.lam > 0:                     # NaN fails this too
            raise ValueError(f"lambda={self.lam} must be positive")
        if self.lam > self.n:
            raise ValueError(f"lambda={self.lam} > n={self.n}: edge probability > 1")
        if self.support_size < 3:
            raise ValueError(f"floor(delta*n)={self.support_size} < 3: no 2-factor exists")
        if self.variant not in (TWO_FACTOR, SINGLE_CYCLE):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.support_size + self.lam * (self.n - 1) / 2 > MAX_EXPECTED_EDGES:
            raise ValueError(f"expected edge count floor(delta*n) + lambda*(n-1)/2 "
                             f"above {MAX_EXPECTED_EDGES}")

    @property
    def support_size(self) -> int:
        return int(np.floor(self.delta * self.n))


def _count_cycles(perm: np.ndarray) -> int:
    """Number of cycles of a permutation of range(m), by pointer doubling.

    Start from label[i] = i and nxt = perm; each round sets
    label[i] = min(label[i], label[nxt[i]]) and then nxt = nxt[nxt].  By
    induction, after k rounds label[i] is the least index among i and its
    next 2**k - 1 successors, and nxt is perm applied 2**k times: the new
    label joins the window of i with the window of perm^(2**k)(i), which
    continues it.  Once 2**k >= m, each window holds the whole cycle of
    i, so label[i] is that cycle's least member, and exactly one index
    per cycle keeps its own label.
    """
    index = np.arange(len(perm))
    label, nxt, reach = index, perm, 1
    while reach < len(perm):
        label = np.minimum(label, label[nxt])
        nxt = nxt[nxt]
        reach *= 2
    return int(np.count_nonzero(label == index))


def _cover(support: np.ndarray, i: np.ndarray, j: np.ndarray) -> TwoFactor:
    """The 2-factor whose edges join support[i[k]] and support[j[k]], for
    an ascending support: the smaller position holds the smaller end."""
    ends = np.empty((len(i), 2), dtype=np.int64)
    ends[:, 0], ends[:, 1] = support[np.minimum(i, j)], support[np.maximum(i, j)]
    return TwoFactor.from_ends(ends)


def sample_two_factor(support, rng: np.random.Generator) -> TwoFactor:
    """Uniform 2-factor on the given support, by rejection.

    Draw a uniform permutation; reject if any cycle is shorter than 3;
    otherwise accept with probability 2**(1-c) where c is the number of
    cycles, counted in numpy by `_count_cycles`.  A 2-factor with c
    cycles corresponds to exactly 2**c permutations (a direction per
    cycle), so the acceptance weight makes the output exactly uniform
    over 2-factors.  An accepted permutation is the cover itself: its
    arcs i -> perm[i] of the ascending support are the cover's edges.
    The support's ids enter by `graphcore.vertex_ids`: a float or a bool
    is a ValueError, never truncated by a cast.
    """
    support = np.sort(graphcore.vertex_ids(support, name="vertex id "))
    m = len(support)
    if m < 3:
        raise ValueError(f"support size {m} < 3")
    index = np.arange(m)
    while True:
        perm = rng.permutation(m)
        if (perm[perm] == index).any():
            continue                      # a fixed point or a 2-cycle
        c = _count_cycles(perm)
        if c > 1 and rng.random() >= 2.0 ** (1 - c):
            continue
        return _cover(support, index, perm)


def sample_single_cycle(support, rng: np.random.Generator) -> TwoFactor:
    """Uniform Hamiltonian cycle on the support (uniform cyclic order)."""
    support = np.sort(graphcore.vertex_ids(support, name="vertex id "))
    if len(support) < 3:
        raise ValueError(f"support size {len(support)} < 3")
    order = rng.permutation(len(support))
    return _cover(support, order, np.roll(order, -1))


def _sample_background_edges(n: int, p: float, rng: np.random.Generator) -> set[Edge]:
    """All-pairs Bernoulli(p) edges, sampled by count + uniform distinct pair indices."""
    n_pairs = n * (n - 1) // 2
    k = rng.binomial(n_pairs, p)
    # first k distinct values of an iid uniform stream form a uniform k-subset
    chosen: dict[int, None] = {}
    while len(chosen) < k:
        draws = rng.integers(0, n_pairs, size=2 * (k - len(chosen)) + 8)
        chosen.update(dict.fromkeys(draws.tolist()))
    idx = np.fromiter(chosen, dtype=np.int64, count=k)
    # decode triangular indices: pair (u, v) with u < v, row-major
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2       # index of pair (u, u+1)
    u = np.searchsorted(row_start, idx, side="right") - 1
    v = idx - row_start[u] + u + 1
    return set(zip(u.tolist(), v.tolist()))


def sample_instance(params: ModelParams,
                    rng: np.random.Generator) -> tuple[ColoredGraph, TwoFactor]:
    """One draw of (observed graph, hidden 2-factor)."""
    n = params.n
    support = rng.choice(n, size=params.support_size, replace=False)
    if params.variant == SINGLE_CYCLE:
        h_star = sample_single_cycle(support, rng)
    else:
        h_star = sample_two_factor(support, rng)
    background = _sample_background_edges(n, params.lam / n, rng)
    return ColoredGraph(n, background, h_star), h_star


def cycle_type_stats(samples: int, m: int, rng: np.random.Generator) -> Counter:
    """Empirical histogram of cycle types (sorted cycle-length tuples)."""
    if m < 3:
        raise ValueError(f"support size {m} < 3")
    hist: Counter = Counter()
    for _ in range(samples):
        h = sample_two_factor(range(m), rng)
        hist[tuple(sorted(len(c) for c in h.cycles()))] += 1
    return hist
