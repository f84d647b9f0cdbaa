"""Greedy cycle-cover estimator.

Grows a degree-<=2 subgraph H from the empty set by XOR-ing candidate
trails drawn from the set S of all trails shorter than log n.  Two kinds
of updates: cost-free (subroutine A: strictly more edges, no new
degree-1 vertices) and cost-effective (subroutine B: the best candidate,
applied when it gains at least the sqrt(log n) quota).  The estimator
never reads edge colors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphcore import ColoredGraph, DegreeBoundedSubgraph, Edge
from .trails import enumerate_trails


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


def _evaluate(h: DegreeBoundedSubgraph, cand: tuple[Edge, ...]):
    """(gain, feasible, deg1_delta) of XOR-ing the candidate's edges onto h.

    gain = |H xor P| - |H|; feasible means no vertex exceeds degree 2.
    Runs in O(|P|) against the live degree array.
    """
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


def subroutine_a(state: RecoveryState, candidates: list[tuple[Edge, ...]]) -> bool:
    """One cost-free scan: apply every candidate that strictly grows H
    without raising the degree-1 count, immediately, in enumeration
    order against the running H.  Returns whether anything changed."""
    changed = False
    h = state.h
    for cand in candidates:
        gain, feasible, deg1_delta = _evaluate(h, cand)
        if gain > 0 and feasible and deg1_delta <= 0:
            h.xor_edges(cand)
            state.updates_a += 1
            changed = True
    return changed


def subroutine_b(state: RecoveryState, candidates: list[tuple[Edge, ...]],
                 quota: int) -> bool:
    """One cost-effective step: among all candidates whose XOR keeps the
    max degree at 2, take the one maximizing |H xor P| (ties: first in
    enumeration order); apply it iff the gain meets the quota."""
    h = state.h
    best = None
    best_gain = None
    for cand in candidates:
        gain, feasible, _ = _evaluate(h, cand)
        if feasible and (best_gain is None or gain > best_gain):
            best, best_gain = cand, gain
    if best is not None and best_gain >= quota:
        h.xor_edges(best)
        state.updates_b += 1
        return True
    return False


def recover(g: ColoredGraph, max_len: int | None = None,
            quota: int | None = None, return_state: bool = False):
    """Run the greedy estimator on the observed graph.

    Colors are stripped before anything else: the estimator sees only
    the uncolored edge set.  Returns the final degree-<=2 subgraph H
    (cycles plus leftover paths, exactly as the loop leaves it), or
    (H, RecoveryState) when return_state is set.
    """
    if not g.edges:
        raise ValueError("empty graph")
    blind = g.without_colors()
    n = blind.n
    if max_len is None:
        max_len = default_max_len(n)
    if max_len < 3:
        raise ValueError(f"max_len={max_len} must be >= 3")
    if quota is None:
        quota = default_quota(n)
    if quota < 1:
        raise ValueError(f"quota={quota} must be >= 1")

    candidates = [t.edges for t in enumerate_trails(blind, max_len)]
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
