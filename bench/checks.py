"""The benchmark's own correctness checks.

Each check recomputes what it needs from plain edge sets and raises
``CheckError`` on the first violation.  None of them calls the program or
copies a figure it printed: the walker, the closed forms and the bounds
are written out here, so a fault in the program cannot hide in its own
checker.  Edges are ``(u, v)`` tuples with ``u < v``.
"""

from __future__ import annotations

import math
from collections import Counter


class CheckError(AssertionError):
    """An output of the program broke one of the benchmark's checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def degrees(edges) -> Counter:
    deg: Counter = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


# ---- recover ---------------------------------------------------------------

def check_subgraph(h_edges, g_edges) -> None:
    """H is a subgraph of G with maximum degree at most 2."""
    outside = [e for e in h_edges if e not in g_edges]
    _require(not outside, f"H has {len(outside)} edges outside G, e.g. {outside[:1]}")
    worst = max(degrees(h_edges).items(), key=lambda kv: kv[1], default=(None, 0))
    _require(worst[1] <= 2, f"H has degree {worst[1]} at vertex {worst[0]}")


def check_guarantees(h_edges, n: int, support_size: int) -> None:
    """The deterministic guarantees that ``run_trial`` documents:
    |H| >= floor(delta n) - 9n/sqrt(ln n) and at most 2n/sqrt(ln n)
    vertices of degree 1.  The first holds for any H while ln n < 81."""
    slack = n / math.sqrt(math.log(n))
    _require(len(h_edges) >= support_size - 9 * slack,
             f"|H|={len(h_edges)} is below {support_size} - 9n/sqrt(ln n)")
    deg1 = sum(1 for d in degrees(h_edges).values() if d == 1)
    _require(deg1 <= 2 * slack, f"{deg1} degree-1 vertices exceed 2n/sqrt(ln n)")


def risk(planted, h_edges) -> float:
    """|H* xor H| / |H*|."""
    return len(set(planted) ^ set(h_edges)) / len(planted)


def check_mean_risk(risks, bound: float, label: str) -> None:
    mean = sum(risks) / len(risks)
    _require(mean <= bound, f"{label}: mean risk {mean:.4f} exceeds {bound}")


def stopping_rule_violation(n: int, g_edges, h_edges, max_len: int, quota: int):
    """A trail of at most max_len-1 edges whose XOR onto H the greedy would
    still have taken, or None.

    The greedy stops only when no trail is a cost-free update (more edges,
    no vertex above degree 2, no new degree-1 vertex) and no feasible trail
    gains `quota` edges or more.  The walk below visits every trail of G
    from every start in both directions, keeping the XOR's gain, the number
    of vertices pushed above degree 2 and the change in degree-1 vertices
    up to date edge by edge.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g_edges:
        adj[u].append(v)
        adj[v].append(u)
    in_h = set(h_edges)
    deg = [0] * n
    for u, v in in_h:
        deg[u] += 1
        deg[v] += 1
    cur = list(deg)                      # degrees of H xor (current walk)
    used: set = set()
    walk: list[int] = []
    state = [0, 0, 0]                    # gain, vertices above 2, degree-1 change

    def toggle(e, sign: int) -> None:
        step = (-1 if e in in_h else 1) * sign
        state[0] += step
        for x in e:
            old = cur[x]
            cur[x] = new = old + step
            state[1] += (new > 2) - (old > 2)
            state[2] += (new == 1) - (old == 1)

    def dfs(v: int):
        if state[1] == 0 and state[0] > 0 and (state[2] <= 0 or state[0] >= quota):
            return tuple(walk)
        if len(walk) == max_len:         # walk holds max_len vertices: max_len-1 edges
            return None
        for w in adj[v]:
            e = edge(v, w)
            if e in used:
                continue
            used.add(e)
            toggle(e, 1)
            walk.append(w)
            found = dfs(w)
            walk.pop()
            toggle(e, -1)
            used.discard(e)
            if found:
                return found
        return None

    for s in range(n):
        walk = [s]
        found = dfs(s)
        if found:
            return found
    return None


def check_stopping_rule(n: int, g_edges, h_edges, max_len: int, quota: int) -> None:
    trail = stopping_rule_violation(n, g_edges, h_edges, max_len, quota)
    _require(trail is None, f"the greedy stopped early: trail {trail} still improves H")


# ---- calibrate -------------------------------------------------------------

def check_two_factor(planted, support_size: int) -> None:
    """The red subgraph is a 2-factor on exactly support_size vertices."""
    deg = degrees(planted)
    _require(all(d == 2 for d in deg.values()), "a red vertex has degree other than 2")
    _require(len(deg) == support_size == len(planted),
             f"red subgraph has {len(planted)} edges on {len(deg)} vertices, "
             f"expected {support_size}")


def closed_form_counts(delta: float, lam: float) -> tuple[float, float]:
    """(c11, c22), the expected (1,1)- and (2,2)-trail counts per planted
    anchor.  A (1,1)-trail is a blue edge into the support followed by one
    of two red edges: 2 delta lam.  A (2,2)-trail either alternates twice,
    (2 delta lam)^2, or takes two blue edges through a vertex outside the
    support and then the forced red pair: 2 delta (1 - delta) lam^2."""
    c11 = 2 * delta * lam
    return c11, c11 ** 2 + 2 * delta * (1 - delta) * lam ** 2


def check_count_window(mean: float, c: float, label: str) -> None:
    """Criterion 4's window [0.8c, 1.05c]."""
    _require(0.8 * c <= mean <= 1.05 * c,
             f"{label}: mean count {mean:.4f} outside [0.8c, 1.05c] for c={c:.4f}")


# ---- adversary -------------------------------------------------------------

def red_neighbours(planted) -> dict[int, list[int]]:
    nbr: dict[int, list[int]] = {}
    for u, v in planted:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    return nbr


def check_reserved(planted, reserved, available) -> None:
    """Reserved edges are red, vertex-disjoint, out of each other's
    distance-2 zone (the edge's endpoints and their red neighbours), and
    no longer available."""
    nbr = red_neighbours(planted)
    owner: dict[int, tuple] = {}
    for e in reserved:
        _require(e in planted, f"reserved edge {e} is not red")
        for x in e:
            _require(x not in owner, f"reserved edges {owner.get(x)} and {e} share vertex {x}")
            owner[x] = e
    for e in reserved:
        u, v = e
        for w in {u, v, *nbr[u], *nbr[v]}:
            _require(owner.get(w, e) == e, f"reserved edge {owner.get(w)} lies in the "
                                           f"distance-2 zone of {e}")
    _require(not (set(owner) & set(available)), "a reserved endpoint is still available")


def check_layer(g_edges, planted, support, layer, m_star: int) -> None:
    """A tree layer is a vertex-simple path of G with 2m* edges, m* of them
    red, that starts blue, ends red and never has two blue edges meeting
    at a planted vertex."""
    _require(len(layer) == 2 * m_star + 1 and len(set(layer)) == len(layer),
             f"layer {layer} is not a simple path of {2 * m_star} edges")
    es = [edge(a, b) for a, b in zip(layer, layer[1:])]
    _require(all(e in g_edges for e in es), f"layer {layer} leaves G")
    red = [e in planted for e in es]
    _require(sum(red) == m_star, f"layer {layer} has {sum(red)} red edges, not {m_star}")
    _require(not red[0] and red[-1], f"layer {layer} does not start blue and end red")
    for i in range(len(es) - 1):
        _require(red[i] or red[i + 1] or layer[i + 1] not in support,
                 f"layer {layer} has two blue edges meeting at planted vertex {layer[i + 1]}")


def check_link_arcs(g_edges, planted, arcs, chosen_left, chosen_right) -> None:
    """Every link arc (i, j) -> (e, e2) joins the linking endpoints (the
    second vertex) of e in E(L_i) and e2 in E(R_j) by a blue edge of G."""
    for (i, j), (e, e2) in arcs.items():
        link = edge(e[1], e2[1])
        _require(e in chosen_left.get(i, ()) and e2 in chosen_right.get(j, ())
                 and link in g_edges and link not in planted,
                 f"link arc {(i, j)} is not a blue edge between the linking "
                 f"endpoints of {e} and {e2}")


def check_cycle(g_edges, planted, walk) -> None:
    """A balanced cycle is a vertex-simple closed walk of G with as many red
    as blue edges, and H* xor C is again a 2-factor."""
    verts = walk[:-1]
    _require(walk[0] == walk[-1] and len(set(verts)) == len(verts) >= 3,
             f"cycle {walk} is not vertex-simple")
    es = [edge(a, b) for a, b in zip(walk, walk[1:])]
    _require(all(e in g_edges for e in es), f"cycle {walk} leaves G")
    reds = sum(e in planted for e in es)
    _require(2 * reds == len(es), f"cycle {walk} has {reds} red of {len(es)} edges")
    competitor = set(planted) ^ set(es)
    _require(all(d == 2 for d in degrees(competitor).values()),
             f"H* xor {walk} is not a 2-factor")
