"""Above-threshold constructions: reserved edges, path trees, balanced cycles.

Pipeline: reserve a sprinkling budget of vertex-disjoint red edges whose
endpoint pairs can only ever be joined by blue edges; grow two-sided
trees of balanced path layers on the remaining available vertices; link
tree sides through reserved edges by five-edge connectors (three blue,
two red); read alternating cycles off the link graph and expand them to
vertex-simple balanced cycles in the observed graph.  Each such cycle C
certifies a competing cycle cover H* XOR C.

The theory's parameter recipes are astronomically large; `theory_params`
reports them without enforcing anything, and the builders take free
desk-scale knobs instead.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphcore import ColoredGraph, Edge, TwoFactor, csr, edge
from .trails import ab_profile


@dataclass(frozen=True)
class ReservedEdgeSet:
    """Vertex-disjoint red edges with a distance-2 exclusion zone."""

    edges: tuple[Edge, ...]          # selection order
    available: frozenset[int]        # [n] minus reserved endpoints
    max_consumed: int                # worst-case pool edges removed per pick


def check_gamma(gamma: float) -> None:
    """The sprinkling fraction gamma must be finite and >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma={gamma} must be finite and >= 0")


def reserve_edges(h_star: TwoFactor, gamma: float, n: int) -> ReservedEdgeSet:
    """Greedy reservation of floor(gamma*n) red edges, removing each pick
    and every red edge within distance 2 of it from the pool."""
    check_gamma(gamma)
    delta_eff = len(h_star.support) / n
    if gamma > delta_eff / 5 + 1e-12:
        raise ValueError(f"gamma={gamma} exceeds delta/5={delta_eff / 5}")
    count = int(math.floor(gamma * n))
    if h_star.edges and not 0 <= h_star.span[0] <= h_star.span[1] < n:
        raise ValueError(f"cover vertex outside 0..{n - 1}")
    cover = h_star.ends
    ptr, nbr, eid = (a.tolist() for a in csr(n, cover))
    # the pool is every red edge with no end in a picked zone, so its
    # minimum is the next such edge in sorted order
    blocked = bytearray(n)
    picked: list[Edge] = []
    max_consumed = 0
    for u, v in zip(*cover.T.tolist()):
        if len(picked) == count:
            break
        if blocked[u] or blocked[v]:
            continue
        picked.append((u, v))
        zone = {u, v, *nbr[ptr[u]:ptr[u + 1]], *nbr[ptr[v]:ptr[v + 1]]}
        consumed = {eid[i] for w in zone if not blocked[w]
                    for i in range(ptr[w], ptr[w + 1]) if not blocked[nbr[i]]}
        max_consumed = max(max_consumed, len(consumed))
        for w in zone:
            blocked[w] = 1
    if len(picked) < count:
        raise RuntimeError("reservation pool exhausted (cannot occur when gamma <= delta/5)")
    endpoints = {w for e in picked for w in e}
    return ReservedEdgeSet(
        edges=tuple(picked),
        available=frozenset(range(n)) - endpoints,
        max_consumed=max_consumed,
    )


@dataclass
class TreeSide:
    root: int
    layers: dict[int, tuple[int, ...]]       # child hub -> path parent..child, BFS discovery order

    @property
    def hubs(self) -> list[int]:
        """The root, then every child hub in BFS discovery order."""
        return [self.root, *self.layers]

    def path_to_root(self, hub: int) -> list[int]:
        """Vertex walk from `hub` up to the side's root along path layers."""
        walk = [hub]
        v = hub
        while v != self.root:
            layer = self.layers[v]           # parent .. v
            walk.extend(reversed(layer[:-1]))
            v = layer[0]
        return walk


@dataclass
class TwoSidedTree:
    center: Edge
    left: TreeSide
    right: TreeSide


@dataclass
class TreeBuildResult:
    trees: list[TwoSidedTree]
    failed: bool                             # no planted edge left among available
    available_after: list[int]               # |A| at the end of each iteration


def _layer_paths(g: ColoredGraph, u: int, free: bytearray,
                 m_star: int) -> tuple[dict[int, tuple[int, ...]], frozenset[int]]:
    """Hubs reachable from u by a non-shortcutted balanced path layer,
    and the ball the walk visited.

    Enumerates every simple path from u of length <= 2*m_star whose
    vertices (except u) stay available (`free[w]` nonzero); a target v
    qualifies when exactly one such path reaches it (so nothing shortcuts
    it) and `ab_profile` reads that path from u as an (m*, m*)-trail.
    The ball, every vertex the walk reached, is the radius-2*m_star
    available neighborhood of u that exploring u prunes.
    """
    support = g.red_support()
    limit = 2 * m_star
    ptr, nbr, _, _ = g.adj
    # the one path reaching each vertex, or None once a second one does
    reached: dict[int, tuple[int, ...] | None] = {}
    walk = [u]                            # at most 2m*+1 vertices

    def dfs(v: int) -> None:
        for w in nbr[ptr[v]:ptr[v + 1]]:
            if not free[w] or w in walk:
                continue
            walk.append(w)
            reached[w] = None if w in reached else tuple(walk)
            if len(walk) - 1 < limit:
                dfs(w)
            walk.pop()

    dfs(u)
    del dfs                               # break the closure's self-reference
    out: dict[int, tuple[int, ...]] = {}
    for v, path in sorted(reached.items()):
        if path is None:
            continue                          # another path of length <= 2m* shortcuts
        if len(path) - 1 == limit and ab_profile(g, path, support) == (m_star, m_star):
            out[v] = path
    return out, frozenset(reached)


def build_trees(g: ColoredGraph, available, m_star: int, ell: int, gamma: float,
                rng: np.random.Generator) -> TreeBuildResult:
    """Grow up to floor(gamma*n/ell) two-sided trees of balanced path layers.

    Each round draws its root edge uniformly from the planted edges with
    both ends available: the k-th such edge in sorted order
    (`TwoFactor.ends`), for k drawn by `rng.integers` over their count.
    The available set is held once, one byte per vertex, which the layer
    walks read.  The root draw reads one byte per planted edge, set while
    both its ends are available: clearing a vertex clears the bytes of
    its planted edges, found through the cover's CSR, so a round's draw is
    one `nonzero` over those bytes.  A running count of the available
    vertices gives `available_after`.  Each accepted tree has at least
    2*ell hub nodes per side (the root counts).  Exploring a hub prunes
    the ball its layer walk visited, its whole radius-2m* available
    neighborhood, which keeps later blue-edge exposure fresh.  If no
    planted edge remains among available vertices the build fails with
    an empty result, per the FAIL convention.  Entries of `available`
    outside 0..n-1 name no vertex of g and are dropped.
    """
    if m_star < 1 or ell < 1:
        raise ValueError("m_star and ell must be >= 1")
    check_gamma(gamma)
    available = set(available)
    if not available:
        raise ValueError("available set is empty")
    n = g.n
    free = bytearray(n)                                   # 1 iff v is available
    for v in available.intersection(range(n)):
        free[v] = 1
    left_free = free.count(1)
    planted = g.cover.ends
    mask = np.frombuffer(free, dtype=bool)
    live = bytearray(mask[planted[:, 0]] & mask[planted[:, 1]])   # 1 iff both ends are free
    live_mask = np.frombuffer(live, dtype=bool)
    ptr, _, rows = (a.tolist() for a in csr(n, planted))      # v's planted rows
    k_iters = int(math.floor(gamma * n / ell))
    trees: list[TwoSidedTree] = []
    available_after: list[int] = []

    def take(vertices) -> None:
        nonlocal left_free
        for v in vertices:
            if free[v]:
                free[v] = 0
                left_free -= 1
                for r in rows[ptr[v]:ptr[v + 1]]:
                    live[r] = 0

    def grow_side(root: int) -> TreeSide | None:
        side = TreeSide(root, {})
        queue = deque([root])
        while queue and len(side.layers) + 1 < 2 * ell:
            found, ball = _layer_paths(g, queue.popleft(), free, m_star)
            side.layers.update(found)            # sorted by hub
            queue.extend(found)
            take(ball)
        return side if len(side.layers) + 1 >= 2 * ell else None

    for _t in range(k_iters):
        roots = live_mask.nonzero()[0]
        if not len(roots):
            return TreeBuildResult([], True, available_after)
        u0, u0p = planted[roots[int(rng.integers(len(roots)))]].tolist()
        take((u0, u0p))
        left = grow_side(u0)
        if left is not None:
            right = grow_side(u0p)
            if right is not None:
                trees.append(TwoSidedTree(center=(u0, u0p), left=left, right=right))
        available_after.append(left_free)
    return TreeBuildResult(trees, False, available_after)


@dataclass
class LinkGraph:
    """Bipartite tree-link graph: a red perfect matching i-i plus blue
    edges recording five-edge connectors between tree sides."""

    admitted: list[int]                                  # tree indices in G-bar
    chosen_left: dict[int, dict[Edge, int]]              # i -> E(L_i), size d: edge -> witness hub
    chosen_right: dict[int, dict[Edge, int]]             # i -> E(R_i), size d: edge -> witness hub
    blue: dict[tuple[int, int], tuple[Edge, Edge]]       # (i, j) -> (e in E(L_i), e' in E(R_j))


def link_trees(g: ColoredGraph, trees: list[TwoSidedTree], reserved: ReservedEdgeSet,
               d: int, rng: np.random.Generator) -> LinkGraph:
    """Admit trees blue-connected to d unmarked tree-facing endpoints on
    each side, mark their reserved edges, and record the blue link edges
    between linking endpoints of marked edges."""
    if d < 1:
        raise ValueError("d must be >= 1")
    pool = list(reserved.edges)
    if len(pool) % 2 == 1:
        pool = pool[:-1]                      # the construction assumes an even count
    perm = rng.permutation(len(pool))
    half = len(pool) // 2
    e_left_pool = sorted(pool[i] for i in perm[:half])
    e_right_pool = sorted(pool[i] for i in perm[half:])
    ptr, nbr, _, red = g.adj

    def connections(hubs: list[int], pool_edges: list[Edge],
                    marked: set[Edge]) -> list[tuple[Edge, int]]:
        witness: dict[int, int] = {}          # vertex -> smallest hub blue-adjacent to it
        for h in hubs:
            for i in range(ptr[h], ptr[h + 1]):
                if not red[i]:
                    witness[nbr[i]] = min(h, witness.get(nbr[i], h))
        return [(e, witness[e[0]]) for e in pool_edges
                if e not in marked and e[0] in witness]

    marked: set[Edge] = set()
    admitted: list[int] = []
    chosen_left: dict[int, dict[Edge, int]] = {}
    chosen_right: dict[int, dict[Edge, int]] = {}
    for i, tree in enumerate(trees):
        conn_l = connections(tree.left.hubs, e_left_pool, marked)
        if len(conn_l) < d:
            continue
        conn_r = connections(tree.right.hubs, e_right_pool, marked)
        if len(conn_r) < d:
            continue
        chosen_left[i] = dict(conn_l[:d])
        chosen_right[i] = dict(conn_r[:d])
        marked.update(chosen_left[i], chosen_right[i])
        admitted.append(i)

    blue: dict[tuple[int, int], tuple[Edge, Edge]] = {}
    blue_edges = g.blue_edges             # built from the rows on each read
    for i in admitted:
        for j in admitted:
            pair = next(((e, e2) for e in chosen_left[i] for e2 in chosen_right[j]
                         if edge(e[1], e2[1]) in blue_edges), None)
            if pair:
                blue[(i, j)] = pair
    return LinkGraph(admitted, chosen_left, chosen_right, blue)


@dataclass(frozen=True)
class BalancedCycle:
    vertices: tuple[int, ...]       # closed walk, first == last
    red: int
    blue: int

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _directed_cycles(arcs: dict[int, list[int]], nodes, cap: int) -> tuple[list[tuple[int, ...]], bool]:
    """Simple directed cycles, each anchored at its smallest node;
    returns (cycles, truncated)."""
    cycles: list[tuple[int, ...]] = []
    truncated = False

    def dfs(anchor: int, v: int, path: list[int], on_path: set[int]) -> bool:
        for w in sorted(arcs.get(v, ())):
            if len(cycles) >= cap:
                return False
            if w == anchor:
                cycles.append(tuple(path))
            elif w > anchor and w not in on_path:
                path.append(w)
                on_path.add(w)
                ok = dfs(anchor, w, path, on_path)
                path.pop()
                on_path.remove(w)
                if not ok:
                    return False
        return True

    for a in sorted(nodes):
        if len(cycles) >= cap:
            truncated = True
            break
        if not dfs(a, a, [a], {a}):
            truncated = True
            break
    del dfs                               # break the closure's self-reference
    return cycles, truncated


def extract_balanced_cycles(link: LinkGraph, trees: list[TwoSidedTree],
                            g: ColoredGraph, limit: int = 1000) -> list[BalancedCycle]:
    """Expand alternating cycles of the link graph into balanced,
    vertex-simple cycles of G.

    An alternating cycle visits trees i_1 -> i_2 -> ... -> i_k -> i_1,
    where the arc i -> j needs the five-edge connector from R_i to L_j.
    Each tree contributes hub-to-root walks on both sides plus its red
    center edge; each connector contributes three blue and two red edges,
    so every output cycle has exactly as many red as blue edges.  Raises
    RuntimeError, naming the tree sequence, if an expanded walk repeats a
    vertex, leaves G or is unbalanced, and ValueError if `limit` < 0.
    """
    if limit < 0:
        raise ValueError(f"limit={limit} must be >= 0")
    arcs: dict[int, list[int]] = {}
    for (j, i), _pair in link.blue.items():
        arcs.setdefault(i, []).append(j)     # connector R_i -> L_j
    tree_cycles, _trunc = _directed_cycles(arcs, link.admitted, limit)
    if not tree_cycles:
        return []

    out: list[BalancedCycle] = []
    g_edges = g.edges                     # built from the rows on each read
    for seq in tree_cycles:
        walk: list[int] = []
        k = len(seq)
        for t, i in enumerate(seq):
            nxt = seq[(t + 1) % k]
            e_in, _ = link.blue[(i, seq[t - 1])]          # arc prev -> i uses E(L_i)
            _, e_out = link.blue[(nxt, i)]                # arc i -> nxt uses E(R_i)
            h_in = link.chosen_left[i][e_in]
            h_out = link.chosen_right[i][e_out]
            tree = trees[i]
            up = tree.left.path_to_root(h_in)             # h_in .. left root
            down = tree.right.path_to_root(h_out)         # h_out .. right root
            walk.extend(up)
            walk.extend(reversed(down))
            e2, e2p = link.blue[(nxt, i)]                 # e2 in E(L_nxt), e2p in E(R_i)
            walk.extend([e2p[0], e2p[1], e2[1], e2[0]])   # tf, lk, lk', tf'
        walk.append(walk[0])
        # the construction guarantees all three; a failure is an expansion bug
        if len(set(walk)) != len(walk) - 1:
            raise RuntimeError(f"tree sequence {seq}: expanded walk repeats a vertex")
        edges = [edge(a, b) for a, b in zip(walk, walk[1:])]
        if not g_edges.issuperset(edges):
            raise RuntimeError(f"tree sequence {seq}: expanded walk leaves G")
        reds = sum(1 for e in edges if g.is_red(e))
        if 2 * reds != len(edges):
            raise RuntimeError(f"tree sequence {seq}: expanded walk has {reds} red "
                               f"edges of {len(edges)}")
        out.append(BalancedCycle(tuple(walk), reds, len(edges) - reds))
    return out


@dataclass(frozen=True)
class BipartiteCycleStats:
    count: int
    truncated: bool
    longest_edges: int        # alternating-cycle length in edges (2 per tree)


def bipartite_alternating_cycles(k: int, mean_blue_degree: float,
                                 rng: np.random.Generator,
                                 cap: int = 100000) -> BipartiteCycleStats:
    """Sample the red-matching + blue-Erdos-Renyi bipartite model and
    count its alternating cycles (up to `cap`), reporting the longest."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = min(1.0, mean_blue_degree / k)
    blue = rng.random((k, k)) < p            # blue[a][b]: left a - right b
    arcs: dict[int, list[int]] = {}
    for u in range(k):
        # from right u, a blue edge to left w opens the arc u -> w
        targets = np.flatnonzero(blue[:, u])
        if targets.size:
            arcs[u] = [int(w) for w in targets]
    cycles, truncated = _directed_cycles(arcs, range(k), cap)
    longest = max((len(c) for c in cycles), default=0) * 2
    return BipartiteCycleStats(count=len(cycles), truncated=truncated,
                               longest_edges=longest)


@dataclass(frozen=True)
class TheoryParams:
    ell: float
    d: float
    zeta: float
    zeta_bound: float
    gamma_feasible: bool


def theory_params(lam: float, delta: float, m_star: int, gamma: float,
                 c_mm: float, alpha: float = 1.0) -> TheoryParams:
    """The theory's parameter recipe, reported without enforcement:
    ell = 2^14 ln(32e) alpha / (lam^2 gamma^2), d = 2^11 ln(32e) alpha / (lam gamma),
    and the availability contraction zeta = 2 gamma + 6 gamma (2 lam + 4)^(2 m*)
    against its admissible bound."""
    log32e = math.log(32 * math.e)
    ell = 2 ** 14 * log32e * alpha / (lam ** 2 * gamma ** 2)
    d = 2 ** 11 * log32e * alpha / (lam * gamma)
    zeta = 2 * gamma + 6 * gamma * (2 * lam + 4) ** (2 * m_star)
    if m_star == 1:
        denom = m_star * (m_star + 1) / delta
    elif delta == 1:
        denom = math.inf
    else:
        denom = m_star * (m_star + 1) / delta + (m_star - 1) / (1 - delta)
    bound = (c_mm - 1) / (2 * c_mm) / denom if c_mm > 1 else 0.0
    return TheoryParams(ell=ell, d=d, zeta=zeta, zeta_bound=bound,
                       gamma_feasible=zeta < bound)
