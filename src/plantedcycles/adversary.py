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
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphcore import ColoredGraph, Edge, TwoFactor, csr, vertex_ids
from .trails import ab_step_ok


@dataclass(frozen=True)
class ReservedEdgeSet:
    """Vertex-disjoint red edges with a distance-2 exclusion zone."""

    edges: tuple[Edge, ...]          # selection order
    available: frozenset[int]        # [n] minus reserved endpoints
    # most pool edges one pick removed, its own included; an edge leaves the pool
    # at the first pick that blocks an end, so one bincount over the rows counts them
    max_consumed: int


def check_gamma(gamma: float) -> None:
    """The sprinkling fraction gamma must be finite and >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma={gamma} must be finite and >= 0")


def reserve_edges(h_star: TwoFactor, gamma: float, n: int) -> ReservedEdgeSet:
    """Greedy reservation of floor(gamma*n) red edges, removing each pick
    and every red edge within distance 2 of it from the pool."""
    check_gamma(gamma)
    delta_eff = len(h_star.ends) / n      # a 2-factor has as many vertices as edges
    if gamma > delta_eff / 5 + 1e-12:
        raise ValueError(f"gamma={gamma} exceeds delta/5={delta_eff / 5}")
    count = int(math.floor(gamma * n))
    if len(h_star.ends) and not 0 <= h_star.span[0] <= h_star.span[1] < n:
        raise ValueError(f"cover vertex outside 0..{n - 1}")
    cover = h_star.ends
    ptr, nbr, _ = map(memoryview, csr(n, cover))
    # the pool is every red edge with no end in a picked zone, so its
    # minimum is the next such edge in sorted order
    when = np.full(n, count, dtype=np.int64)         # the pick that first blocked v, else count
    first = memoryview(when)
    picked: list[Edge] = []
    for u, v in zip(*cover.T.tolist()):
        if len(picked) == count:
            break
        if first[u] < count or first[v] < count:
            continue
        i, j = ptr[u], ptr[v]                        # a cover vertex has two neighbours
        for w in (u, v, nbr[i], nbr[i + 1], nbr[j], nbr[j + 1]):
            if first[w] == count:
                first[w] = len(picked)
        picked.append((u, v))
    if len(picked) < count:
        raise RuntimeError("reservation pool exhausted (cannot occur when gamma <= delta/5)")
    removed = np.bincount(np.minimum(when[cover[:, 0]], when[cover[:, 1]]), minlength=count + 1)
    endpoints = {w for e in picked for w in e}
    return ReservedEdgeSet(
        edges=tuple(picked),
        available=frozenset(range(n)) - endpoints,
        max_consumed=int(removed[:count].max(initial=0)),
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


def _colour(adj: tuple, u: int, v: int) -> bool | None:
    """The colour of edge uv read off `ColoredGraph.adj` (True for red), or
    None where the graph has no such edge: u's neighbours are ascending."""
    ptr, nbr, _, red = adj
    i = bisect_left(nbr, v, ptr[u], ptr[u + 1])
    return red[i] if i < ptr[u + 1] and nbr[i] == v else None


def _layer_walk(ctx: tuple, v: int, last_red: bool | None, reds: int, ok: bool) -> None:
    """`_layer_paths`' depth-first search on from v, the end of `walk`, after `reds` red
    edges, the last `last_red`, `ok` while each passed `ab_step_ok`; constants ride in `ctx`."""
    ptr, nbr, colour, free, support, walk, reached, limit, m_star = ctx
    for i in range(ptr[v], ptr[v + 1]):
        w = nbr[i]
        if not free[w] or w in walk:
            continue
        red = colour[i]
        ok_w = ok and ab_step_ok(last_red, red, v, support)
        if len(walk) < limit:
            reached[w] = None
            walk.append(w)
            _layer_walk(ctx, w, red, reds + red, ok_w)
            walk.pop()
        else:
            reached[w] = (*walk, w) if (ok_w and red and reds + 1 == m_star
                                        and w not in reached) else None


def _layer_paths(g: ColoredGraph, u: int, free: bytearray,
                 m_star: int) -> tuple[dict[int, tuple[int, ...]], frozenset[int]]:
    """Hubs reachable from u by a non-shortcutted balanced path layer,
    and the ball the walk visited.

    Enumerates every simple path from u of length <= 2*m_star whose
    vertices (except u) stay available (`free[w]` nonzero), reading each
    step's colour off `g.adj`; a target v qualifies when exactly one such
    path reaches it (so nothing shortcuts it) and that path read from u
    is an (m*, m*)-trail: 2m* edges, m* red, the last red, every step
    passing `ab_step_ok`.  The ball, every vertex the walk reached, is
    the radius-2*m_star available neighborhood of u that exploring u
    prunes.
    """
    ptr, nbr, _, colour = g.adj
    # the one path reaching each vertex while it qualifies, else None
    reached: dict[int, tuple[int, ...] | None] = {}
    ctx = (ptr, nbr, colour, free, g.red_support(), [u], reached, 2 * m_star, m_star)
    _layer_walk(ctx, u, None, 0, True)
    return dict(sorted((v, path) for v, path in reached.items() if path)), frozenset(reached)


def build_trees(g: ColoredGraph, available, m_star: int, ell: int, gamma: float,
                rng: np.random.Generator) -> TreeBuildResult:
    """Grow up to floor(gamma*n/ell) two-sided trees of balanced path layers.

    Each round draws its root edge uniformly from the planted edges with
    both ends available: the k-th such row of `g.ends` (its planted rows
    are the cover's, in order), for k drawn by `rng.integers` over their
    count.  The available set is held once, one byte per vertex, which
    the layer walks read.  The root draw reads one byte per row of g, set
    while the row is planted and both its ends are available: clearing a
    vertex clears the bytes of its rows, found through `g.adj`, so a
    round's draw is one `nonzero` over those bytes.  A running count of
    the available vertices gives `available_after`.  Each accepted tree
    has at least 2*ell hub nodes per side (the root counts).  Exploring a
    hub prunes the ball its layer walk visited, its whole radius-2m*
    available neighborhood, which keeps later blue-edge exposure fresh.
    If no planted edge remains among available vertices the build fails
    with an empty result, per the FAIL convention.  Entries of
    `available` are taken by `graphcore.vertex_ids`: a bool, a float or a
    non-number is a ValueError, and integers outside 0..n-1 name no
    vertex of g and are dropped.
    """
    if m_star < 1 or ell < 1:
        raise ValueError("m_star and ell must be >= 1")
    check_gamma(gamma)
    n = g.n
    available = set(available)
    if not available:
        raise ValueError("available set is empty")
    available.difference_update([v for v in available.difference(range(n)) if
                                 isinstance(v, (int, np.integer)) and not isinstance(v, bool)])
    free = bytearray(n)                                   # 1 iff v is available
    mask = np.frombuffer(free, dtype=bool)
    mask[vertex_ids(available, n, name="available vertex ")] = True
    left_free = free.count(1)
    ends = g.ends
    live = bytearray(g.red & mask[ends[:, 0]] & mask[ends[:, 1]])   # a planted row, both ends free
    live_mask = np.frombuffer(live, dtype=bool)
    ptr, _, rows, _ = g.adj                                        # v's rows
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
        u0, u0p = ends[roots[int(rng.integers(len(roots)))]].tolist()
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
    ptr, nbr, _, red = adj = g.adj

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
    for i in admitted:
        for j in admitted:
            pair = next(((e, e2) for e in chosen_left[i] for e2 in chosen_right[j]
                         if _colour(adj, e[1], e2[1]) is False), None)
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
        colours = [_colour(g.adj, a, b) for a, b in zip(walk, walk[1:])]
        if None in colours:
            raise RuntimeError(f"tree sequence {seq}: expanded walk leaves G")
        reds = sum(colours)
        if 2 * reds != len(colours):
            raise RuntimeError(f"tree sequence {seq}: expanded walk has {reds} red "
                               f"edges of {len(colours)}")
        out.append(BalancedCycle(tuple(walk), reds, len(colours) - reds))
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
