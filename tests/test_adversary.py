import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plantedcycles import (ColoredGraph, ModelParams, TwoFactor,
                           bipartite_alternating_cycles, build_trees,
                           classify_ab_trail, edge, edge_set,
                           extract_balanced_cycles, link_trees, theory_params,
                           reserve_edges, rng_for, sample_instance,
                           symmetric_difference)
from plantedcycles import adversary, graphcore, sampler
from plantedcycles.adversary import LinkGraph, TreeSide, TwoSidedTree, ReservedEdgeSet
from plantedcycles.trails import canonical_trail

from conftest import (CountingGraph, cyclic_garbage, is_shortcutted, reference_build_trees,
                      reference_layer_paths, reference_prune_ball)


def ring_factor(n):
    return TwoFactor(edge_set((i, (i + 1) % n) for i in range(n)))


def test_reserve_single_edge():
    res = reserve_edges(ring_factor(15), 1 / 15, 15)
    assert len(res.edges) == 1
    assert len(res.available) == 13


def test_reserve_three_edges_invariants():
    h = ring_factor(15)
    res = reserve_edges(h, 3 / 15, 15)
    assert len(res.edges) == 3
    assert res.max_consumed <= 5
    endpoints = [v for e in res.edges for v in e]
    assert len(set(endpoints)) == 6                     # vertex-disjoint
    nbr = {}
    for u, v in h.edges:
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    for e in res.edges:
        for f in res.edges:
            if e == f:
                continue
            for a in e:
                for b in f:
                    assert b not in nbr[a]              # distance-2 exclusion


def test_reserve_gamma_too_large():
    with pytest.raises(ValueError):
        reserve_edges(ring_factor(15), 0.26, 15)


@pytest.mark.parametrize("gamma", [-0.1, -1e-300, math.nan, -math.inf])
def test_reserve_and_build_reject_a_negative_or_nan_gamma(gamma):
    # floor(gamma n) would be negative or no number: no reservation and no
    # tree count follows from it
    h = ring_factor(15)
    with pytest.raises(ValueError, match=f"gamma={gamma} must be finite and >= 0"):
        reserve_edges(h, gamma, 15)
    g = ColoredGraph(15, [], h.edges)
    with pytest.raises(ValueError, match=f"gamma={gamma} must be finite and >= 0"):
        build_trees(g, range(15), 1, 1, gamma, rng_for(0))
    assert reserve_edges(h, 0.0, 15).edges == ()


def test_reserve_rejects_a_cover_outside_the_vertex_range():
    with pytest.raises(ValueError, match=r"cover vertex outside 0\.\.9"):
        reserve_edges(ring_factor(15), 1 / 15, 10)


def test_reserve_rejects_a_cover_with_ids_that_are_not_integers():
    # sorting the cover as int64 would truncate (0.5, 1.5) to (0, 1): no
    # such cover reaches reserve_edges, as TwoFactor rejects it
    with pytest.raises(ValueError, match=r"edge \(0\.5,1\.5\) has an end that is not an integer"):
        TwoFactor(frozenset({(0.5, 1.5), (1.5, 2.5), (0.5, 2.5), (3, 4), (4, 5), (3, 5)}))


def test_reserve_respects_partial_support():
    # support covers half the vertices: gamma capped by delta/5
    h = ring_factor(10)
    res = reserve_edges(h, 0.1, 20)
    assert len(res.edges) == 2
    assert len(res.available) == 16


def reference_reserve(h_star, gamma, n):
    """The reservation written as a pool: take the pool's minimum, then
    remove every pool edge touching its distance-2 zone.  The oracle that
    `reserve_edges` must match pick for pick."""
    nbr = {}
    for u, v in h_star.edges:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    pool = set(h_star.edges)
    picked = []
    max_consumed = 0
    for _ in range(int(math.floor(gamma * n))):
        e = min(pool)
        picked.append(e)
        u, v = e
        zone = {u, v, *nbr[u], *nbr[v]}
        removed = {f for f in pool if f[0] in zone or f[1] in zone}
        max_consumed = max(max_consumed, len(removed))
        pool -= removed
    endpoints = {w for e in picked for w in e}
    return ReservedEdgeSet(tuple(picked), frozenset(range(n)) - endpoints, max_consumed)


@pytest.mark.parametrize("delta", [1.0, 0.6, 0.35])
def test_reserve_matches_reference(delta):
    n = 400
    for s in range(6):
        _, h_star = sample_instance(ModelParams(n=n, lam=0.5, delta=delta), rng_for(70, s))
        top = len(h_star.support) / n / 5
        for gamma in (0.0, 1 / n, top / 4, top / 2, 3 * top / 4, top):
            assert reserve_edges(h_star, gamma, n) == reference_reserve(h_star, gamma, n)
    for m in (15, 16, 30):
        assert reserve_edges(ring_factor(m), 0.2, m) == reference_reserve(ring_factor(m), 0.2, m)


@st.composite
def small_cycle_covers(draw):
    """A cover on shuffled ids of 0..n-1, some ids left out, mostly of
    triangles and 4-cycles, where a pick's zone has 3 vertices or its
    two far neighbours are adjacent; in a longer cycle a zone can reach
    a vertex that an earlier pick blocked."""
    sizes = draw(st.lists(st.sampled_from([3, 4, 3, 4, 5, 6, 7]), min_size=2, max_size=12))
    n = sum(sizes) + draw(st.integers(0, 8))
    ids = draw(st.permutations(range(n)))
    edges, lo = set(), 0
    for k in sizes:
        cycle = ids[lo:lo + k]
        edges |= {edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        lo += k
    return TwoFactor(frozenset(edges)), n


@settings(max_examples=200, deadline=None)
@given(small_cycle_covers(), st.sampled_from(["0", "1/n", "delta/10", "delta/5"]))
def test_reserve_matches_reference_on_small_cycles(cover, which):
    h_star, n = cover
    delta = len(h_star.ends) / n
    gamma = {"0": 0.0, "1/n": 1 / n, "delta/10": delta / 10, "delta/5": delta / 5}[which]
    got, want = reserve_edges(h_star, gamma, n), reference_reserve(h_star, gamma, n)
    assert (got.edges, got.available, got.max_consumed) == (want.edges, want.available,
                                                            want.max_consumed)


def test_reserve_builds_neither_edges_nor_support_of_the_cover():
    # the support size and the empty check read len(ends): a fresh cover
    # builds its span alone, and the picks are the reference's
    n = 400
    _, h_star = sample_instance(ModelParams(n=n, lam=0.5, delta=0.6), rng_for(70, 1))
    fresh = TwoFactor.from_ends(h_star.ends)
    for gamma in (0.0, 0.02, len(h_star.ends) / n / 5):
        assert reserve_edges(fresh, gamma, n) == reference_reserve(h_star, gamma, n)
    assert vars(fresh).keys() == {"ends", "span"}
    empty = TwoFactor.from_ends(np.zeros((0, 2), dtype=np.int64))
    assert reserve_edges(empty, 0.0, n) == ReservedEdgeSet((), frozenset(range(n)), 0)
    assert vars(empty).keys() == {"ends"}


def test_build_trees_no_blue_edges():
    h = ring_factor(15)
    g = ColoredGraph(15, [], h.edges)
    res = reserve_edges(h, 0.2, 15)
    result = build_trees(g, res.available, 1, 1, 0.2, rng_for(0))
    assert result.trees == []


def _rebuild(n=2000, lam=0.8, gamma=0.05, ell=1, seed=3):
    params = ModelParams(n=n, lam=lam, delta=1.0)
    rng = rng_for(seed)
    g, h_star = sample_instance(params, rng)
    reserved = reserve_edges(h_star, gamma, n)
    result = build_trees(g, reserved.available, 1, ell, gamma, rng)
    return g, h_star, reserved, result


def _available(free) -> frozenset:
    """The available set that the byte array `free` holds."""
    return frozenset(np.flatnonzero(np.frombuffer(free, dtype=bool)).tolist())


def _record_layer_walks(monkeypatch):
    """Spy on `adversary._layer_paths`: the returned list gains
    (u, available set at the call, found layers) for every call."""
    layer_paths = adversary._layer_paths
    calls = []

    def spy(g, u, free, m_star):
        snapshot = _available(free)
        found, ball = layer_paths(g, u, free, m_star)
        calls.append((u, snapshot, found))
        return found, ball

    monkeypatch.setattr(adversary, "_layer_paths", spy)
    return calls


def _induced(g, keep):
    edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
    # relax the red-degree invariant by dropping colors; shortcut tests ignore them
    return ColoredGraph(g.n, edges, ())


def _check_layer_walks(g, calls, trees, profile) -> int:
    """Every layer a walk found, on kept and rejected sides alike, is a
    `profile`-path from the explored hub whose other vertices were
    available, and nothing shortcuts it in the graph induced on the
    available set plus the hub; every tree layer is one of them.
    Returns the number of layers found."""
    support = g.red_support()
    layers = {}
    for u, avail, found in calls:
        sub = _induced(g, avail | {u}) if found else None
        for v, layer in found.items():
            assert layer[0] == u and layer[-1] == v and v not in layers
            assert set(layer[1:]) <= avail
            t = canonical_trail(layer, False)
            assert classify_ab_trail(g, t, support) == profile
            assert not is_shortcutted(sub, t)
            layers[v] = layer
    for tree in trees:
        for side in (tree.left, tree.right):
            for hub, layer in side.layers.items():
                assert layers[hub] == layer
    return len(layers)


def _check_paths_to_root(g, trees) -> int:
    """Each hub's walk to its root is a vertex-simple path of G made of
    whole layers.  Returns the number of hubs below the first layer."""
    g_edges = g.edges                 # built from the graph's rows on each read
    deeper = 0
    for tree in trees:
        for side in (tree.left, tree.right):
            for hub, layer in side.layers.items():
                walk = side.path_to_root(hub)
                assert walk[0] == hub and walk[-1] == side.root
                assert len(set(walk)) == len(walk)
                assert all(edge(a, b) in g_edges for a, b in zip(walk, walk[1:]))
                assert (len(walk) - 1) % (len(layer) - 1) == 0
                deeper += layer[0] != side.root
    return deeper


def test_build_trees_nonzero_and_layers_valid(monkeypatch):
    calls = _record_layer_walks(monkeypatch)
    g, h_star, reserved, result = _rebuild()
    assert not result.failed
    assert len(result.trees) > 0
    assert _check_layer_walks(g, calls, result.trees, (1, 1)) >= 2 * len(result.trees)


def test_build_trees_m_star_two_layers(monkeypatch):
    # partial support, deeper layers: every layer is a (2,2)-path, unique
    # within the availability snapshot it was attached under
    calls = _record_layer_walks(monkeypatch)
    params = ModelParams(n=4000, lam=2.0, delta=0.5)
    rng = rng_for(6)
    g, h_star = sample_instance(params, rng)
    reserved = reserve_edges(h_star, 0.01, g.n)
    result = build_trees(g, reserved.available, 2, 2, 0.01, rng)
    assert result.trees
    tree_layers = sum(len(side.layers) for tree in result.trees
                      for side in (tree.left, tree.right))
    assert tree_layers >= 2 * (2 * 2 - 1) * len(result.trees)   # 2 ell hubs a side
    assert _check_layer_walks(g, calls, result.trees, (2, 2)) >= tree_layers
    assert _check_paths_to_root(g, result.trees) > 0


def test_build_trees_pruning_soundness(monkeypatch):
    # every layer vertex except its hub was still available when the hub
    # was explored, and each explored hub had already left the available set
    calls = _record_layer_walks(monkeypatch)
    g, _, _, result = _rebuild(seed=11)
    assert any(found for _, _, found in calls)
    for u, avail, found in calls:
        assert u not in avail
        for layer in found.values():
            assert set(layer[1:]) <= avail


def test_layer_walk_ball_matches_the_bfs_reference(monkeypatch):
    # the ball each hub's layer walk returns, and build_trees prunes, is the
    # radius-2m* BFS ball: on criterion 9's seeds (m*=1) and the m*=2 build
    layer_paths = adversary._layer_paths
    explored = []

    def checked(g, u, free, m_star):
        avail = _available(free)
        assert u not in avail
        expected = reference_prune_ball(g, u, avail, 2 * m_star)
        found, ball = layer_paths(g, u, free, m_star)
        assert ball == expected
        explored.append(m_star)
        return found, ball

    monkeypatch.setattr(adversary, "_layer_paths", checked)
    for seed in range(9000, 9020):
        rng = rng_for(seed)
        g, h_star = sample_instance(ModelParams(n=2000, lam=0.8, delta=1.0), rng)
        reserved = reserve_edges(h_star, 0.1, g.n)
        build_trees(g, reserved.available, 1, 1, 0.1, rng)
    rng = rng_for(6)
    g, h_star = sample_instance(ModelParams(n=4000, lam=2.0, delta=0.5), rng)
    reserved = reserve_edges(h_star, 0.01, g.n)
    assert build_trees(g, reserved.available, 2, 2, 0.01, rng).trees
    assert explored.count(1) > 1000 and explored.count(2) > 0


@st.composite
def layer_walks(draw):
    """A small dense instance, an available set and m*."""
    n = draw(st.integers(6, 14))
    params = ModelParams(n=n, lam=draw(st.floats(0.2, 3.0)), delta=draw(st.sampled_from([0.5, 1.0])))
    g, _ = sample_instance(params, rng_for(draw(st.integers(0, 2 ** 16))))
    free = bytearray(draw(st.lists(st.sampled_from([0, 1, 1, 1]), min_size=n, max_size=n)))
    return g, free, draw(st.sampled_from([1, 2]))


@settings(max_examples=300, deadline=None)
@given(layer_walks())
# from 6, the path 6-0-3-4-5 reads blue, blue, red, red: the blue-blue step
# at planted 0 bars it, and no other path of at most 4 edges reaches 5
@example((ColoredGraph(9, [(0, 6), (0, 3)],
                       [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 7), (7, 8), (3, 8)]),
          bytearray([1] * 9), 2))
def test_layer_walk_matches_the_reference(walk):
    # from every hub, the colours read as the walk steps pick the same
    # layers as ab_profile on each finished path, and the ball is the same
    g, free, m_star = walk
    before = bytes(free)
    for u in range(g.n):
        assert adversary._layer_paths(g, u, free, m_star) == reference_layer_paths(g, u, free, m_star)
    assert free == before


@pytest.mark.parametrize("n,lam,delta,gamma,ell,m_star,fails", [
    (2000, 0.8, 1.0, 0.1, 1, 1, False),     # criterion 9's spec point
    (2000, 0.8, 1.0, 0.2, 1, 1, True),      # runs out of planted edges: FAIL
    (600, 3.0, 1.0, 0.1, 1, 1, True),
    (1000, 0.8, 1.0, 0.05, 2, 1, False),
    (4000, 2.0, 0.5, 0.01, 2, 2, False),    # partial support, (2,2)-layers
])
def test_build_trees_matches_the_list_reference(n, lam, delta, gamma, ell, m_star, fails):
    # the mask over the planted edges draws the same roots as the filtered list
    built = 0
    for s in range(3):
        g, h_star = sample_instance(ModelParams(n=n, lam=lam, delta=delta), rng_for(70, n, s))
        available = reserve_edges(h_star, gamma, n).available
        fast, slow = rng_for(71, n, s), rng_for(71, n, s)
        got = build_trees(g, available, m_star, ell, gamma, fast)
        assert got == reference_build_trees(g, available, m_star, ell, gamma, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert got.failed == fails
        built += len(got.trees)
    assert fails or built > 0


def test_build_trees_ignores_vertices_outside_the_graph():
    # -1 must not wrap onto vertex n-1, and n or an int past int64 must not raise
    g, h_star = sample_instance(ModelParams(n=600, lam=0.8, delta=1.0), rng_for(72))
    available = reserve_edges(h_star, 0.1, g.n).available - {g.n - 1}
    for outside in ({-1, g.n}, {2 ** 63, -2 ** 63 - 1, 2 ** 70},
                    {np.int64(-5), np.uint64(2 ** 64 - 1), np.int32(g.n)}):
        fast, slow = rng_for(73), rng_for(73)
        got = build_trees(g, available | outside, 1, 1, 0.1, fast)
        assert got.trees and not got.failed
        assert got == build_trees(g, available, 1, 1, 0.1, slow)
        assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("odd, named", [(3.0, "3.0 (float)"), (2.5, "2.5 (float)"),
                                        (True, "True (bool)"), (np.float64(7), "7.0 (float64)"),
                                        (np.bool_(True), "True (bool)"), ("5", "5 (str)"),
                                        (None, "None (NoneType)")])
def test_build_trees_takes_available_by_the_integer_rule(odd, named):
    # a set intersection with range(n) once took 3.0 as vertex 3 and True as 1
    g, h_star = sample_instance(ModelParams(n=600, lam=0.8, delta=1.0), rng_for(72))
    available = reserve_edges(h_star, 0.1, g.n).available - {0, 1, 3, 5, 7}
    with pytest.raises(ValueError, match=rf"available vertex {re.escape(named)} is not an integer"):
        build_trees(g, available | {odd}, 1, 1, 0.1, rng_for(73))


@pytest.mark.parametrize("variant", ["two-factor", "single-cycle"])
def test_sampled_instance_builds_no_neighbour_lists(monkeypatch, variant):
    # the sampler, TwoFactor's check and the reservation read arrays: none
    # of them builds a neighbour dict
    calls = []

    def counting(edges):
        calls.append(1)
        return neighbours(edges)

    neighbours = graphcore.neighbours
    for mod in (graphcore, sampler, adversary):
        if hasattr(mod, "neighbours"):
            monkeypatch.setattr(mod, "neighbours", counting)
    params = ModelParams(n=300, lam=0.8, delta=0.9, variant=variant)
    g, h_star = sample_instance(params, rng_for(4))
    assert g.cover is h_star
    reserve_edges(h_star, 0.1, g.n)
    assert calls == []


def test_availability_floor():
    # |A| >= n - 2 gamma n - 6 ell (2 lam + 4)^(2 m*) t across seeds
    n, lam, gamma, ell, m_star = 600, 0.8, 0.05, 1, 1
    violations = 0
    runs = 60
    for s in range(runs):
        _, _, _, result = _rebuild(n=n, seed=100 + s, gamma=gamma, ell=ell)
        for t, a in enumerate(result.available_after, start=1):
            if a < n - 2 * gamma * n - 6 * ell * (2 * lam + 4) ** (2 * m_star) * t:
                violations += 1
                break
    assert violations / runs <= 0.01


def fixture_link():
    centers = [(0, 1), (2, 3)]
    reserved_edges = [(10, 11), (12, 13), (14, 15), (16, 17)]
    red = []
    helpers = iter(range(20, 26))
    for (u, v) in centers + reserved_edges:
        w = next(helpers)
        red += [(u, v), (u, w), (v, w)]
    rng = rng_for(5)
    perm = rng.permutation(4)
    e_l = sorted(reserved_edges[i] for i in perm[:2])
    e_r = sorted(reserved_edges[i] for i in perm[2:])
    blue = [
        (0, e_l[0][0]), (1, e_r[0][0]),
        (2, e_l[1][0]), (3, e_r[1][0]),
        (e_l[0][1], e_r[1][1]),      # lk(E(L1)) - lk(E(R2))
        (e_l[1][1], e_r[0][1]),      # lk(E(L2)) - lk(E(R1))
    ]
    g = ColoredGraph(30, blue, red)
    trees = [
        TwoSidedTree((0, 1), TreeSide(0, {}), TreeSide(1, {})),
        TwoSidedTree((2, 3), TreeSide(2, {}), TreeSide(3, {})),
    ]
    res = ReservedEdgeSet(tuple(reserved_edges), frozenset(), 5)
    return g, trees, res


def test_link_trees_two_cycle_fixture():
    g, trees, res = fixture_link()
    link = link_trees(g, trees, res, d=1, rng=rng_for(5))
    assert link.admitted == [0, 1]
    assert set(link.blue) == {(0, 1), (1, 0)}     # blue 2-cycle on the matching
    for i in link.admitted:
        assert len(link.chosen_left[i]) == 1
        assert len(link.chosen_right[i]) == 1


def test_link_trees_d_too_large():
    g, trees, res = fixture_link()
    link = link_trees(g, trees, res, d=3, rng=rng_for(5))
    assert link.admitted == [] and link.blue == {}


def reference_link_trees(g, trees, reserved, d, rng):
    """The linking written with a private blue adjacency, a witness scan over
    the sorted hubs and a nested pair loop.  The oracle that `link_trees`
    must match field for field."""
    pool = list(reserved.edges)
    if len(pool) % 2 == 1:
        pool = pool[:-1]
    perm = rng.permutation(len(pool))
    half = len(pool) // 2
    e_left_pool = sorted(pool[i] for i in perm[:half])
    e_right_pool = sorted(pool[i] for i in perm[half:])
    blue_adj = {}
    for u, v in g.blue_edges:
        blue_adj.setdefault(u, set()).add(v)
        blue_adj.setdefault(v, set()).add(u)

    def connections(hubs, pool_edges, marked):
        out = []
        for e in pool_edges:
            if e in marked:
                continue
            nbrs = blue_adj.get(e[0], ())
            hub = next((h for h in sorted(hubs) if h in nbrs), None)
            if hub is not None:
                out.append((e, hub))
        return out

    marked, admitted = set(), []
    chosen_left, chosen_right = {}, {}
    for i, tree in enumerate(trees):
        conn_l = connections(tree.left.hubs, e_left_pool, marked)
        if len(conn_l) < d:
            continue
        conn_r = connections(tree.right.hubs, e_right_pool, marked)
        if len(conn_r) < d:
            continue
        chosen_left[i], chosen_right[i] = {}, {}
        for chosen, take in ((chosen_left[i], conn_l[:d]), (chosen_right[i], conn_r[:d])):
            for e, hub in take:
                marked.add(e)
                chosen[e] = hub
        admitted.append(i)
    blue = {}
    for i in admitted:
        for j in admitted:
            pair = None
            for e in chosen_left[i]:
                for e2 in chosen_right[j]:
                    if edge(e[1], e2[1]) in g.blue_edges:
                        pair = (e, e2)
                        break
                if pair:
                    break
            if pair:
                blue[(i, j)] = pair
    return LinkGraph(admitted, chosen_left, chosen_right, blue)


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_link_trees_matches_reference(d, ell):
    # real trees at n=600, plus random blue edges from hubs to reserved
    # endpoints and between reserved endpoints, so that several hubs can
    # witness one edge and several edge pairs can carry one arc
    ties = multi = 0
    for seed in range(6):
        rng = rng_for(60, seed)
        g, h_star = sample_instance(ModelParams(n=600, lam=1.5, delta=1.0), rng)
        reserved = reserve_edges(h_star, 0.1, g.n)
        trees = build_trees(g, reserved.available, 1, ell, 0.1, rng).trees
        hubs = [v for t in trees for side in (t.left, t.right) for v in side.hubs]
        ends = [v for e in reserved.edges for v in e]
        k = 4 * len(hubs)
        extra = {edge(hubs[i], ends[j]) for i, j in
                 zip(rng.integers(len(hubs), size=k), rng.integers(len(ends), size=k))}
        extra |= {edge(ends[i], ends[j]) for i, j in
                  zip(rng.integers(len(ends), size=k), rng.integers(len(ends), size=k))
                  if ends[i] != ends[j]}
        dense = ColoredGraph(g.n, g.edges | extra, g.planted)
        link = link_trees(dense, trees, reserved, d, rng_for(61, seed))
        ref = reference_link_trees(dense, trees, reserved, d, rng_for(61, seed))
        assert link == ref
        assert list(link.blue.items()) == list(ref.blue.items())
        for i in link.admitted:
            for chosen, ref_chosen, tree_side in (
                    (link.chosen_left, ref.chosen_left, trees[i].left),
                    (link.chosen_right, ref.chosen_right, trees[i].right)):
                # same edges, witnesses and chosen order
                assert list(chosen[i].items()) == list(ref_chosen[i].items())
                ties += sum(sum(edge(h, e[0]) in dense.blue_edges for h in tree_side.hubs) > 1
                            for e in chosen[i])
        for i in link.admitted:
            for j in link.admitted:
                multi += sum(edge(e[1], e2[1]) in dense.blue_edges for e in link.chosen_left[i]
                             for e2 in link.chosen_right[j]) > 1
    assert ties > 0                              # the witness choice was exercised
    assert multi > 0 or d == 1                   # and so was the pair order


def test_extract_fixture_cycle():
    g, trees, res = fixture_link()
    link = link_trees(g, trees, res, d=1, rng=rng_for(5))
    cycles = extract_balanced_cycles(link, trees, g, limit=10)
    assert len(cycles) >= 1
    h_star = TwoFactor(g.planted)
    for c in cycles:
        assert c.red == c.blue
        verts = c.vertices[:-1]
        assert len(set(verts)) == len(verts)
        # five-edge connectors contribute 3 blue + 2 red per hop
        new_edges = symmetric_difference(h_star.edges,
                                         edge_set(zip(c.vertices, c.vertices[1:])))
        competitor = TwoFactor(new_edges)
        assert len(competitor.support) == len(h_star.support)
        assert len(new_edges) == len(h_star.edges)


def test_adversary_pipeline_builds_each_edge_set_at_most_once():
    # a graph builds `edges` and `blue_edges` from its rows on each read; the
    # pipeline reads colours and pairs off g.adj, so it builds neither
    g, trees, res = fixture_link()
    counting = CountingGraph(g)
    link = link_trees(counting, trees, res, d=1, rng=rng_for(5))
    assert len(link.admitted) == 2 and extract_balanced_cycles(link, trees, counting, limit=10)
    assert counting.builds == {}
    # the benchmark's spec point, as one pass of its pipeline runs it
    rng = rng_for(3)
    g, h_star = sample_instance(ModelParams(n=2000, lam=0.8, delta=1.0), rng)
    counting = CountingGraph(g)
    reserved = reserve_edges(h_star, 0.1, counting.n)
    built = build_trees(counting, reserved.available, 1, 1, 0.1, rng)
    link = link_trees(counting, built.trees, reserved, 1, rng)
    extract_balanced_cycles(link, built.trees, counting)
    assert built.trees and counting.builds == {}
    assert counting.cover is h_star and "edges" not in vars(h_star)


def test_build_trees_leaves_no_cyclic_garbage():
    g, h_star = sample_instance(ModelParams(n=600, lam=0.8, delta=1.0), rng_for(3))
    reserved = reserve_edges(h_star, 0.05, g.n)
    assert cyclic_garbage(lambda: build_trees(g, reserved.available, 1, 1, 0.05,
                                              rng_for(4))) == 0


def test_extract_leaves_no_cyclic_garbage():
    g, trees, res = fixture_link()
    link = link_trees(g, trees, res, d=1, rng=rng_for(5))
    assert cyclic_garbage(lambda: extract_balanced_cycles(link, trees, g, limit=10)) == 0


def test_extract_rejects_a_negative_limit():
    # the cycle search would stop at once and return no cycle
    g, trees, res = fixture_link()
    link = link_trees(g, trees, res, d=1, rng=rng_for(5))
    assert extract_balanced_cycles(link, trees, g, limit=0) == []
    with pytest.raises(ValueError, match="limit=-1"):
        extract_balanced_cycles(link, trees, g, limit=-1)


def test_extract_empty_link():
    g, trees, _ = fixture_link()
    empty = LinkGraph([], {}, {}, {})
    assert extract_balanced_cycles(empty, trees, g) == []


def test_bipartite_alternating_cycles_degenerate():
    stats = bipartite_alternating_cycles(6, 0.0, rng_for(1))
    assert stats.count == 0 and stats.longest_edges == 0


def _brute_alternating(blue):
    # independent enumerator: extend directed paths, dedup by rotation
    k = blue.shape[0]
    arcs = {u: [v for v in range(k) if blue[v, u]] for u in range(k)}
    seen = set()

    def canon(seq):
        i = seq.index(min(seq))
        return tuple(seq[i:] + seq[:i])

    def walk(path):
        u = path[-1]
        for v in arcs.get(u, ()):
            if v == path[0]:
                seen.add(canon(path))
            elif v not in path:
                walk(path + [v])

    for s in range(k):
        walk([s])
    return len(seen)


def test_bipartite_matches_brute_force():
    for seed in (3, 5, 9):
        rng = rng_for(seed)
        k, d_mean = 8, 2.0
        stats = bipartite_alternating_cycles(k, d_mean, rng)
        rng2 = rng_for(seed)
        blue = rng2.random((k, k)) < d_mean / k
        assert stats.count == _brute_alternating(blue)


def test_bipartite_long_cycles_dense():
    hits = 0
    for s in range(10):
        stats = bipartite_alternating_cycles(40, 1200, rng_for(200 + s), cap=100)
        if stats.longest_edges >= 30:
            hits += 1
    assert hits >= 9


def test_theory_params_reporting():
    p = theory_params(lam=0.8, delta=1.0, m_star=1, gamma=0.05, c_mm=1.6)
    assert p.ell > 1e4 and p.d > 1e3           # astronomically large, as expected
    assert p.zeta == pytest.approx(2 * 0.05 + 6 * 0.05 * (5.6) ** 2)
    assert not p.gamma_feasible


def test_extract_raises_on_a_broken_expansion():
    g, trees, res = fixture_link()
    link = link_trees(g, trees, res, d=1, rng=rng_for(5))
    # helper vertex 20 becomes a left hub of tree 0 (its layer 0-20 is an
    # edge of G) and the witness of tree 0's left edge, although 20 has no
    # blue edge to that edge's tree-facing endpoint
    trees[0].left.layers[20] = (0, 20)
    (e,) = link.chosen_left[0]
    link.chosen_left[0][e] = 20
    with pytest.raises(RuntimeError, match=r"tree sequence \(0, 1\): expanded walk leaves G"):
        extract_balanced_cycles(link, trees, g)
