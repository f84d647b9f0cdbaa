import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plantedcycles import (ColoredGraph, ModelParams, TrailExplosionError,
                           canonical_trail, classify_ab_trail, coefficient,
                           count_ab_trails, enumerate_trails, rng_for,
                           sample_instance)
from plantedcycles import trails
from plantedcycles.recovery import Candidates
from plantedcycles.trails import DEFAULT_TRAIL_CAP, ab_step_ok

from conftest import (brute_force_trails, coloured_neighbours, complete_graph, cyclic_garbage,
                      deadline, is_shortcutted, random_colored_graph, reference_canonical_trail,
                      reference_enumerate_trails)


def triangle():
    return ColoredGraph(3, [(0, 1), (1, 2), (0, 2)], ())


def test_enumerate_triangle():
    assert len(enumerate_trails(triangle(), 3)) == 6     # 3 edges + 3 two-paths
    assert len(enumerate_trails(triangle(), 4)) == 7     # + the closed triangle
    assert len(enumerate_trails(ColoredGraph(3, [], ()), 4)) == 0
    with pytest.raises(ValueError):
        enumerate_trails(triangle(), 1)


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = random_colored_graph(rng)
        max_len = int(rng.integers(3, 6))
        ours = set(enumerate_trails(g, max_len))
        assert ours == brute_force_trails(g, max_len)


def bowtie():
    return ColoredGraph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)], ())


def test_enumeration_bowtie_figure_eight():
    # two triangles sharing a vertex: the Eulerian figure-eights revisit
    # the center vertex, and the two loop pairings are distinct trails
    g = bowtie()
    ours = set(enumerate_trails(g, 7))
    assert ours == brute_force_trails(g, 7)
    sixes = [t for t in ours if t.length == 6]
    assert len(sixes) == 2 and all(t.closed for t in sixes)


def test_enumeration_deterministic_order():
    g = random_colored_graph(np.random.default_rng(3))
    a = list(enumerate_trails(g, 4))
    b = list(enumerate_trails(g, 4))
    assert a == b
    assert a == sorted(a, key=lambda t: t.sort_key())


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return ColoredGraph(n, draw(st.lists(st.sampled_from(pairs), max_size=12)), ())


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(2, 7))
@example(bowtie(), 7)
@example(ColoredGraph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6), (0, 6)],
                      ()), 7)
def test_enumeration_matches_reference_order(g, max_len):
    # the same trails in the same order as the depth-first search, and each
    # row's edge ids name its consecutive vertex pairs in sorted(g.edges),
    # then end in the sentinel id
    rows = enumerate_trails(g, max_len)
    assert list(rows) == reference_enumerate_trails(g, max_len)
    assert rows.edges == sorted(g.edges)
    levels = list(rows.levels())
    # one view per length 1..K with no gap, K the longest length present:
    # max_len - 1 whenever a trail that long exists
    k = len(rows.counts)
    assert [verts.shape[1] for verts, _ in levels] == list(range(2, k + 2))
    assert [eids.shape[1] for _, eids in levels] == list(range(2, k + 2))
    assert k == max((t.length for t in rows), default=0)
    assert all(rows.counts)
    assert len(rows.verts) == len(rows.eids) == sum(verts.size for verts, _ in levels)
    for verts, eids in levels:
        assert (eids[:, -1] == len(rows.edges)).all()
        walks = [(a, b) for row in verts.tolist() for a, b in zip(row, row[1:])]
        assert [rows.edges[i] for i in eids[:, :-1].ravel().tolist()] == [
            (min(a, b), max(a, b)) for a, b in walks]


def test_enumeration_stops_at_the_longest_trail():
    # no trail has more than |E| edges, so a max_len of 10**9 gives the
    # rows of |E| + 1, without a level per length up to 10**9
    g, _ = sample_instance(ModelParams(30, 0.5, 1.0), rng_for(1))
    want = enumerate_trails(g, len(g.edges) + 1)
    with deadline(20):
        got = enumerate_trails(g, 10 ** 9)
    assert len(got) == len(want) > 0
    assert got.counts == want.counts
    assert np.array_equal(got.verts, want.verts) and np.array_equal(got.eids, want.eids)


def test_reversal_same_canonical(rng):
    g = random_colored_graph(rng)
    for t in enumerate_trails(g, 5):
        rev = canonical_trail(t.vertices[::-1], t.closed)
        assert rev == t


def test_canonical_closed_walks_match_every_rotation():
    rng = np.random.default_rng(11)
    walks = []
    for _ in range(2000):
        # random closed walks over a few labels: the minimum often repeats
        body = tuple(int(v) for v in rng.integers(0, int(rng.integers(2, 7)),
                                                  size=int(rng.integers(1, 12))))
        walks.append(body + body[:1])
    for _ in range(500):
        # figure-eights: loops through a shared minimum vertex
        loops = [tuple(int(v) for v in rng.integers(1, 9, size=int(rng.integers(2, 5))))
                 for _ in range(int(rng.integers(2, 4)))]
        body = tuple(v for loop in loops for v in (0,) + loop)
        walks.append(body + (0,))
    for walk in walks:
        body = walk[:-1]
        expect = reference_canonical_trail(walk, True)
        assert canonical_trail(walk, True) == expect
        i = int(rng.integers(len(body)))
        turned = body[i:] + body[:i]
        assert canonical_trail((turned + turned[:1])[::-1], True) == expect
        assert canonical_trail(walk, False) == reference_canonical_trail(walk, False)


def test_explosion_cap(monkeypatch):
    monkeypatch.setattr(trails, "DEFAULT_TRAIL_CAP", 10)
    g = ColoredGraph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)], ())
    with pytest.raises(TrailExplosionError):
        enumerate_trails(g, 5)
    with pytest.raises(TrailExplosionError):
        count_ab_trails(g, 0, 3, 0)
    # raised if and only if there are more trails than the cap
    count = len(reference_enumerate_trails(triangle(), 4))
    monkeypatch.setattr(trails, "DEFAULT_TRAIL_CAP", count)
    assert len(enumerate_trails(triangle(), 4)) == count
    monkeypatch.setattr(trails, "DEFAULT_TRAIL_CAP", count - 1)
    with pytest.raises(TrailExplosionError):
        enumerate_trails(triangle(), 4)


def test_explosion_cap_bounds_allocation(monkeypatch):
    # K24 has 6,348 trails of up to two edges and 129,536 of three, so the
    # third level passes a cap of 10k early.  Levels are built and counted in
    # blocks, so the raise comes before the level is held whole: the peak
    # stays within 8x the cap's rows at 4 B per vertex and edge id (a whole
    # level peaks near 54x).
    cap, max_len = 10_000, 4
    monkeypatch.setattr(trails, "DEFAULT_TRAIL_CAP", cap)
    g = complete_graph(24)
    tracemalloc.start()
    try:
        with pytest.raises(TrailExplosionError):
            enumerate_trails(g, max_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * cap * 4 * (2 * max_len - 1)


def test_default_cap_fits_in_two_gib():
    # recover's peak holds the enumerator's blocks and the flat rows it
    # joins them into, then those rows with the greedy's index and
    # evaluation: max_len 8 is the default for n in [2981, 8103), 10 from
    # n = 22027 and 17, the widest, from n = 24154953 to MAX_LOADED_N
    for n, lam, max_len in ((100, 0.8, 8), (30, 1.0, 10), (40, 0.4, 17)):
        g, _ = sample_instance(ModelParams(n=n, lam=lam, delta=1.0), rng_for(1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            found = enumerate_trails(g, max_len)
            count = len(found)
            candidates = Candidates(found)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(candidates.gain) == count > 10_000
        assert DEFAULT_TRAIL_CAP * peak / count <= 2 * 2 ** 30


def red_triangle_graph(extra_blue):
    # planted triangle on {1,2,3} plus the given blue edges
    return ColoredGraph(6, extra_blue, [(1, 2), (2, 3), (1, 3)])


def test_classify_open_trails():
    g = red_triangle_graph([(0, 1)])
    assert classify_ab_trail(g, canonical_trail((0, 1, 2), False)) == (1, 1)
    # blue-blue meeting at a planted vertex
    g2 = red_triangle_graph([(0, 1), (1, 4)])
    assert classify_ab_trail(g2, canonical_trail((0, 1, 4), False)) is None
    # blue-blue at an unplanted vertex then a red edge is fine
    g3 = red_triangle_graph([(0, 4), (0, 1)])
    assert classify_ab_trail(g3, canonical_trail((4, 0, 1, 2), False)) == (1, 2)
    # both traversal directions end on a blue edge
    g4 = red_triangle_graph([(0, 1), (2, 4)])
    assert classify_ab_trail(g4, canonical_trail((0, 1, 2, 4), False)) is None
    # all red: not an (a,b)-trail
    assert classify_ab_trail(g, canonical_trail((1, 2, 3), False)) is None


def test_classify_closed_trails():
    # circuit 0-1(R) 1-2(R) 2-4(B) 4-0(B) against the red 4-cycle
    g = ColoredGraph(6, [(2, 4), (4, 0)], [(0, 1), (1, 2), (2, 3), (0, 3)])
    circ = canonical_trail((0, 1, 2, 4, 0), True)
    assert classify_ab_trail(g, circ) == (2, 2)


def test_classify_all_blue_circuit():
    g = ColoredGraph(7, [(4, 5), (5, 6), (4, 6)], [(0, 1), (1, 2), (0, 2)])
    circ = canonical_trail((4, 5, 6, 4), True)
    assert classify_ab_trail(g, circ) == (0, 3)
    # planted vertex on an all-blue circuit: rejected
    g2 = ColoredGraph(7, [(4, 5), (5, 1), (4, 1)], [(0, 1), (1, 2), (0, 2)])
    circ2 = canonical_trail((4, 5, 1, 4), True)
    assert classify_ab_trail(g2, circ2) is None


def test_count_no_blue_edges():
    g = ColoredGraph(5, [], [(0, 1), (1, 2), (2, 3), (0, 3)])
    for a, b in [(1, 1), (2, 2), (0, 1)]:
        assert count_ab_trails(g, a, b, 0, l_cap=8) == 0


def test_count_rejects_an_anchor_outside_the_graph():
    g = ColoredGraph(5, [(0, 4)], [(1, 2), (2, 3), (1, 3)])
    assert count_ab_trails(g, 0, 1, 4) == 1
    # -2 once indexed the offsets from their end and counted vertex 4's
    # trails; 5 read past them
    for frm in (-2, -1, 5, 6):
        with pytest.raises(ValueError, match=rf"anchor frm={frm} outside 0\.\.4"):
            count_ab_trails(g, 0, 1, frm)
    with pytest.raises(ValueError, match="anchor"):
        count_ab_trails(ColoredGraph(0, [], []), 0, 1, 0)


def test_count_matches_enumeration_semantics():
    # independent check: count anchored sequences by brute force
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_colored_graph(rng)
        support = g.red_support()
        v = int(rng.integers(g.n))
        for a, b in [(1, 1), (2, 2), (1, 2), (0, 2)]:
            got = count_ab_trails(g, a, b, v, l_cap=10, support=support)
            want = _brute_count(g, a, b, v, support)
            assert got == want, (g.edges, g.planted, v, a, b)


def _brute_count(g, a, b, frm, support):
    # enumerate anchored walks edge by edge, filtering the trail rules
    adj = coloured_neighbours(g)
    total = 0
    stack = [(frm, (), None, 0, 0)]
    while stack:
        v, used, last_red, na, nb = stack.pop()
        if na == a and nb == b:
            if (a == 0 or last_red) :
                total += 1
            continue
        for w, red in adj[v]:
            e = (v, w) if v < w else (w, v)
            if e in used:
                continue
            if red and na == a:
                continue
            if not red and nb == b:
                continue
            if last_red is None and red:
                continue
            if last_red is False and not red and v in support:
                continue
            stack.append((w, used + (e,), red, na + (1 if red else 0),
                          nb + (0 if red else 1)))
    return total


def test_count_trail_calibration_small():
    # mean anchored (1,1) count across instances approaches 2*delta*lambda
    from plantedcycles import ModelParams, sample_instance
    params = ModelParams(n=500, lam=0.4, delta=0.5)
    c11 = coefficient(0.4, 0.5, 1, 1)
    vals = []
    for t in range(300):
        g, hs = sample_instance(params, rng_for(23, 0, t))
        v = min(hs.support)
        vals.append(count_ab_trails(g, 1, 1, v, l_cap=6, support=hs.support))
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - c11) <= 4 * se + 0.01


def test_count_with_target_sums_to_total():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_colored_graph(rng)
        support = g.red_support()
        v = int(rng.integers(g.n))
        total = count_ab_trails(g, 1, 1, v, l_cap=6, support=support)
        by_target = sum(count_ab_trails(g, 1, 1, v, to=w, l_cap=6, support=support)
                        for w in range(g.n))
        assert total == by_target


def test_zero_red_trail_count_bound():
    # total (0,2)-trail count from a fixed vertex: mean at most
    # (1-delta)^(b-1) lam^b (the per-target bound summed over n targets)
    from plantedcycles import ModelParams, sample_instance, zero_red_trail_mean
    params = ModelParams(n=1000, lam=0.5, delta=0.5)
    bound = zero_red_trail_mean(0.5, 0.5, 2)
    vals = []
    for t in range(800):
        g, hs = sample_instance(params, rng_for(37, 0, t))
        v = 0
        vals.append(count_ab_trails(g, 0, 2, v, l_cap=6, support=hs.support))
    se = np.std(vals) / np.sqrt(len(vals))
    assert np.mean(vals) <= bound + 3 * se


def test_is_shortcutted():
    tree = ColoredGraph(4, [(0, 1), (1, 2), (2, 3)], ())
    assert not is_shortcutted(tree, canonical_trail((0, 1, 2, 3), False))
    c4 = ColoredGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], ())
    assert is_shortcutted(c4, canonical_trail((0, 1, 2), False))
    with pytest.raises(ValueError):
        is_shortcutted(c4, canonical_trail((0, 1, 2, 3, 0), True))


def test_shortcutted_rate_sparse():
    # shortcutted (a,b)-paths from a vertex are O(log^2 n / n) on average
    from plantedcycles import ModelParams, sample_instance
    import math
    params = ModelParams(n=2000, lam=0.3, delta=0.5)
    hits = 0
    trials = 60
    for t in range(trials):
        g, hs = sample_instance(params, rng_for(31, 0, t))
        v = min(hs.support)
        hits += _count_shortcutted_11_paths(g, v, hs.support)
    bound = 10 * math.log(2000) ** 2 / 2000
    assert hits / trials < bound


def _count_shortcutted_11_paths(g, v, support):
    adj = coloured_neighbours(g)
    count = 0
    for w, red1 in adj[v]:
        if red1:
            continue
        for x, red2 in adj[w]:
            if not red2 or x == v:
                continue
            path = canonical_trail((v, w, x), False)
            if classify_ab_trail(g, path, support) == (1, 1) and is_shortcutted(g, path):
                count += 1
    return count


def test_ab_step_rule():
    support = frozenset({1})
    assert ab_step_ok(None, False, 1, support)            # first edge unplanted
    assert not ab_step_ok(None, True, 0, support)         # ... never planted
    assert not ab_step_ok(False, False, 1, support)       # blue-blue at a planted vertex
    assert ab_step_ok(False, False, 0, support)           # blue-blue elsewhere
    for prev, red in ((False, True), (True, False), (True, True)):
        assert ab_step_ok(prev, red, 1, support)


def test_walkers_leave_no_cyclic_garbage():
    rng = np.random.default_rng(33)
    graphs = [random_colored_graph(rng) for _ in range(20)]

    def walk_all():
        for g in graphs:
            for v in range(g.n):
                count_ab_trails(g, 1, 1, v)
            enumerate_trails(g, 5)
            is_shortcutted(g, canonical_trail((0, 1), False))

    assert cyclic_garbage(walk_all) == 0
