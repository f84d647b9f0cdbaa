"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All tolerances are fixed here; master seeds are pinned so every run is
reproducible.
"""

import copy
import math
import time
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

import plantedcycles as pc
from plantedcycles.sampler import sample_two_factor

from conftest import (brute_force_trails, coloured_neighbours, complete_graph,
                      random_colored_graph, random_degree_bounded_edges)


def _report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold_values():
    t0 = time.time()
    ok = abs(pc.threshold(1.0) - 0.5) <= 1e-12
    ok &= abs(pc.threshold(2 / 3) - 1 / 3) <= 1e-12
    worst = max(abs(pc.genfun.threshold_quadratic_residual(float(d)))
                for d in np.linspace(0.01, 0.99, 99))
    ok &= worst < 1e-10
    _report(1, ok, f"threshold closed form + quadratic residual {worst:.2e} "
            f"({time.time() - t0:.2f}s)")


def test_criterion_02_coefficient_identities():
    t0 = time.time()
    ok = True
    for lam in (0.2, 0.6, 1.1):
        for a in range(1, 11):
            ok &= abs(pc.coefficient(lam, 1.0, a, a) - (2 * lam) ** a) <= \
                1e-12 * max(1.0, (2 * lam) ** a)
    for lam in np.linspace(0.05, 1.5, 12):
        for delta in np.linspace(0.1, 1.0, 10):
            ok &= abs(pc.coefficient(float(lam), float(delta), 1, 1)
                      - 2 * delta * lam) <= 1e-12
    _report(2, ok, f"c_aa = (2 lam)^a at delta=1 and c_11 = 2 delta lam "
            f"({time.time() - t0:.2f}s)")


def test_criterion_03_sampler_uniformity():
    t0 = time.time()
    factors = pc.enumerate_two_factors(complete_graph(8), 8)
    kinds = {}
    for f in factors:
        key = tuple(sorted(len(c) for c in f.cycles()))
        kinds[key] = kinds.get(key, 0) + 1
    assert kinds == {(8,): 2520, (3, 5): 672, (4, 4): 315}
    hist = pc.cycle_type_stats(200000, 8, pc.rng_for(11))
    total = sum(hist.values())
    chi2 = sum((hist[k] - kinds[k] / 3507 * total) ** 2 / (kinds[k] / 3507 * total)
               for k in kinds)
    p = stats.chi2.sf(chi2, df=2)
    frac = hist[(8,)] / total
    ok = p > 1e-3 and abs(frac - 2520 / 3507) <= 0.01
    _report(3, ok, f"m=8 cycle-type chi2 p={p:.4f}, single-cycle frac "
            f"{frac:.4f} vs {2520 / 3507:.4f} ({time.time() - t0:.1f}s)")


def test_criterion_04_trail_count_calibration():
    t0 = time.time()
    params = pc.ModelParams(n=2000, lam=0.3, delta=0.5)
    c11 = pc.coefficient(0.3, 0.5, 1, 1)
    c22 = pc.coefficient(0.3, 0.5, 2, 2)
    n_instances, anchors_per = 1000, 200
    m11, m22 = [], []
    for t in range(n_instances):
        g, hs = pc.sample_instance(params, pc.rng_for(29, 0, t))
        support = hs.support
        anchors = sorted(support)[:anchors_per]
        m11.append(np.mean([pc.count_ab_trails(g, 1, 1, v, l_cap=8, support=support)
                            for v in anchors]))
        m22.append(np.mean([pc.count_ab_trails(g, 2, 2, v, l_cap=8, support=support)
                            for v in anchors]))
    mean11, mean22 = float(np.mean(m11)), float(np.mean(m22))
    ok = 0.8 * c11 <= mean11 <= 1.05 * c11 and 0.8 * c22 <= mean22 <= 1.05 * c22
    _report(4, ok, f"(1,1): {mean11:.4f} vs c={c11:.4f}; (2,2): {mean22:.4f} "
            f"vs c={c22:.4f}; window [0.8c, 1.05c] ({time.time() - t0:.1f}s)")


def test_criterion_05_recovery_below_threshold():
    t0 = time.time()
    r1 = [pc.run_trial(pc.ModelParams(n=300, lam=0.3, delta=1.0),
                       pc.trial_seed(2024, 0, t)).risk for t in range(20)]
    r2 = [pc.run_trial(pc.ModelParams(n=400, lam=0.2, delta=0.5),
                       pc.trial_seed(2024, 1, t)).risk for t in range(20)]
    mean1, mean2 = float(np.mean(r1)), float(np.mean(r2))
    # run_trial asserts |H| >= delta n - 9n/sqrt(ln n), deg1 <= 2n/sqrt(ln n),
    # and max degree <= 2 on every single run
    ok = mean1 <= 0.1 and mean2 <= 0.15
    _report(5, ok, f"mean risk (d=1, lam=.3, n=300): {mean1:.4f} <= 0.1; "
            f"(d=.5, lam=.2, n=400): {mean2:.4f} <= 0.15 ({time.time() - t0:.1f}s)")


def test_criterion_06_runtime_sanity():
    t0 = time.time()
    times = [pc.run_trial(pc.ModelParams(n=300, lam=0.3, delta=1.0),
                          pc.trial_seed(55, 0, t)).ms for t in range(3)]
    ok = all(ms < 60000 for ms in times)
    _report(6, ok, f"n=300 recovery per-trial ms: "
            f"{[f'{ms:.0f}' for ms in times]} < 60000 ({time.time() - t0:.1f}s)")


def test_criterion_07_decomposition_oracle():
    t0 = time.time()
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(3, n + 1))
        support = rng.choice(n, size=k, replace=False)
        h_star = sample_two_factor(support, rng)
        h = random_degree_bounded_edges(rng, n, h_star)
        pc.decompose_diff(h_star, h)      # validate() inside re-checks everything
        checked += 1
    h_star = pc.TwoFactor(pc.edge_set([(1, 4), (0, 1), (0, 2), (2, 4)]))
    dec = pc.decompose_diff(h_star, pc.edge_set([(0, 4), (0, 3), (2, 3), (2, 4)]))
    fig_ok = len(dec.trails) == 1 and dec.trails[0].closed and dec.profiles[0] == (3, 3)
    ok = checked == 1000 and fig_ok
    _report(7, ok, f"{checked} random pairs pass all invariants; figure fixture "
            f"gives one closed (3,3) trail ({time.time() - t0:.1f}s)")


def test_criterion_08_branching_bounds():
    t0 = time.time()
    spec = pc.OffspringSpec.poisson(2.0)
    truth = 1 - pc.extinction_fixed_point(spec)
    rate = pc.simulate_survival(spec, depth=30, runs=100000, rng=pc.rng_for(3))
    ok = abs(rate - truth) <= 0.01 and rate >= pc.survival_bound(2, 2)
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 50:
        size = int(rng.integers(3, 8))
        law = pc.OffspringSpec.from_probs(rng.dirichlet(np.ones(size)))
        if law.mean <= 1.05:
            continue
        checked += 1
        runs = 20000
        r = pc.simulate_survival(law, depth=30, runs=runs,
                                 rng=np.random.default_rng(4000 + checked))
        se = math.sqrt(max(r * (1 - r), 1e-9) / runs)
        ok &= r >= pc.survival_bound(law.mean, law.variance) - 3 * se
    for i in range(1000):
        size = int(rng.integers(2, 8))
        law = pc.OffspringSpec.from_probs(rng.dirichlet(np.ones(size)))
        target = law.mean * float(rng.random())
        q = pc.shift_distribution(law, target)
        ok &= abs(q.mean - target) <= 1e-9
        ok &= q.variance <= law.variance + 0.25 + 1e-9
        ok &= bool(np.all(q.cdf() >= law.cdf() - 1e-12))
    _report(8, ok, f"poisson(2) empirical {rate:.4f} vs oracle {truth:.4f} "
            f"(bound 0.5); 50 supercritical laws and 1000 shifts pass "
            f"({time.time() - t0:.1f}s)")


def _require(ok: bool, seed: int, invariant: str):
    """Fail criterion 9 naming the seed and the invariant that broke."""
    if not ok:
        _report(9, False, f"seed {seed}: {invariant}")


def _pool_split(reserved, rng):
    """The left/right split of the reserved pool that `link_trees` draws
    from `rng`; pass a copy to leave the caller's stream untouched."""
    pool = list(reserved.edges)
    if len(pool) % 2 == 1:
        pool = pool[:-1]
    perm = rng.permutation(len(pool))
    half = len(pool) // 2
    return (sorted(pool[i] for i in perm[:half]),
            sorted(pool[i] for i in perm[half:]))


def _check_reserved(seed, h_star, reserved) -> int:
    owner = {}
    for k, e in enumerate(reserved.edges):
        _require(e in h_star.edges, seed, f"reserved edge {e} is not red")
        for w in e:
            _require(w not in owner, seed, f"reserved edges share vertex {w}")
            owner[w] = k
    nbr = {}
    for u, v in h_star.edges:
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    for k, (u, v) in enumerate(reserved.edges):
        for w in {u, v} | nbr[u] | nbr[v]:
            _require(owner.get(w, k) == k, seed,
                     f"reserved endpoint {w} lies in the distance-2 zone of {(u, v)}")
    _require(reserved.available.isdisjoint(owner), seed,
             "a reserved endpoint is still available")
    return len(reserved.edges)


def _check_trees(seed, g, trees, ell) -> int:
    support = g.red_support()
    g_edges = g.edges                 # built from the graph's rows on each read
    layers = 0
    for tree in trees:
        _require(tree.center in g.planted, seed, f"tree center {tree.center} is not red")
        for side in (tree.left, tree.right):
            hubs = side.hubs
            _require(len(hubs) >= 2 * ell, seed,
                     f"tree side at root {side.root} has fewer than 2*ell hubs")
            for k, (hub, layer) in enumerate(side.layers.items(), start=1):
                in_g = all(pc.edge(a, b) in g_edges for a, b in zip(layer, layer[1:]))
                profile = pc.classify_ab_trail(g, pc.canonical_trail(layer, False), support)
                _require(in_g and layer[-1] == hub and profile == (1, 1), seed,
                         f"layer {layer} is not a (1,1)-trail ending at its hub")
                # the parent is the root or an earlier hub, so the layers form a tree
                _require(layer[0] in hubs[:k] and side.path_to_root(hub)[-1] == side.root,
                         seed, f"layer {layer} does not hang from an earlier hub")
                layers += 1
    return layers


def _check_link(seed, g, trees, link, split) -> tuple[int, int]:
    """Witness hubs and link arcs against the graph; returns their counts."""
    blue = g.blue_edges
    pools = dict(zip("LR", split))
    chosen = {"L": link.chosen_left, "R": link.chosen_right}
    marked = [e for i in link.admitted for s in "LR" for e in chosen[s][i]]
    _require(len(marked) == len(set(marked)), seed, "a reserved edge is chosen twice")
    for i in link.admitted:
        for s, side in (("L", trees[i].left), ("R", trees[i].right)):
            for e, hub in chosen[s][i].items():
                _require(e in pools[s] and hub in side.hubs
                         and pc.edge(hub, e[0]) in blue, seed,
                         f"tree {i} side {s}: witness hub {hub} is not blue-adjacent "
                         f"to the tree-facing endpoint of {e}")
    for (i, j), (e, e2) in link.blue.items():
        _require(e in link.chosen_left.get(i, ()) and e2 in link.chosen_right.get(j, ())
                 and pc.edge(e[1], e2[1]) in blue, seed,
                 f"link arc {(i, j)} has no blue edge between the linking "
                 f"endpoints of {e} and {e2}")
    return len(marked), len(link.blue)


def _certify_cycle(seed, g, h_star, c):
    walk = c.vertices
    verts = walk[:-1]
    _require(walk[0] == walk[-1] and len(set(verts)) == len(verts), seed,
             f"cycle {walk} is not vertex-simple")
    edges = [pc.edge(a, b) for a, b in zip(walk, walk[1:])]
    g_edges = g.edges
    _require(all(e in g_edges for e in edges), seed, f"cycle {walk} leaves the graph")
    reds = sum(e in g.planted for e in edges)
    _require(reds == len(edges) - reds == c.red == c.blue, seed,
             f"cycle {walk} has {reds} red and {len(edges) - reds} blue edges")
    try:
        competitor = pc.TwoFactor(pc.symmetric_difference(h_star.edges, edges))
    except ValueError as exc:
        _report(9, False, f"seed {seed}: H* xor C is not a 2-factor ({exc})")
    _require(competitor.support == h_star.support, seed,
             "H* xor C has a different support")


def _plant_link_layer(seed, g, trees, split):
    """Join three built trees into a directed 3-cycle of the link graph.

    Picks trees with no edge to any tree-facing endpoint, and tree-facing
    endpoints adjacent to no hub of any tree, so the planted connections
    are the only ones open to the picked trees and to no other tree.
    Returns the augmented graph, the picked tree indices and, per picked
    tree, the planted (left edge, left hub, right edge, right hub).
    """
    left_pool, right_pool = split
    tree_facing = {e[0] for e in left_pool + right_pool}
    adj = coloured_neighbours(g)
    nbrs = [{w for side in (t.left, t.right) for h in side.hubs for w, _red in adj[h]}
            for t in trees]
    picks = [i for i, nb in enumerate(nbrs) if nb.isdisjoint(tree_facing)][:3]
    _require(len(picks) == 3, seed, f"only {len(picks)} built trees are unlinked")
    near = set().union(*nbrs)
    free_l = [e for e in left_pool if e[0] not in near][:3]
    free_r = [e for e in right_pool if e[0] not in near][:3]
    _require(len(free_l) == len(free_r) == 3, seed, "too few free tree-facing endpoints")
    plan, added = [], set()
    for t, i in enumerate(picks):
        hub_l, hub_r = trees[i].left.hubs[1], trees[i].right.hubs[1]   # first layer hubs
        plan.append((free_l[t], hub_l, free_r[t], hub_r))
        added |= {pc.edge(hub_l, free_l[t][0]), pc.edge(hub_r, free_r[t][0]),
                  # arc t -> t+1: connector from R_t to L_(t+1)
                  pc.edge(free_r[t][1], free_l[(t + 1) % 3][1])}
    return pc.ColoredGraph(g.n, g.edges | added, g.planted), picks, plan


def test_criterion_09_adversary_structural():
    """Every stage of the adversary pipeline at the spec point, then a
    link layer planted on the same real trees, which must come back as a
    certified balanced cycle.  docs/criterion-9.md explains why the spec
    point itself yields no cycle at this n."""
    t0 = time.time()
    params = pc.ModelParams(n=2000, lam=0.8, delta=1.0)
    gamma, ell, d = 0.1, 1, 1
    # At most A = floor(gamma n)/2/d trees are admitted; each possible link
    # arc is an unexamined pair, blue w.p. <= d^2 lam/n.  Summing A^k p^k / k
    # over cycle lengths k bounds the expected number of link-graph cycles.
    admit_cap = int(gamma * params.n) // 2 // d
    first_moment = -math.log(1 - admit_cap * d * d * params.lam / params.n)
    funnel = dict(trees=0, admitted=0, arcs=0, cycles=0)
    checked = dict(reserved=0, layers=0, chosen=0, arcs=0, cycles=0)
    lengths = []
    for s in range(20):
        seed = 9000 + s
        rng = pc.rng_for(seed)
        g, h_star = pc.sample_instance(params, rng)
        reserved = pc.reserve_edges(h_star, gamma, g.n)
        built = pc.build_trees(g, reserved.available, 1, ell, gamma, rng)
        trees = built.trees
        _require(bool(trees), seed, "no tree built")
        checked["reserved"] += _check_reserved(seed, h_star, reserved)
        checked["layers"] += _check_trees(seed, g, trees, ell)
        split = _pool_split(reserved, copy.deepcopy(rng))
        rng_planted = copy.deepcopy(rng)

        # the spec point
        link = pc.link_trees(g, trees, reserved, d, rng)
        cycles = pc.extract_balanced_cycles(link, trees, g, limit=100)
        for c in cycles:
            _certify_cycle(seed, g, h_star, c)
        chosen, arcs = _check_link(seed, g, trees, link, split)
        funnel["trees"] += len(trees)
        funnel["admitted"] += len(link.admitted)
        funnel["arcs"] += arcs
        funnel["cycles"] += len(cycles)

        # a planted link layer on the same trees, run through the same code
        g2, picks, plan = _plant_link_layer(seed, g, trees, split)
        link2 = pc.link_trees(g2, trees, reserved, d, rng_planted)
        for t, i in enumerate(picks):
            e_l, hub_l, e_r, hub_r = plan[t]
            _require(link2.chosen_left.get(i) == {e_l: hub_l}
                     and link2.chosen_right.get(i) == {e_r: hub_r}, seed,
                     f"tree {i}: the planted connections were not the ones chosen")
            nxt = picks[(t + 1) % 3]
            _require(link2.blue.get((nxt, i)) == (plan[(t + 1) % 3][0], e_r), seed,
                     f"planted link arc {i} -> {nxt} was not recorded")
        chosen2, arcs2 = _check_link(seed, g2, trees, link2, split)
        cycles2 = pc.extract_balanced_cycles(link2, trees, g2, limit=100)
        for c in cycles2:
            _certify_cycle(seed, g2, h_star, c)
        centers = {v for i in picks for v in trees[i].center}
        through = [c.length for c in cycles2 if centers <= set(c.vertices)]
        _require(bool(through), seed, "no certified cycle passes through the three planted trees")
        lengths.append(through[0])
        checked["chosen"] += chosen + chosen2
        checked["arcs"] += arcs + arcs2
        checked["cycles"] += len(cycles) + len(cycles2)
    ok = all(v > 0 for v in checked.values())
    _report(9, ok, f"spec point, 20 seeds: {funnel['trees']} trees, {funnel['admitted']} "
            f"admitted, {funnel['arcs']} link arcs, {funnel['cycles']} cycles (first-moment "
            f"bound {first_moment:.3f} cycles/seed, docs/criterion-9.md); planted link "
            f"layer: certified cycle through 3 trees in 20/20 seeds, {min(lengths)}-"
            f"{max(lengths)} edges; checked {checked} ({time.time() - t0:.1f}s)")


def test_criterion_10_exact_recovery_tiny():
    t0 = time.time()
    params = pc.ModelParams(n=12, lam=0.1, delta=1.0)
    freq = pc.exact_recovery_check(params, 200, pc.rng_for(10))
    ok = freq >= 0.9
    _report(10, ok, f"unique 2-factor frequency {freq:.3f} >= 0.9 "
            f"({time.time() - t0:.1f}s)")


def test_criterion_11_oracle_equivalences():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(200):
        g = random_colored_graph(rng, n_max=8, m_cap=12)
        max_len = int(rng.integers(3, 6))
        ok &= set(pc.enumerate_trails(g, max_len)) == brute_force_trails(g, max_len)
    count = len(pc.enumerate_two_factors(complete_graph(8), 8))
    ok &= count == 3507
    _report(11, ok, f"200 enumeration corpora match brute force; "
            f"K8 two-factors = {count} ({time.time() - t0:.1f}s)")
