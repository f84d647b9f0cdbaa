from itertools import combinations

import numpy as np
import pytest

from plantedcycles import (ColoredGraph, DegreeBoundedSubgraph, ModelParams,
                           edge_set, recover, rng_for, run_trial,
                           sample_instance, validate_structure)
from plantedcycles.recovery import (RecoveryState, subroutine_a, subroutine_b,
                                    default_max_len, default_quota)
from plantedcycles.trails import canonical_trail

from conftest import cyclic_garbage


def ring(n):
    return ColoredGraph(n, [(i, (i + 1) % n) for i in range(n)], ())


def max_degree2_edge_count(g):
    best = 0
    edges = sorted(g.edges)
    for r in range(len(edges), best, -1):
        for combo in combinations(edges, r):
            rep = validate_structure(combo)
            if rep.valid:
                return r
    return 0


def test_single_cycle_recovered_exactly():
    for n in (5, 8, 12):
        g = ring(n)
        h = recover(g, max_len=4)
        assert h.edges == set(g.edges)


def test_cycle_plus_chord_matches_brute_force():
    g = ColoredGraph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)], ())
    h = recover(g, max_len=5)
    assert len(h.edges) == max_degree2_edge_count(g) == 6
    assert max(h.degree) == 2


def test_output_always_degree_bounded(rng):
    for t in range(10):
        params = ModelParams(n=60, lam=0.4, delta=0.8)
        from plantedcycles import sample_instance
        g, _ = sample_instance(params, rng_for(51, 0, t))
        h = recover(g)
        assert validate_structure(h.edges).valid


def _candidates(*walks):
    trails = [canonical_trail(w, closed=w[0] == w[-1]) for w in walks]
    return [t.edges for t in sorted(trails, key=lambda t: t.sort_key())]


def test_subroutine_a_examples():
    # a closed triangle is cost-free from the empty subgraph
    state = RecoveryState(h=DegreeBoundedSubgraph(6))
    cands = _candidates((0, 1, 2, 0))
    assert subroutine_a(state, cands)
    assert state.h.edges == {(0, 1), (1, 2), (0, 2)}
    # a lone open 2-path creates two degree-1 vertices: rejected
    state = RecoveryState(h=DegreeBoundedSubgraph(6))
    assert not subroutine_a(state, _candidates((0, 1, 2)))
    # a trail entirely inside H shrinks it: skipped
    state = RecoveryState(h=DegreeBoundedSubgraph(6))
    state.h.xor_edges([(0, 1), (1, 2)])
    assert not subroutine_a(state, _candidates((0, 1, 2)))


def test_subroutine_b_quota():
    state = RecoveryState(h=DegreeBoundedSubgraph(8))
    cands = _candidates((0, 1, 2))          # best gain 2
    assert not subroutine_b(state, cands, quota=3)
    assert subroutine_b(state, cands, quota=2)
    assert state.h.edges == {(0, 1), (1, 2)}
    # at most 2 new degree-1 vertices appear
    assert validate_structure(state.h.edges).deg1_count == 2


def test_subroutine_b_tie_break_first_canonical():
    state = RecoveryState(h=DegreeBoundedSubgraph(9))
    cands = _candidates((4, 5, 6), (1, 2, 3))
    assert subroutine_b(state, cands, quota=1)
    assert state.h.edges == {(1, 2), (2, 3)}    # first in canonical order wins


def test_estimator_never_reads_colors():
    base = [(i, (i + 1) % 9) for i in range(9)]
    uncolored = ColoredGraph(9, base, ())
    colored = ColoredGraph(9, base, base)
    h1 = recover(uncolored, max_len=4)
    h2 = recover(colored, max_len=4)
    assert h1.edges == h2.edges


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    base_edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
    g = ColoredGraph(8, base_edges, ())
    h = recover(g, max_len=4)
    for _ in range(5):
        perm = rng.permutation(8)
        mapped = [(perm[u], perm[v]) for u, v in base_edges]
        g2 = ColoredGraph(8, mapped, ())
        h2 = recover(g2, max_len=4)
        assert edge_set((perm[u], perm[v]) for u, v in h.edges) == frozenset(h2.edges)


def test_defaults():
    assert default_max_len(300) == 5
    assert default_max_len(10) == 3
    assert default_quota(300) == 3
    assert default_quota(3) == 2


def test_run_trial_deterministic():
    params = ModelParams(n=80, lam=0.3, delta=1.0)
    a = run_trial(params, seed=991)
    b = run_trial(params, seed=991)
    assert (a.risk, a.edges, a.deg1, a.symdiff) == (b.risk, b.edges, b.deg1, b.symdiff)


def test_run_trial_lambda_small_risk_zero():
    params = ModelParams(n=50, lam=1e-9, delta=1.0)
    rec = run_trial(params, seed=17)
    assert rec.risk == 0.0


def test_symdiff_never_exceeds_expected_diff_bound():
    # the witness-based constant dominates the empirical differences
    from plantedcycles import expected_diff_bound
    c = expected_diff_bound(0.3, 1.0)
    params = ModelParams(n=120, lam=0.3, delta=1.0)
    for t in range(5):
        rec = run_trial(params, seed=rng_for(61, 0, t).integers(2 ** 63))
        assert rec.symdiff <= c


def test_single_cycle_variant_recovery():
    params = ModelParams(n=150, lam=0.25, delta=1.0, variant="single-cycle")
    risks = [run_trial(params, seed=rng_for(62, 0, t).integers(2 ** 63)).risk
             for t in range(5)]
    assert np.mean(risks) <= 0.15


def test_recover_empty_graph_rejected():
    with pytest.raises(ValueError):
        recover(ColoredGraph(4, [], ()))


def test_every_intermediate_subgraph_stays_valid(monkeypatch):
    from plantedcycles import sample_instance, rng_for
    from plantedcycles.graphcore import DegreeBoundedSubgraph

    orig = DegreeBoundedSubgraph.xor_edges

    def checked(self, toggled):
        orig(self, toggled)
        assert max(self.degree) <= 2

    monkeypatch.setattr(DegreeBoundedSubgraph, "xor_edges", checked)
    g, _ = sample_instance(ModelParams(n=80, lam=0.4, delta=0.8), rng_for(71))
    h = recover(g)
    assert max(h.degree) <= 2


def test_recover_leaves_no_cyclic_garbage():
    g, _ = sample_instance(ModelParams(n=300, lam=0.4, delta=1.0), rng_for(21))
    assert cyclic_garbage(lambda: recover(g)) == 0
