import copy
import weakref
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plantedcycles import (ColoredGraph, ModelParams, Trail, count_ab_trails, edge, edge_set,
                           enumerate_trails, recover, recovery, rng_for, run_trial,
                           sample_instance, validate_structure)
from plantedcycles.recovery import (Candidates, RecoveryState, subroutine_a, subroutine_b,
                                    default_max_len, default_quota)
from plantedcycles.trails import canonical_trail

from conftest import (DegreeBoundedSubgraph, cyclic_garbage, reference_enumerate_trails,
                      reference_evaluate, reference_recover, reference_subroutine_a,
                      reference_subroutine_b, trail_rows)


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


def _candidates(n, *walks):
    """The walks as candidates, in enumeration order, on the graph of
    their edges with n vertices."""
    trails = sorted((canonical_trail(w, closed=w[0] == w[-1]) for w in walks),
                    key=Trail.sort_key)
    return Candidates(trail_rows(ColoredGraph(n, {e for t in trails for e in t.edges}, ()), trails))


def test_subroutine_a_examples():
    # a closed triangle is cost-free from the empty subgraph
    cands = _candidates(6, (0, 1, 2, 0))
    state = RecoveryState(h=cands.h)
    assert subroutine_a(state, cands)
    assert state.h.edges == {(0, 1), (1, 2), (0, 2)}
    # a lone open 2-path creates two degree-1 vertices: rejected
    cands = _candidates(6, (0, 1, 2))
    assert not subroutine_a(RecoveryState(h=cands.h), cands)
    # a trail entirely inside H shrinks it: skipped
    cands = _candidates(6, (0, 1, 2))
    state = RecoveryState(h=cands.h)
    cands.toggle(np.arange(2))                          # H = {(0, 1), (1, 2)}
    assert state.h.edges == {(0, 1), (1, 2)}
    assert not subroutine_a(state, cands)


def test_subroutine_b_quota():
    cands = _candidates(8, (0, 1, 2))          # best gain 2
    state = RecoveryState(h=cands.h)
    assert not subroutine_b(state, cands, quota=3)
    assert subroutine_b(state, cands, quota=2)
    assert state.h.edges == {(0, 1), (1, 2)}
    # at most 2 new degree-1 vertices appear
    assert validate_structure(state.h.edges).deg1_count == 2


def test_subroutine_b_tie_break_first_canonical():
    cands = _candidates(9, (4, 5, 6), (1, 2, 3))
    state = RecoveryState(h=cands.h)
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
    # after every write H's degrees stay <= 2 and equal a recount over
    # the endpoints of H's edges
    orig = Candidates.toggle
    calls = []

    def checked(self, ids):
        dirty = orig(self, ids)
        ends = np.array([self.edges[i] for i in np.flatnonzero(self._step == -1)], dtype=np.intp)
        assert self._deg.max() <= 2
        assert np.array_equal(self._deg, np.bincount(ends.ravel(), minlength=len(self._deg)))
        calls.append(ids)
        return dirty

    monkeypatch.setattr(Candidates, "toggle", checked)
    g, _ = sample_instance(ModelParams(n=80, lam=0.4, delta=0.8), rng_for(71))
    h, state = recover(g, return_state=True)
    assert len(calls) == state.updates_a + state.updates_b > 0
    assert max(h.degree) <= 2


def test_recover_reads_no_colors():
    # handed only n and the edge set, the estimator does exactly what it
    # does on the coloured graph
    g, _ = sample_instance(ModelParams(n=300, lam=0.4, delta=0.8), rng_for(23))
    assert g.planted
    h, state = recover(g, return_state=True)
    blind_h, blind = recover(SimpleNamespace(n=g.n, edges=g.edges), return_state=True)
    assert blind_h.edges == h.edges
    assert (blind.iterations, blind.updates_a, blind.updates_b, blind.evaluations) == (
        state.iterations, state.updates_a, state.updates_b, state.evaluations)


def test_evaluations_count_every_row_evaluated(monkeypatch):
    # construction evaluates nothing, so the counter holds every evaluation
    evaluated = []
    orig = Candidates._evaluate

    def spy(self, rows):
        evaluated.append(len(rows))
        orig(self, rows)

    monkeypatch.setattr(Candidates, "_evaluate", spy)
    g, _ = sample_instance(ModelParams(n=300, lam=0.4, delta=0.8), rng_for(23))
    _, state = recover(g, return_state=True)
    assert state.evaluations > 0
    assert sum(evaluated) == state.evaluations


def test_row_dirtied_behind_the_cursor_is_current_for_b():
    # A skips the open path (3, 0, 4) (two new endpoints), then applies the
    # triangle, which gives vertex 0 degree 2: the path, behind A's cursor,
    # is left pending.  Read stale, it is B's best (gain 2); current, it
    # would give vertex 0 degree 4, so B takes the edge (5, 6)
    walks = ((5, 6), (3, 0, 4), (0, 1, 2, 0))
    cands = _candidates(7, *walks)
    state = RecoveryState(h=cands.h)
    assert subroutine_a(state, cands)
    assert state.h.edges == {(0, 1), (1, 2), (0, 2)}
    assert cands.pending[1] and cands.feasible[1] and cands.gain[1] == 2
    ref = RecoveryState(h=DegreeBoundedSubgraph(7))
    ref.h.xor_edges(state.h.edges)
    edge_tuples = [canonical_trail(w, closed=w[0] == w[-1]).edges for w in walks]
    assert subroutine_b(state, cands, quota=1) == reference_subroutine_b(ref, edge_tuples, 1)
    assert state.h.edges == ref.h.edges == {(0, 1), (1, 2), (0, 2), (5, 6)}


def test_returned_h_does_not_pin_the_candidate_rows(monkeypatch):
    # the kept H holds the step and degree arrays, not the table or its rows
    refs = []

    class Recorded(Candidates):
        def __init__(self, trails):
            super().__init__(trails)
            refs.extend((weakref.ref(self), weakref.ref(self.verts)))

    monkeypatch.setattr(recovery, "Candidates", Recorded)
    g, _ = sample_instance(ModelParams(n=80, lam=0.4, delta=0.8), rng_for(72))
    h = recover(g)
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    assert h.edges == reference_recover(g, default_max_len(g.n), default_quota(g.n)).h.edges


def test_recover_leaves_the_adjacency_unbuilt():
    # the estimator reads only g.n and g.edges; the first walk builds g.adj
    g, _ = sample_instance(ModelParams(n=80, lam=0.4, delta=0.8), rng_for(73))
    h = recover(g)
    assert g._adj is None
    assert h.edges == reference_recover(g, default_max_len(g.n), default_quota(g.n)).h.edges
    assert g._adj is None
    count_ab_trails(g, 1, 1, 0)
    assert g._adj is not None


def test_recover_leaves_no_cyclic_garbage():
    g, _ = sample_instance(ModelParams(n=300, lam=0.4, delta=1.0), rng_for(21))
    assert cyclic_garbage(lambda: recover(g)) == 0


def bowtie():
    """Two triangles sharing vertex 0: the closed trail through all six
    edges is a figure-eight."""
    return ColoredGraph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)], [(0, 1), (1, 2), (0, 2)])


@st.composite
def small_instances(draw):
    """A small graph whose red edges are one cycle on a proper subset of
    the vertices (delta < 1), plus random blue pairs."""
    n = draw(st.integers(5, 9))
    order = draw(st.permutations(range(n)))
    cycle = order[:draw(st.integers(3, n - 1))]
    planted = {edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    blue = draw(st.lists(st.sampled_from(pairs), max_size=9))
    return ColoredGraph(n, set(blue) | planted, planted)


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.integers(3, 7), st.integers(1, 3))
@example(bowtie(), 7, 1)
def test_array_greedy_matches_scalar_reference(g, max_len, quota):
    # max_len 7 admits the six-edge figure-eights; shorter closed trails are cycles
    h, state = recover(g, max_len=max_len, quota=quota, return_state=True)
    ref = reference_recover(g, max_len, quota)
    assert h.edges == ref.h.edges
    assert (state.iterations, state.updates_a, state.updates_b) == (
        ref.iterations, ref.updates_a, ref.updates_b)


def _edit(candidates, new, ref, target):
    """Set both states' H to the edge set `target`: the array greedy's
    through `candidates.toggle`, its one writer, the reference's directly."""
    toggled = target ^ new.h.edges
    ids = [candidates.edges.index(e) for e in sorted(toggled)]
    candidates.toggle(np.array(ids, dtype=np.intp))
    ref.h.xor_edges(toggled)


def _full_evaluation(candidates):
    """(gain, feasible, deg1 where feasible, qual) of every row evaluated
    afresh by `_evaluate`; the table's own arrays are left as they were."""
    c = candidates
    kept = [a.copy() for a in (c.gain, c.feasible, c.deg1, c.qual)]
    c._evaluate(np.arange(len(c.gain)))
    fresh = [a.copy() for a in (c.gain, c.feasible, c.deg1, c.qual)]
    c.gain, c.feasible, c.deg1, c.qual = kept
    return fresh


def _flushed(candidates):
    """A copy of the table whose pending rows `flush` has evaluated; the
    table itself keeps them pending."""
    c = copy.copy(candidates)
    c.gain, c.feasible, c.deg1, c.qual, c.pending = (
        a.copy() for a in (c.gain, c.feasible, c.deg1, c.qual, c.pending))
    c.flush()
    return c


def _assert_current(candidates):
    """Every row that is not pending holds what a fresh evaluation of all
    rows against H gives (`deg1` where feasible), and after `flush()`
    every row does.  The flush is made on a copy, so the subroutines
    still find the pending rows."""
    gain, feasible, deg1, qual = _full_evaluation(candidates)
    flushed = _flushed(candidates)
    assert not flushed.pending.any()
    for c in (candidates, flushed):
        now = ~c.pending
        assert np.array_equal(c.gain[now], gain[now]) and np.array_equal(c.qual[now], qual[now])
        assert np.array_equal(c.feasible[now], feasible[now])
        assert np.array_equal(c.deg1[now & feasible], deg1[now & feasible])


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.integers(3, 6), st.integers(1, 3), st.data())
def test_subroutines_match_reference_from_any_start(g, max_len, quota, data):
    # a degree-<=2 start H set through `toggle` before the first call, and
    # edited again between calls
    def random_h():
        h = DegreeBoundedSubgraph(g.n)
        for e in data.draw(st.lists(st.sampled_from(sorted(g.edges)), unique=True)):
            if h.degree[e[0]] < 2 and h.degree[e[1]] < 2:
                h.xor_edges([e])
        return h

    ref = RecoveryState(h=DegreeBoundedSubgraph(g.n))
    candidates = Candidates(enumerate_trails(g, max_len))
    new = RecoveryState(h=candidates.h)
    edge_tuples = [t.edges for t in reference_enumerate_trails(g, max_len)]
    _edit(candidates, new, ref, random_h().edges)
    _assert_current(candidates)
    for step in range(3):
        assert subroutine_a(new, candidates) == reference_subroutine_a(ref, edge_tuples)
        _assert_current(candidates)
        assert subroutine_b(new, candidates, quota) == reference_subroutine_b(ref, edge_tuples, quota)
        _assert_current(candidates)
        assert new.h.edges == ref.h.edges and new.h.degree == ref.h.degree
        assert (new.updates_a, new.updates_b) == (ref.updates_a, ref.updates_b)
        _edit(candidates, new, ref, random_h().edges)
        _assert_current(candidates)


def test_trails_of_128_edges_and_more_match_reference():
    # a ring of 140 with a chord: its trails of 128 to 141 edges put slots
    # past 127 in every row, from the first row of the first block on
    n = 140
    g = ColoredGraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)], ())
    found = [t for t in enumerate_trails(g, n + 1) if t.length >= 128]
    rng = np.random.default_rng(1)
    edges = sorted(g.edges)

    def random_h():
        h = DegreeBoundedSubgraph(n)
        for i in rng.permutation(len(edges))[:rng.integers(len(edges))]:
            if h.degree[edges[i][0]] < 2 and h.degree[edges[i][1]] < 2:
                h.xor_edges([edges[i]])
        return h

    ref = RecoveryState(h=DegreeBoundedSubgraph(n))
    candidates = Candidates(trail_rows(g, found))
    new = RecoveryState(h=candidates.h)
    edge_tuples = [t.edges for t in found]
    _edit(candidates, new, ref, random_h().edges)
    _assert_current(candidates)
    for quota in (1, 2, 3):
        assert subroutine_a(new, candidates) == reference_subroutine_a(ref, edge_tuples)
        _assert_current(candidates)
        assert subroutine_b(new, candidates, quota) == reference_subroutine_b(ref, edge_tuples, quota)
        _assert_current(candidates)
        assert new.h.edges == ref.h.edges and new.h.degree == ref.h.degree
        assert (new.updates_a, new.updates_b) == (ref.updates_a, ref.updates_b)
        _edit(candidates, new, ref, random_h().edges)
        _assert_current(candidates)
    assert new.updates_a + new.updates_b > 0


def test_degree_bounded_subgraph():
    h = DegreeBoundedSubgraph(5)
    h.xor_edges([(0, 1), (1, 2)])
    assert validate_structure(h.edges).deg1_count == 2
    h.xor_edges([(0, 1), (2, 3)])
    assert h.edges == {(1, 2), (2, 3)}
    assert h.degree[0] == 0 and h.degree[2] == 2


def test_candidates_fold_repeated_vertices():
    # the figure-eight visits 0 three times (start, middle, end): one slot
    found = [t for t in enumerate_trails(bowtie(), 7) if t.length == 6]
    assert [t.vertices for t in found] == [(0, 1, 2, 0, 3, 4, 0), (0, 1, 2, 0, 4, 3, 0)]
    rows = trail_rows(bowtie(), found)
    c = Candidates(rows)
    assert np.shares_memory(c.verts, rows.verts)         # the rows are adopted, not copied
    assert c.revisit.all() and c.pending.all()          # 0 is revisited mid-trail
    for r in range(2):
        mine = (c.fold_at >= c.off[r]) & (c.fold_at < c.off[r + 1])
        assert list(c.fold_at[mine] - c.off[r]) == [3, 6]
        assert list(c.fold_to[mine] - c.off[r]) == [0, 0]
    assert list(c.flush()) == [0, 1] and c.evaluations == 2
    assert list(c.gain) == [6, 6]
    assert not c.feasible.any()                          # vertex 0 would get degree 4


def lollipop():
    """A triangle on 0, 1, 2 with the tail 2-3-4: the open trail
    (4, 3, 2, 0, 1, 2) revisits 2, and (1, 0, 2, 1) closes a cycle."""
    return ColoredGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], ())


def ring_with_chord(n=140):
    """A ring of n with the chord (0, n/2): the longest trails have more
    than 128 edges, and those that pass 0 or n/2 twice revisit it."""
    return ColoredGraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)], ())


@st.composite
def dense_graphs(draw):
    """A graph on 4..6 vertices: the triangle on 0, 1, 2 and random
    other pairs, so closed trails always occur and, with most pairs
    present, most of the longer trails revisit a vertex."""
    n = draw(st.integers(4, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    triangle = [(0, 1), (0, 2), (1, 2)]
    chosen = draw(st.lists(st.sampled_from([p for p in pairs if p not in triangle]),
                           min_size=1, unique=True))
    return ColoredGraph(n, triangle + chosen, ())


def _revisits_mid_trail(t):
    """Whether the trail revisits a vertex other than a closed trail's start."""
    return len(set(t.vertices)) < len(t.vertices) - t.closed


@settings(max_examples=60, deadline=None)
@given(dense_graphs(), st.integers(3, 7))
@example(bowtie(), 7)
@example(lollipop(), 6)
def test_construction_matches_a_full_evaluation(g, max_len):
    # H is empty: the closed form (paths and simple cycles) agrees with
    # `_evaluate` over every row; the other rows start pending, and once
    # flushed every row agrees with it and with the scalar reference
    c = Candidates(enumerate_trails(g, max_len))
    found = reference_enumerate_trails(g, max_len)
    assert c.evaluations == 0
    assert c.pending.tolist() == [_revisits_mid_trail(t) for t in found]
    _assert_current(c)
    c.flush()
    empty = DegreeBoundedSubgraph(g.n)
    for r, t in enumerate(found):
        want_gain, want_feasible, want_deg1 = reference_evaluate(empty, t.edges)
        assert (c.gain[r], c.feasible[r]) == (want_gain, want_feasible)
        assert not want_feasible or c.deg1[r] == want_deg1
        assert c.qual[r] == (want_gain > 0 and want_feasible and want_deg1 <= 0)


def test_construction_of_rows_of_128_edges_and_more_matches_a_full_evaluation():
    # the widths hold 129 occurrences and more; open trails that pass the
    # chord's ends twice start pending, the closed ones take the closed form
    g = ring_with_chord()
    found = [t for t in enumerate_trails(g, g.n + 2) if t.length >= 128]
    c = Candidates(trail_rows(g, found))
    assert c.width.max() == 142 and c.revisit.any() and not c.revisit.all()
    assert c.pending.tolist() == [_revisits_mid_trail(t) for t in found]
    assert c.pending.any() and not c.pending.all()
    _assert_current(c)
    c.flush()
    assert not c.pending.any() and c.evaluations == sum(map(_revisits_mid_trail, found))
    assert list(c.gain) == [t.length for t in found]


@settings(max_examples=40, deadline=None)
@given(dense_graphs(), st.integers(4, 7), st.data())
@example(bowtie(), 7, None)
@example(lollipop(), 6, None)
def test_revisiting_rows_match_reference_after_toggles(g, max_len, data):
    # figure-eights, lollipops and closed trails fold their repeated
    # vertices onto one degree change, against any degree-<=2 H
    c = Candidates(enumerate_trails(g, max_len))
    assert c.revisit.any()
    new = RecoveryState(h=c.h)
    ref = RecoveryState(h=DegreeBoundedSubgraph(g.n))
    edges = sorted(g.edges)
    rows = [t.edges for t in reference_enumerate_trails(g, max_len)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)) if data else 0)
    for _ in range(4):
        target = DegreeBoundedSubgraph(g.n)
        for i in rng.permutation(len(edges))[:rng.integers(len(edges) + 1)]:
            if target.degree[edges[i][0]] < 2 and target.degree[edges[i][1]] < 2:
                target.xor_edges([edges[i]])
        _edit(c, new, ref, target.edges)
        c.flush()
        for r in np.flatnonzero(c.revisit).tolist():
            gain, feasible, deg1 = reference_evaluate(ref.h, rows[r])
            assert (c.gain[r], c.feasible[r]) == (gain, feasible)
            assert not feasible or c.deg1[r] == deg1
            assert c.qual[r] == (gain > 0 and feasible and deg1 <= 0)


def test_empty_toggle_changes_nothing():
    c = Candidates(enumerate_trails(bowtie(), 7))
    c.apply(0)
    step, deg, pending = c._step.copy(), c._deg.copy(), c.pending.copy()
    assert len(c.toggle(np.array([], dtype=np.intp))) == 0
    assert np.array_equal(c._step, step) and np.array_equal(c._deg, deg)
    assert np.array_equal(c.pending, pending)
