import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from plantedcycles import (ColoredGraph, ModelParams, TwoFactor, edge, edge_set,
                           risk, rng_for, sample_instance, sample_single_cycle,
                           sample_two_factor, symmetric_difference, validate_structure)
from plantedcycles import graphcore
from plantedcycles.graphcore import neighbours, paths_and_cycles

from conftest import reference_two_factor_fields, reference_two_factor_support


def small_edge_sets():
    pair = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda t: t[0] != t[1])
    return st.frozensets(pair.map(lambda t: edge(*t)), max_size=15)


def test_edge_canonical():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_symmetric_difference_examples():
    e1, e2 = (0, 1), (1, 2)
    assert symmetric_difference([e1], [e1, e2]) == {e2}
    assert symmetric_difference([e1, e2], [e1, e2]) == frozenset()


@given(small_edge_sets(), small_edge_sets(), small_edge_sets())
def test_symmetric_difference_properties(a, b, c):
    assert symmetric_difference(a, b) == symmetric_difference(b, a)
    assert symmetric_difference(symmetric_difference(a, b), c) == \
        symmetric_difference(a, symmetric_difference(b, c))
    assert symmetric_difference(a, a) == frozenset()
    assert len(symmetric_difference(a, b)) == len(a) + len(b) - 2 * len(a & b)


def test_risk_examples():
    h = TwoFactor(edge_set([(0, 1), (1, 2), (0, 2)]))
    assert risk(h, h.edges) == 0.0
    assert risk(h, frozenset()) == 1.0
    ten = TwoFactor(edge_set((i, (i + 1) % 10) for i in range(10)))
    h_hat = set(ten.edges)
    h_hat.remove((0, 1))
    h_hat.remove((1, 2))
    h_hat |= {(0, 2), (5, 7)}
    assert risk(ten, h_hat) == pytest.approx(0.4)


def test_risk_zero_iff_equal(rng):
    h = TwoFactor(edge_set([(0, 1), (1, 2), (0, 2)]))
    assert risk(h, [(0, 1), (1, 2), (0, 2)]) == 0
    assert risk(h, [(0, 1), (1, 2), (1, 3)]) > 0
    with pytest.raises(ValueError):
        risk(TwoFactor(frozenset()), [(0, 1)])


def test_two_factor_invariants():
    tf = TwoFactor(edge_set((i, (i + 1) % 5) for i in range(5)))
    assert len(tf.edges) == len(tf.support)
    assert [len(c) for c in tf.cycles()] == [5]
    with pytest.raises(ValueError):
        TwoFactor(edge_set([(0, 1), (1, 2)]))


# vertex ids other than ints, each map keeping the order: v / 2 would merge
# 2k and 2k+1 if an id were truncated to an int, and 2**64 + v would wrap.
# Only the int and numpy integer maps within int64 meet the integer rule
ID_MAPS = (lambda v: v, lambda v: v / 2, lambda v: v if v % 2 else v / 2, lambda v: v - 12,
           lambda v: 2 ** 64 + v, np.int64, lambda v: f"v{v:02d}")


@st.composite
def two_factor_candidates(draw):
    """Edge sets on at most 12 vertices: cycles of length >= 3 on a
    random order, then maybe edges dropped (degree 1), random pairs added
    (degree 3, self-loops and u > v) and one edge turned round, each
    vertex id mapped by one of ID_MAPS."""
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(n)))
    edges, start = set(), 0
    while n - start >= 3 and (start == 0 or draw(st.booleans())):
        k = draw(st.integers(3, n - start))
        cyc = order[start:start + k]
        edges |= {edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        start += k
    edges = sorted(edges)
    if draw(st.booleans()):
        for _ in range(draw(st.integers(0, 2))):
            if edges:
                edges.pop(draw(st.integers(0, len(edges) - 1)))
        if n:
            edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2))
        if edges and draw(st.booleans()):
            u, v = edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges.append((v, u))
    ids = draw(st.sampled_from(ID_MAPS))
    return frozenset((ids(u), ids(v)) for u, v in edges)


def check_outcome(check, edges):
    try:
        return "accepted", check(edges)
    except ValueError as exc:
        return "rejected", str(exc)


def is_vertex_id(v) -> bool:
    """The integer rule: an int or a numpy integer, not a bool, in int64."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and -2 ** 63 <= v < 2 ** 63


# the message that names an edge with an end outside the integer rule
NOT_AN_ID = r"edge \(.+,.+\) (has an end that is not an integer|does not fit an array of int64 values)"


@given(two_factor_candidates())
@example(frozenset())
@example(frozenset({(0.5, 1), (1, 1.5), (0.5, 1.5)}))          # 1.5 is not 1
@example(frozenset({(2 ** 64, 2 ** 64 + 1), (2 ** 64 + 1, 2 ** 64 + 2), (2 ** 64, 2 ** 64 + 2)}))
def test_two_factor_check_matches_the_neighbour_list_reference(edges):
    got = check_outcome(lambda e: TwoFactor(e).support, edges)
    if not all(is_vertex_id(v) for e in edges for v in e):
        # an id outside the integer rule is rejected before any other check
        assert got[0] == "rejected" and re.fullmatch(NOT_AN_ID, got[1])
        return
    # numpy ids enter as ints, and a message names them so
    assert got == check_outcome(reference_two_factor_support,
                                frozenset((int(u), int(v)) for u, v in edges))
    if got[0] == "accepted":
        # the ids as given: a truncated float or a wrapped int is not one
        assert got[1] == {v for e in edges for v in e}


# the supports the samplers take: a list of ints, numpy integers, integer arrays
SUPPORT_KINDS = (list, lambda s: [np.int32(v) for v in s], np.array,
                 lambda s: np.array(s, dtype=np.uint16))


@given(st.lists(st.integers(0, 60), min_size=3, max_size=30, unique=True),
       st.sampled_from([sample_two_factor, sample_single_cycle]),
       st.sampled_from(SUPPORT_KINDS), st.integers(0, 2 ** 16))
def test_two_factor_ends_are_its_sorted_edges(support, sample, kind, seed):
    tf = sample(kind(support), rng_for(seed))
    assert tf.ends.dtype == np.int64 and not tf.ends.flags.writeable
    assert list(map(tuple, tf.ends.tolist())) == sorted(tf.edges)
    with pytest.raises(ValueError):
        tf.ends[0, 0] = 0
    # the same cover from its tuples as a set, a list or a generator: every
    # field equal, ends included
    for given in (tf.edges, sorted(tf.edges), (e for e in tf.edges)):
        again = TwoFactor(given)
        assert (again.edges, again.support, again.span) == (tf.edges, tf.support, tf.span)
        assert np.array_equal(again.ends, tf.ends) and not again.ends.flags.writeable
        assert again == tf and hash(again) == hash(tf)
    assert tf.span == (min(support), max(support)) and tf.support == set(support)
    assert all(type(v) is int for e in tf.edges for v in e)


def test_empty_two_factor_has_an_empty_ends_array():
    for tf in (TwoFactor(frozenset()), TwoFactor.from_ends(np.zeros((0, 2), dtype=np.int32))):
        assert tf.edges == frozenset() and tf.support == frozenset() and tf.span is None
        assert tf.ends.shape == (0, 2) and tf.ends.dtype == np.int64
        assert not tf.ends.flags.writeable


class IntId(int):
    """An int subclass: an integer id, but not a plain int."""


@pytest.mark.parametrize("last", [int, np.int64, np.uint8, IntId],
                         ids=["int", "int64", "uint8", "int-subclass"])
@pytest.mark.parametrize("container", [set, frozenset])
def test_two_factor_edges_hold_plain_ints(last, container):
    # the last edge's second id is of type `last`: the edges are read off
    # the int64 rows, so every id in them is a plain int
    given = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, last(5))]
    tf = TwoFactor(container(given))
    assert tf.edges == frozenset((u, v) for u, v in given)
    assert all(type(v) is int for e in tf.edges for v in e)


@pytest.mark.parametrize("edges", [
    {(0.5, 1.5), (1.5, 2.5), (0.5, 2.5)},                    # floats
    {(True, 2), (2, 3), (True, 3)},                          # a bool reads as 1
    {(2 ** 64, 2 ** 64 + 1), (2 ** 64 + 1, 2 ** 64 + 2), (2 ** 64, 2 ** 64 + 2)},
    {("a", "b"), ("b", "c"), ("a", "c")},
])
def test_two_factor_without_integer_ids_has_no_ends(edges):
    # no cover without int64 ends: the ids are rejected, not held as objects
    with pytest.raises(ValueError, match=NOT_AN_ID):
        TwoFactor(frozenset(edges))


@given(two_factor_candidates())
@example(frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}))
def test_from_ends_checks_as_the_edges_do(edges):
    # rows in the set's order: the same outcome and message as TwoFactor(edges)
    # wherever the ids are int64 values, and the same fields where it accepts
    if not all(type(v) is int and -2 ** 63 <= v < 2 ** 63 for e in edges for v in e):
        return
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    got = check_outcome(TwoFactor.from_ends, ends)
    want = check_outcome(TwoFactor, edges)
    assert got[0] == want[0]
    if got[0] == "rejected":
        assert got[1] == want[1]
    else:
        assert (got[1].edges, got[1].support, got[1].span) == \
            (want[1].edges, want[1].support, want[1].span)
        assert np.array_equal(got[1].ends, want[1].ends)


@pytest.mark.parametrize("ends, message", [
    ([[0, 1], [1, 2], [0, 2], [3, 4], [3, 4]], r"edge \(3, 4\) is given twice"),
    ([[0, 1], [0, 1], [2, 3], [2, 3]], r"edge \(0, 1\) is given twice"),
    (np.array([[0, 1], [1, 2], [0, 2]], dtype=float), "array of int64 values"),
    (np.array([[0, 1], [1, 2], [0, 2 ** 63]], dtype=np.uint64), "array of int64 values"),
    (np.array([[True, False]]), "array of int64 values"),
    ([0, 1, 1, 2, 0, 2], "array of int64 values"),
    ([[0, 1, 2], [0, 1, 2]], "array of int64 values"),
])
def test_from_ends_rejects(ends, message):
    with pytest.raises(ValueError, match=message):
        TwoFactor.from_ends(np.array(ends) if isinstance(ends, list) else ends)


def test_from_ends_takes_the_ids_that_the_edges_take():
    # unsigned arrays whose values fit in int64, as TwoFactor(edges) takes
    # unsigned numpy ids: the same cover, field by field
    rows = [[0, 1], [1, 2], [0, 2], [2 ** 63 - 3, 2 ** 63 - 2],
            [2 ** 63 - 2, 2 ** 63 - 1], [2 ** 63 - 3, 2 ** 63 - 1]]
    want = TwoFactor(frozenset(map(tuple, rows)))
    for dtype in (np.uint64, np.int64):
        got = TwoFactor.from_ends(np.array(rows, dtype=dtype))
        assert (got.edges, got.support, got.span) == (want.edges, want.support, want.span)
        assert np.array_equal(got.ends, want.ends)
    got = TwoFactor(frozenset((np.uint64(u), np.uint64(v)) for u, v in rows))
    assert got.span == want.span and np.array_equal(got.ends, want.ends)


@pytest.mark.parametrize("edges", [
    {(0, 1, 1, 2), (0, 2)},                  # four ids in one edge, two in the other
    {(0,), (1, 0, 2), (1, 2)},               # as many ids as three pairs
    {(0, 1), (1, 2), (0, 2), (3,)},
])
def test_two_factor_rejects_an_edge_that_is_not_a_pair(edges):
    with pytest.raises(ValueError):
        reference_two_factor_support(frozenset(edges))
    with pytest.raises(ValueError, match="not a pair"):
        TwoFactor(frozenset(edges))


@pytest.mark.parametrize("red", [
    [(0, 1), (1, 2)],                            # a path: 0 and 2 have degree 1
    [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],   # bowtie: 2 has degree 4
])
def test_two_factor_rejection_names_the_vertex(red):
    bad = [v for v in range(5) if sum(v in e for e in red) not in (0, 2)]
    message = f"degree != 2 at {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TwoFactor(edge_set(red))
    with pytest.raises(ValueError, match=re.escape(message)):
        ColoredGraph(5, [(0, 4)], red)


def test_validate_structure_examples():
    tri = validate_structure([(0, 1), (1, 2), (0, 2)])
    assert tri.valid and tri.deg1_count == 0 and tri.n_cycles == 1
    single = validate_structure([(0, 1)])
    assert single.valid and single.deg1_count == 2 and single.n_paths == 1
    star = validate_structure([(0, 1), (0, 2), (0, 3)])
    assert not star.valid and star.offender == 0


def test_colored_graph_roundtrip(tmp_path):
    g = ColoredGraph(6, [(0, 5), (2, 4)], [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "g.txt"
    g.save(str(path))
    g2 = ColoredGraph.load(str(path))
    assert g2.edges == g.edges and g2.planted == g.planted and g2.n == g.n
    assert g2.dumps() == g.dumps()


def test_colored_graph_red_invariant():
    with pytest.raises(ValueError):
        ColoredGraph(4, [], [(0, 1)])           # red degree 1
    g = ColoredGraph(4, [(0, 1)], [(0, 1), (1, 2), (0, 2)])
    assert g.is_red((0, 1))                     # merged into the red edge
    assert len(g.edges) == 3


@pytest.mark.parametrize("delta", [1.0, 0.6])
def test_colored_graph_from_two_factor_matches_edge_list(delta):
    for seed in range(5):
        g, h_star = sample_instance(ModelParams(n=120, lam=1.0, delta=delta), rng_for(seed))
        assert g.cover is h_star
        g2 = ColoredGraph(g.n, sorted(g.blue_edges), sorted(h_star.edges))
        assert g2.cover == h_star
        assert g2.planted == g.planted
        assert g2.red_support() == g.red_support() == h_star.support
        assert g2.blue_edges == g.blue_edges
        assert g2.adj == g.adj


def test_colored_graph_merges_a_planted_pair_given_twice():
    # as either orientation or as a repeat, a planted pair is one red edge
    g = ColoredGraph(4, [(3, 0), (0, 3)], [(1, 0), (0, 1), (1, 2), (2, 0), (0, 2), (1, 2)])
    assert g.planted == {(0, 1), (1, 2), (0, 2)} and g.blue_edges == {(0, 3)}
    assert g.cover.ends.tolist() == [[0, 1], [0, 2], [1, 2]]


@given(st.integers(3, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=3, max_size=n, unique=True),
    st.integers(0, 2 ** 16), st.randoms(use_true_random=False),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda t: t[0] != t[1]), max_size=20))))
def test_colored_graph_from_planted_pairs_is_the_graph_from_their_cover(case):
    # the cover's edges as pairs in either orientation, some given twice in
    # both, in any order: the same rows, colours and text as from the cover
    n, support, seed, rnd, blue = case
    cover = sample_two_factor(support, rng_for(seed))
    pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in cover.ends.tolist()]
    pairs += [p[::-1] if rnd.random() < 0.5 else p for p in pairs if rnd.random() < 0.3]
    rnd.shuffle(pairs)
    got, want = ColoredGraph(n, blue, pairs), ColoredGraph(n, blue, cover)
    assert np.array_equal(got.ends, want.ends) and np.array_equal(got.red, want.red)
    assert got.dumps() == want.dumps() and got.cover == cover
    # one edge left out in every copy: not a 2-factor, named as TwoFactor names it
    gone = edge(*pairs[0])
    broken = [p for p in pairs if edge(*p) != gone]
    outcome = check_outcome(lambda p: ColoredGraph(n, blue, p), broken)
    assert outcome[0] == "rejected"
    assert outcome == check_outcome(TwoFactor, edge_set(broken))


def test_colored_graph_range_checks_planted_pairs_before_their_cover():
    # the keys u*n + v order only pairs in range, so a pair out of range is
    # named before the pairs are checked as a 2-factor
    with pytest.raises(ValueError, match=r"edge \(0,5\) out of range for n=3"):
        ColoredGraph(3, [], [(0, 5), (5, 1)])
    with pytest.raises(ValueError, match=r"degree != 2 at \[0, 1\]"):
        ColoredGraph(3, [], [(0, 2), (2, 1)])


@given(st.sets(st.integers(0, 39), min_size=3, max_size=40), st.integers(0, 2 ** 16),
       st.sampled_from([sample_two_factor, sample_single_cycle]),
       st.randoms(use_true_random=False))
def test_two_factor_builds_each_view_on_its_first_read(support, seed, sample, rnd):
    rows = sample(sorted(support), rng_for(seed)).ends.tolist()
    rnd.shuffle(rows)
    given = np.array(rows, dtype=np.int64)
    tf = TwoFactor.from_ends(given)
    assert vars(tf).keys() == {"ends"}                  # no view built yet
    twin = TwoFactor(frozenset(map(tuple, rows)))
    assert hash(tf) == hash(twin) and tf == twin
    assert np.array_equal(tf.ends, twin.ends)
    # each view equals the one the eager build made, whichever is read first
    fresh = TwoFactor.from_ends(given)
    order = ["edges", "support", "span"]
    rnd.shuffle(order)
    want = dict(zip(("edges", "support", "span"), reference_two_factor_fields(given)))
    for name in order:
        assert getattr(fresh, name) == want[name]
        assert getattr(fresh, name) is getattr(fresh, name)
    assert fresh == twin and hash(fresh) == hash(twin)
    # rows turned round or given twice: the messages the eager check gave
    flipped = [[v, u] if rnd.random() < 0.3 else [u, v] for u, v in rows]
    doubled = rows + [rows[rnd.randrange(len(rows))]]
    for bad in (flipped, doubled):
        if bad != rows:
            assert check_outcome(TwoFactor.from_ends, np.array(bad)) == check_outcome(
                reference_two_factor_support, [tuple(r) for r in bad])


def test_a_loaded_graph_holds_its_rows_alone():
    # 17 B per edge of rows and colours, 16 B per cover edge for the cover's
    # rows, and no set until a view is read
    g, _ = sample_instance(ModelParams(n=2000, lam=1.0, delta=1.0), rng_for(7))
    text = g.dumps()
    ColoredGraph.loads(text)                           # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = ColoredGraph.loads(text)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 48 * len(loaded.ends)
    assert vars(loaded.cover).keys() == {"ends"}
    assert loaded.edges == g.edges and loaded.planted == g.planted


@pytest.mark.parametrize("red", [
    [(0, 1), (1, 2), (2, 0)],                # (2, 0) is not stored as u < v
    [(0, 1), (1, 2), (0, 2), (3, 3)],        # a self-loop gives 3 degree 2
    [(0, 1), (1, 0)],                        # a 2-cycle: one pair stored both ways
])
def test_colored_graph_range_checks_a_given_two_factor(red):
    # degree 2 everywhere, so only TwoFactor's u < v rule rejects these
    with pytest.raises(ValueError, match="u < v"):
        TwoFactor(frozenset(red))


def test_colored_graph_range_checks_every_edge():
    triangle = [(0, 1), (1, 2), (0, 2)]
    for n, blue, red in ((3, [(0, 3)], ()), (3, [(-1, 0)], ()), (2, [], triangle),
                         (2, [], TwoFactor(frozenset(triangle))),
                         (3, [], [(-1, 0), (0, 1), (-1, 1)])):
        with pytest.raises(ValueError, match="out of range"):
            ColoredGraph(n, blue, red)
    # one bad edge in each colour class: the planted one is named, though
    # the blue one sorts first
    with pytest.raises(ValueError, match=r"edge \(1,4\) out of range for n=4"):
        ColoredGraph(4, [(0, 9)], [(1, 2), (2, 4), (1, 4)])


@pytest.mark.parametrize("blue, planted, named", [
    ([(0, 1.5)], (), r"\(0,1\.5\)"),
    ([(0, 1), (1.0, 2)], (), r"\(1\.0,2\)"),               # equal to (1, 2), still a float
    ([(False, True)], (), r"\(False,True\)"),
    ([("0", "1")], (), r"\('0','1'\)"),
    ([(0, 9), (0.5, 1)], (), r"\(0\.5,1\)"),                 # out of range and non-integer
    ((), [(0, 1), (1, 2), (0, 2.0)], r"\(0,2\.0\)"),       # equal to the id 2 of (1, 2)
    ((), [(False, 1), (1, 2), (0, 2)], r"\(False,1\)"),     # reads as 0 in an int64 array
    ((), [(0, 1), (1, np.float64(2)), (0, np.float64(2))], r"\(0,np\.float64\(2\.0\)\)"),
])
def test_colored_graph_rejects_an_end_that_is_not_an_integer(blue, planted, named):
    with pytest.raises(ValueError, match=named + " has an end that is not an integer"):
        ColoredGraph(3, blue, planted)
    if planted:
        with pytest.raises(ValueError, match=named):
            ColoredGraph(3, (), TwoFactor(frozenset(planted)))


def test_colored_graph_takes_numpy_integer_ends():
    want = ColoredGraph(4, [(2, 3)], [(0, 1), (1, 2), (0, 2)])
    for dtype in (np.int32, np.uint16, np.uint64):
        ends = np.array([[0, 1], [1, 2], [0, 2], [2, 3]], dtype=dtype)
        g = ColoredGraph(4, [tuple(e) for e in ends[3:]], [tuple(e) for e in ends[:3]])
        assert ColoredGraph.loads(g.dumps()).edges == g.edges == {(0, 1), (1, 2), (0, 2), (2, 3)}
        assert g.cover.span == (0, 2) and g.cover.ends.dtype == np.int64
        assert g.adj == want.adj
    # signed and unsigned numpy ids together promote to float64 in one array:
    # the cover still gets its int64 ends
    g = ColoredGraph(4, [(2, 3)], [(np.int64(0), np.uint64(1)), (np.uint64(1), np.int64(2)), (0, 2)])
    assert g.cover.span == (0, 2) and np.array_equal(g.cover.ends, want.cover.ends)
    assert g.adj == want.adj
    with pytest.raises(ValueError, match=r"edge \(2,4\) out of range for n=4"):
        ColoredGraph(4, [(np.int64(2), np.int64(4))], ())


# where vertex ids enter: each takes ids (a, b, c), meant as the triangle on
# them, and returns what it holds of them
BOUNDARIES = {
    "blue": lambda a, b, c: ColoredGraph(4, [(a, b), (a, c), (b, c)], ()).blue_edges,
    "planted": lambda a, b, c: ColoredGraph(4, (), [(a, b), (a, c), (b, c)]).planted,
    "TwoFactor": lambda a, b, c: TwoFactor(frozenset({(a, b), (a, c), (b, c)})).edges,
    # an array has one dtype: c's
    "from_ends": lambda a, b, c: TwoFactor.from_ends(
        np.array([[a, b], [a, c], [b, c]], dtype=np.asarray(c).dtype)).edges,
    "sample_two_factor": lambda *ids: sample_two_factor(list(ids), rng_for(0)).support,
    "sample_single_cycle": lambda *ids: sample_single_cycle(list(ids), rng_for(0)).support,
}
# what a rejection names: the edge, or for a support the vertex; from_ends
# names the array when its dtype is not an integer one
NAMED = {"from_ends": r"array of int64 values", "sample_two_factor": r"vertex id ",
         "sample_single_cycle": r"vertex id "}
INTEGERS = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
ACCEPTED = [tuple(t(v) for v in (0, 1, 2)) for t in INTEGERS] + [
    (np.int8(0), np.uint64(1), 2), (np.int64(0), np.uint8(1), np.uint64(2))]   # mixed signedness
REJECTED = (True, np.True_, 2.0, np.float64(2), "2", 2 ** 63, -2 ** 63 - 1)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_every_boundary_takes_ids_by_the_one_integer_rule(boundary):
    take = BOUNDARIES[boundary]
    for ids in ACCEPTED:
        held = take(*ids)
        assert {v for e in held for v in (e if isinstance(e, tuple) else (e,))} == {0, 1, 2}
        assert all(type(v) is int for e in held for v in (e if isinstance(e, tuple) else (e,)))
    for bad in REJECTED:
        # 0 and 3 are ids; `bad` is no id, though True, 2.0 and "2" would
        # read as one
        with pytest.raises(ValueError, match=NAMED.get(boundary, r"edge \(")):
            take(0, 3, bad)


def test_the_integer_rule_takes_the_int64_range():
    ends = (-2 ** 63, 0, 2 ** 63 - 1)
    tf = TwoFactor(frozenset({(ends[0], ends[1]), (ends[0], ends[2]), (ends[1], ends[2])}))
    assert tf.span == (ends[0], ends[2]) and tf.ends.dtype == np.int64
    assert sample_two_factor(list(ends), rng_for(0)).support == set(ends)
    assert sample_two_factor([np.uint64(2 ** 63 - 1), 0, 1], rng_for(0)).span == (0, 2 ** 63 - 1)


@pytest.mark.parametrize("n", [3.5, -1, True, "3", np.float64(3), 2 ** 25 + 1])
def test_colored_graph_takes_n_by_the_integer_rule(n):
    # such an n once built a graph that failed only on its first walk
    with pytest.raises(ValueError, match=r"n="):
        ColoredGraph(n, [(0, 1)], [])
    g = ColoredGraph(np.int64(3), [(0, 1)], [])
    assert type(g.n) is int and g.n == 3 and g.adj[0].tolist() == [0, 1, 2, 2]


def test_colored_graph_adjacency_is_the_csr_of_its_sorted_edges():
    g = ColoredGraph(7, [(3, 6), (0, 3), (1, 3), (2, 3), (3, 5), (0, 4)],
                     [(3, 4), (0, 3), (0, 4), (1, 6), (1, 5), (5, 6)])
    edges = sorted(g.edges)
    ptr, nbr, eid = (a.tolist() for a in graphcore.csr(g.n, np.array(edges)))
    assert all(isinstance(a, memoryview) for a in g.adj)
    assert tuple(a.tolist() for a in g.adj) == (ptr, nbr, eid, [edges[i] in g.planted for i in eid])
    ptr, nbr, eid, red = g.adj
    at = slice(ptr[3], ptr[4])
    assert nbr[at].tolist() == [0, 1, 2, 4, 5, 6]        # ascending, whatever the colour
    assert red[at].tolist() == [True, False, False, True, False, False]
    assert red[ptr[0]:ptr[1]].tolist() == [True, True]  # (0, 3) and (0, 4) merged into red
    assert [edges[i] for i in eid[at]] == [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6)]


def test_colored_graph_walk_order_carries_no_colour():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 4), (1, 3)]
    a = ColoredGraph(5, edges, [(0, 1), (1, 2), (0, 2)])
    b = ColoredGraph(5, edges, [(2, 3), (3, 4), (2, 4)])
    assert a.edges == b.edges and a.planted != b.planted
    assert a.adj[:3] == b.adj[:3]                        # ptr, nbr and eid
    assert a.adj[3] != b.adj[3]


def assert_rows_and_colours(g: ColoredGraph) -> None:
    """`ends` is sorted(edges), `red` marks exactly the planted edges, and
    `dumps` is the text format written from the sets: the sorted edges,
    each tested against `planted`."""
    edges = sorted(g.edges)
    assert g.ends.dtype == np.int64 and g.ends.shape == (len(edges), 2)
    assert list(map(tuple, g.ends.tolist())) == edges
    assert g.red.dtype == bool and g.red.tolist() == [e in g.planted for e in edges]
    assert not (g.ends.flags.writeable or g.red.flags.writeable)
    assert g.blue_edges == g.edges - g.planted
    want = "".join([f"{g.n} {len(edges)}\n"] + [
        f"{u} {v} {'R' if (u, v) in g.planted else 'B'}\n" for u, v in edges])
    assert g.dumps() == want
    assert ColoredGraph.loads(want).dumps() == want


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("n, blue, planted", [
    (0, [], []),                                            # no vertex, no edge
    (3, [], []),                                            # no edge
    (5, [(3, 4), (0, 4), (1, 3)], []),                      # only blue
    (3, [], TRIANGLE),                                      # only planted
    (6, [], [(3, 4), (4, 5), (3, 5)] + TRIANGLE),
    (5, [(3, 4), (4, 3), (0, 4), (0, 4)], TRIANGLE),        # blue pairs twice or reversed
    (5, [(1, 0), (0, 2), (2, 1), (3, 4)], TRIANGLE),        # blue pairs on planted edges
    (5, [(2, 1), (4, 0), (1, 2), (0, 3)], TRIANGLE),
])
def test_colored_graph_rows_and_colours(n, blue, planted):
    g = ColoredGraph(n, blue, planted)
    assert_rows_and_colours(g)
    assert_rows_and_colours(ColoredGraph.loads(g.dumps()))
    assert_rows_and_colours(ColoredGraph(n, blue, g.cover))


@given(st.integers(3, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(3, n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda t: t[0] != t[1]), max_size=30))))
def test_colored_graph_rows_and_colours_on_small_graphs(case):
    # one planted cycle through order[:k], and blue pairs that may repeat,
    # come reversed or lie on it
    n, order, k, blue = case
    g = ColoredGraph(n, blue, [(order[i], order[(i + 1) % k]) for i in range(k)])
    assert_rows_and_colours(g)
    assert g.edges == g.planted | edge_set(blue)
    assert_rows_and_colours(ColoredGraph.loads(g.dumps()))


def test_loads_bounds_the_header_vertex_count(monkeypatch):
    monkeypatch.setattr(graphcore, "MAX_LOADED_N", 10)
    assert ColoredGraph.loads("10 1\n0 9 B\n").n == 10
    for text in ("11 0\n", "-1 0\n"):
        with pytest.raises(ValueError, match="header n="):
            ColoredGraph.loads(text)


def test_paths_and_cycles_order():
    assert paths_and_cycles(neighbours([(7, 3)])) == [([3, 7], False)]
    assert paths_and_cycles(neighbours([(5, 9), (2, 9)])) == [([2, 9, 5], False)]
    assert paths_and_cycles(neighbours([(4, 6), (1, 6), (1, 4)])) == [([1, 4, 6], True)]
    # paths before cycles, each family ordered by its start node
    mixed = [(9, 13), (0, 13), (0, 9), (5, 12), (2, 5),
             (1, 11), (3, 11), (3, 8), (1, 8), (4, 6)]
    assert paths_and_cycles(neighbours(mixed)) == [
        ([2, 5, 12], False), ([4, 6], False), ([0, 9, 13], True), ([1, 8, 3, 11], True)]


def test_loads_rejects_duplicate_and_out_of_order_lines():
    good = "4 3\n0 1 B\n0 2 B\n1 3 B\n"
    assert ColoredGraph.loads(good).edges == {(0, 1), (0, 2), (1, 3)}
    with pytest.raises(ValueError, match="duplicate or out of order"):
        ColoredGraph.loads("4 3\n0 1 B\n0 1 B\n1 3 B\n")
    with pytest.raises(ValueError, match="duplicate or out of order"):
        ColoredGraph.loads("4 3\n0 2 B\n0 1 B\n1 3 B\n")
    with pytest.raises(ValueError, match="empty graph file"):
        ColoredGraph.loads(" \n\n")


def test_colored_graph_keeps_no_edge_set():
    # the rows are the graph: `edges` and `blue_edges` are built from them on
    # each read and not kept; the cover's views are built once and kept
    g = ColoredGraph(6, [(0, 5), (2, 4), (0, 1)], [(0, 1), (1, 2), (0, 2)])
    assert g.blue_edges == {(0, 5), (2, 4)}
    assert g.edges == {(0, 1), (1, 2), (0, 2), (0, 5), (2, 4)}
    assert g.red_support() == {0, 1, 2}
    assert g.blue_edges is not g.blue_edges and g.edges is not g.edges
    assert g.planted is g.cover.edges and g.red_support() is g.red_support()
    assert not hasattr(g, "__dict__")
    assert set(ColoredGraph.__slots__) == {"n", "cover", "ends", "red", "_adj"}
