import numpy as np
import pytest

from plantedcycles import (TwoFactor, decompose_diff, edge_set, excess,
                           sample_two_factor, validate_structure)
from plantedcycles.graphcore import neighbours

from conftest import (random_degree_bounded_edges, reference_cycles,
                      reference_decompose, reference_structure)


def test_excess_examples():
    assert excess((3, 3), 0.0) == 0.0
    assert excess((0, 4), 0.1) == pytest.approx(2.4)
    assert excess((5, 1), 0.0) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        excess((-1, 2), 0.0)


def fig1_fixture():
    # two 4-cycles sharing one edge: the difference has a (3,3)-circuit
    h_star = TwoFactor(edge_set([(1, 4), (0, 1), (0, 2), (2, 4)]))
    h = edge_set([(0, 4), (0, 3), (2, 3), (2, 4)])
    return h_star, h


def test_identical_cover_empty_decomposition():
    h_star, _ = fig1_fixture()
    dec = decompose_diff(h_star, h_star.edges)
    assert dec.trails == () and dec.open_count == 0


def test_figure_fixture_single_balanced_circuit():
    h_star, h = fig1_fixture()
    dec = decompose_diff(h_star, h)
    assert len(dec.trails) == 1
    assert dec.trails[0].closed
    assert dec.profiles[0] == (3, 3)


def test_single_path_candidate_one_open_trail():
    h_star = TwoFactor(edge_set((i, (i + 1) % 6) for i in range(6)))
    h = edge_set([(0, 1), (1, 2)])           # one path, two degree-1 vertices
    dec = decompose_diff(h_star, h)
    assert dec.open_count == 1


def test_degree_precondition():
    h_star = TwoFactor(edge_set((i, (i + 1) % 5) for i in range(5)))
    with pytest.raises(ValueError):
        decompose_diff(h_star, [(0, 2), (0, 3), (0, 4)])


def test_random_pairs_invariants():
    # the validate() call inside decompose_diff re-checks partition,
    # alternation, degree profile, and open-trail accounting
    rng = np.random.default_rng(2024)
    for trial in range(300):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(3, n + 1))
        support = rng.choice(n, size=k, replace=False)
        h_star = sample_two_factor(support, rng)
        h = random_degree_bounded_edges(rng, n, h_star)
        dec = decompose_diff(h_star, h)
        # balance accounting: sum(a_i - b_i) = |H*| - |H|
        bal = sum(a - b for a, b in dec.profiles)
        assert bal == len(h_star.edges) - len(h)


def test_two_factor_pair_all_closed():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(6, 20))
        h_star = sample_two_factor(range(n), rng)
        h = sample_two_factor(range(n), rng)
        dec = decompose_diff(h_star, h.edges)
        assert dec.open_count == 0
        assert all(t.closed for t in dec.trails)
        # half the difference edges are planted
        assert sum(a for a, _ in dec.profiles) == sum(b for _, b in dec.profiles)


def test_degree_two_readers_match_the_references():
    # decompose_diff, validate_structure and TwoFactor.cycles all read the
    # same paths and cycles; the references walk them the slow way
    rng = np.random.default_rng(606)
    split_degrees = set()
    for trial in range(300):
        n = int(rng.integers(6, 31))
        support = rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False)
        h_star = sample_two_factor(support, rng)
        h = random_degree_bounded_edges(rng, n, h_star)
        dec = decompose_diff(h_star, h)
        assert (dec.trails, dec.profiles, dec.open_count) == reference_decompose(h_star, h)
        for edges in (h, h_star.edges, h ^ h_star.edges):
            assert validate_structure(edges) == reference_structure(edges)
        assert h_star.cycles() == reference_cycles(h_star.edges)
        split_degrees |= {len(ws) for ws in neighbours(h ^ h_star.edges).values()}
    assert {3, 4} <= split_degrees
