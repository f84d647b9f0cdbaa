import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from plantedcycles import (ColoredGraph, ModelParams, TwoFactor,
                           cycle_type_stats, edge, rng_for, sample_instance,
                           sample_single_cycle, sample_two_factor)
from plantedcycles import graphcore, sampler
from plantedcycles.harness import enumerate_two_factors
from plantedcycles.sampler import _accepts, _sample_background_edges

from conftest import complete_graph, reference_background_edges


def cycle_count_stats(samples, m, rng):
    """Histogram of the number of cycles, read off the cycle types."""
    hist = Counter()
    for kind, count in cycle_type_stats(samples, m, rng).items():
        hist[len(kind)] += count
    return hist


def reference_two_factor(support, rng):
    """The rejection sampler written out with explicit cycle lists: the
    oracle that `sample_two_factor` must match draw for draw."""
    support = sorted(int(v) for v in support)
    m = len(support)
    while True:
        perm = rng.permutation(m)
        seen = [False] * m
        cycles = []
        for i in range(m):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = perm[j]
            cycles.append(cyc)
        if min(len(c) for c in cycles) < 3:
            continue
        if len(cycles) > 1 and rng.random() >= 2.0 ** (1 - len(cycles)):
            continue
        return TwoFactor(frozenset(edge(support[a], support[b])
                                   for cyc in cycles
                                   for a, b in zip(cyc, cyc[1:] + cyc[:1])))


@pytest.mark.parametrize("m,seeds", [(m, 40) for m in range(3, 13)]
                         # both sides of each power of two that ends the doubling
                         + [(m, 40) for m in (15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129)]
                         + [(200, 15), (1000, 4), (2000, 3)])
def test_two_factor_matches_reference(m, seeds):
    for s in range(seeds):
        support = sorted(rng_for(60, m, s).choice(3 * m, size=m, replace=False).tolist())
        fast, slow = rng_for(61, m, s), rng_for(61, m, s)
        assert sample_two_factor(support, fast) == reference_two_factor(support, slow)
        assert fast.random() == slow.random()          # same draws consumed


def reference_cycle_count(perm) -> int:
    """Cycles of a permutation, walked one at a time."""
    seen = [False] * len(perm)
    c = 0
    for i in range(len(perm)):
        if not seen[i]:
            c += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return c


def reference_accepts(perm, rng) -> bool:
    """The rejection test on a full cycle count: reject a fixed point or a
    2-cycle, then keep c cycles with probability 2**(1-c), drawing u once
    the count is known and only when c > 1."""
    perm = list(perm)
    if any(perm[perm[i]] == i for i in range(len(perm))):
        return False
    c = reference_cycle_count(perm)
    return c == 1 or rng.random() < 2.0 ** (1 - c)


class StubGenerator:
    """Hands out the given permutations and uniforms in turn, and counts
    the `random()` calls."""

    def __init__(self, perms=(), uniforms=()):
        self.perms, self.uniforms, self.draws = list(perms), list(uniforms), 0

    def permutation(self, m):
        return self.perms.pop(0)

    def random(self):
        self.draws += 1
        return self.uniforms.pop(0)


def cycles_permutation(lengths, rng) -> np.ndarray:
    """A permutation of range(sum(lengths)) with cycles of these lengths,
    on shuffled indices."""
    order = rng.permutation(sum(lengths))
    perm = np.empty_like(order)
    lo = 0
    for k in lengths:
        cycle = order[lo:lo + k]
        perm[cycle] = np.roll(cycle, -1)
        lo += k
    return perm


@pytest.mark.parametrize("m", [*range(1, 18), 31, 32, 33, 63, 64, 65, 1000, 2000])
def test_cycle_count_matches_reference(m):
    # sizes on both sides of each power of two that ends the doubling; u
    # just below and at 2**(1-c) pins the c that _accepts decides on, and
    # a lower bound on c above it would reject the first u early
    rng = rng_for(63, m)
    one_cycle = np.roll(np.arange(m), 1)         # needs every doubling round
    perms = [np.arange(m), one_cycle, *(rng.permutation(m) for _ in range(200))]
    for _ in range(100 if m >= 6 else 0):        # no cycle shorter than 3
        small = rng.integers(3, 8, size=int(rng.integers(1, m // 3 + 1))).tolist()
        while sum(small) > m - 3:
            small.pop()
        perms.append(cycles_permutation([*small, m - sum(small)], rng))
    index = np.arange(m)
    for perm in perms:
        c = reference_cycle_count(perm.tolist())
        for u in (np.nextafter(2.0 ** (1 - c), 0), 2.0 ** (1 - c)):
            got, want = StubGenerator(uniforms=[u]), StubGenerator(uniforms=[u])
            assert _accepts(perm, index, got) == reference_accepts(perm, want)
            assert got.draws == want.draws
    assert _accepts(one_cycle, index, StubGenerator()) == (m >= 3)


def test_two_factor_stub_draws_like_the_reference():
    # a 3-cycle beside a 61-cycle is rejected at reach 4, after one u; a
    # single 64-cycle is kept without one
    m = 64
    early = np.roll(np.arange(m), 1)
    early[[0, 1, 2]] = [1, 2, 0]
    early[3] = m - 1
    single = np.roll(np.arange(m), -1)
    assert reference_cycle_count(early.tolist()) == 2
    for perms, draws in (([single], 0), ([early, single], 1), ([early, early, single], 2)):
        fast = StubGenerator(perms, [0.75] * draws)
        slow = StubGenerator(perms, [0.75] * draws)
        assert sample_two_factor(range(m), fast) == reference_two_factor(range(m), slow)
        assert fast.draws == slow.draws == draws


@pytest.mark.parametrize("n,density", [(n, d) for n in (2, 3, 7, 50, 2000, 50_000)
                                       for d in ("empty", "sparse", "complete")
                                       if d != "complete" or n <= 50])
def test_background_edges_match_reference(n, density):
    # "complete" takes every pair, so the index stream runs to several chunks
    p = {"empty": 0.0, "sparse": 0.8 / n, "complete": 1.0}[density]
    for s in range(6 if n <= 2000 else 2):
        fast, slow = rng_for(62, n, s), rng_for(62, n, s)
        got = _sample_background_edges(n, p, fast)
        assert got.dtype == np.int64 and got.shape == (len(got), 2)
        pairs = set(map(tuple, got.tolist()))
        assert pairs == reference_background_edges(n, p, slow)
        assert len(pairs) == len(got)                  # no row given twice
        assert (got[:, 0] < got[:, 1]).all()
        assert fast.random() == slow.random()          # same draws consumed
        if density == "complete":
            assert len(got) == n * (n - 1) // 2
        elif density == "empty":
            assert len(got) == 0


def test_triangle_support():
    # ints and numpy integers, in a list or an integer array
    for support in ([4, 7, 9], [np.int32(4), 7, np.uint8(9)], np.array([9, 4, 7], dtype=np.uint16)):
        for sample in (sample_two_factor, sample_single_cycle):
            assert sample(support, rng_for(0)).edges == {(4, 7), (4, 9), (7, 9)}
    with pytest.raises(ValueError):
        sample_two_factor([0, 1], rng_for(0))


@pytest.mark.parametrize("sample", [sample_two_factor, sample_single_cycle])
@pytest.mark.parametrize("support, bad", [([0.5, 1.5, 2.5, 3.5], "0.5 (float)"),
                                          ([10.9, 11.9, 12.9], "10.9 (float)"),
                                          ([True, 5, 7], "True (bool)"),
                                          (np.array([1.0, 2.0, 3.0]), "1.0 (float64)"),
                                          (np.array([True, False, True]), "True (bool)")])
def test_samplers_reject_ids_that_are_not_integers(sample, support, bad):
    # a cast to int64 would truncate them to a support of other vertices
    with pytest.raises(ValueError, match=rf"vertex id {re.escape(bad)} is not an integer"):
        sample(support, rng_for(1))


@pytest.mark.parametrize("n", [10.5, np.float64(10), True, "10", -10])
def test_params_take_n_by_the_integer_rule(n):
    # such an n once passed, and failed only inside rng.choice
    with pytest.raises(ValueError, match=r"n="):
        ModelParams(n=n, lam=0.5, delta=1.0)
    assert type(ModelParams(n=np.int32(10), lam=0.5, delta=1.0).n) is int


def test_two_factor_always_valid(rng):
    for _ in range(50):
        m = int(rng.integers(3, 12))
        tf = sample_two_factor(range(m), rng)
        assert len(tf.support) == m
        assert all(len(c) >= 3 for c in tf.cycles())


def test_uniformity_per_labeled_two_factor():
    # chi-square over all 70 labeled 2-factors on 6 vertices
    factors = enumerate_two_factors(complete_graph(6), 6)
    assert len(factors) == 70
    index = {f.edges: i for i, f in enumerate(factors)}
    rng = rng_for(100)
    n_draws = 35000
    counts = np.zeros(len(factors))
    for _ in range(n_draws):
        counts[index[sample_two_factor(range(6), rng).edges]] += 1
    expected = n_draws / len(factors)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert stats.chi2.sf(chi2, df=len(factors) - 1) > 1e-3


def test_single_cycle_variant(rng):
    tf = sample_single_cycle(range(8), rng)
    assert len(tf.cycles()) == 1 and len(tf.support) == 8


def test_single_cycle_lower_bound():
    # a uniform cover on m vertices is a single cycle w.p. >= 1/m
    rng = rng_for(4)
    hist = cycle_count_stats(4000, 8, rng)
    frac = hist[1] / sum(hist.values())
    assert frac >= 1 / 8


def test_cycle_count_bounds():
    hist = cycle_count_stats(300, 3, rng_for(1))
    assert hist == {1: 300}
    hist8 = cycle_count_stats(5000, 8, rng_for(2))
    total = sum(hist8.values())
    for ell in (1, 2):
        emp = sum(v for k, v in hist8.items() if k <= ell) / total
        assert emp >= 1 / (1 + 8 * 2 ** -ell)


def test_instance_lambda_small():
    # background probability ~0: the observation is exactly the planted cover
    params = ModelParams(n=40, lam=1e-9, delta=1.0)
    g, h_star = sample_instance(params, rng_for(3))
    assert g.edges == h_star.edges == g.planted


def test_instance_delta_one_support():
    params = ModelParams(n=30, lam=0.5, delta=1.0)
    g, h_star = sample_instance(params, rng_for(5))
    assert h_star.support == frozenset(range(30))


def test_instance_blue_mean():
    params = ModelParams(n=400, lam=0.5, delta=0.5)
    counts = [len(sample_instance(params, rng_for(6, 0, t))[0].blue_edges)
              for t in range(200)]
    npairs = 400 * 399 // 2
    expected = (npairs - 200) * 0.5 / 400
    se = np.std(counts) / np.sqrt(len(counts))
    assert abs(np.mean(counts) - expected) <= 3 * se


def test_instance_determinism_byte_exact():
    params = ModelParams(n=60, lam=0.4, delta=0.8)
    a, _ = sample_instance(params, rng_for(9, 2, 3))
    b, _ = sample_instance(params, rng_for(9, 2, 3))
    assert a.dumps() == b.dumps()
    c, _ = sample_instance(params, rng_for(9, 2, 4))
    assert c.dumps() != a.dumps()


def test_params_validation(monkeypatch):
    with pytest.raises(ValueError):
        ModelParams(n=10, lam=0.5, delta=0.2)       # floor(delta n) = 2 < 3
    with pytest.raises(ValueError):
        ModelParams(n=10, lam=11, delta=1.0)        # edge probability > 1
    with pytest.raises(ValueError):
        ModelParams(n=10, lam=0.0, delta=1.0)
    with pytest.raises(ValueError, match="must be positive"):
        ModelParams(n=10, lam=float("nan"), delta=1.0)
    # the size bounds, lowered so that no instance near them is ever built
    monkeypatch.setattr(graphcore, "MAX_LOADED_N", 100)
    monkeypatch.setattr(sampler, "MAX_EXPECTED_EDGES", 100)
    ModelParams(n=100, lam=0.01, delta=0.5)
    with pytest.raises(ValueError, match="n=101 above 100"):
        ModelParams(n=101, lam=0.01, delta=0.5)
    ModelParams(n=61, lam=1.0, delta=1.0)               # 61 + 30 expected edges
    with pytest.raises(ValueError, match="expected edge count"):
        ModelParams(n=68, lam=1.0, delta=1.0)           # 68 + 33.5
    with pytest.raises(ValueError, match="expected edge count"):
        ModelParams(n=100, lam=1.5, delta=0.3)          # 30 + 74.25


def test_sample_instance_peaks_under_the_edge_budget():
    # MAX_EXPECTED_EDGES assumes at most 2**10 B per expected edge, so that
    # the largest instance fits in 2 GiB
    assert 2 ** 10 * sampler.MAX_EXPECTED_EDGES <= 2 ** 31
    sample_instance(ModelParams(n=300, lam=1.0, delta=1.0), rng_for(0))   # first-call allocations
    for lam, delta in ((0.1, 1.0), (1.0, 1.0), (4.0, 0.5)):
        params = ModelParams(n=20_000, lam=lam, delta=delta)
        tracemalloc.start()
        try:
            sample_instance(params, rng_for(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 10 * (params.support_size + lam * (params.n - 1) / 2)


def test_cycle_type_stats_m5():
    hist = cycle_type_stats(500, 5, rng_for(8))
    assert set(hist) == {(5,)}


def test_single_cycle_variant_instance():
    params = ModelParams(n=24, lam=0.3, delta=0.75, variant="single-cycle")
    _, h_star = sample_instance(params, rng_for(12))
    assert len(h_star.cycles()) == 1
    assert len(h_star.support) == 18
