"""The benchmark's checks accept the program's real outputs and reject
corrupted ones; the tracer attributes self time and restores what it
wrapped; BENCHMARK.json names exactly the metrics the runner prints."""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from plantedcycles import graphcore, recovery, sampler  # noqa: E402

N = 300
MAX_LEN, QUOTA = workloads.paper_max_len(N), workloads.paper_quota(N)


@pytest.fixture(scope="module")
def recovered():
    """A small instance of the benchmark's generator, the greedy's output,
    and H as it stood at the start of every greedy iteration."""
    text, planted = workloads.planted_instance(N, 1.0, 0.3, workloads.instance_rng(7, 0, 0))
    g = graphcore.ColoredGraph.loads(text)
    starts = []
    real_a = recovery.subroutine_a

    def spy(state, candidates):
        starts.append(set(state.h.edges))
        return real_a(state, candidates)

    recovery.subroutine_a = spy
    try:
        h = recovery.recover(g, max_len=MAX_LEN, quota=QUOTA)
    finally:
        recovery.subroutine_a = real_a
    return g, planted, set(h.edges), starts


def test_recover_checks_accept_the_greedy_output(recovered):
    g, planted, h, starts = recovered
    assert starts[-1] == h                 # the last iteration changed nothing
    checks.check_subgraph(h, g.edges)
    checks.check_guarantees(h, N, len(planted))
    checks.check_stopping_rule(N, g.edges, h, MAX_LEN, QUOTA)
    assert checks.risk(planted, h) <= 0.1


def test_subgraph_check_rejects_an_edge_outside_g(recovered):
    g, _planted, h, _starts = recovered
    missing = next((u, u + 1) for u in range(N - 1) if (u, u + 1) not in g.edges)
    with pytest.raises(checks.CheckError, match="outside G"):
        checks.check_subgraph(h | {missing}, g.edges)


def test_subgraph_check_rejects_a_degree_three_vertex(recovered):
    g, _planted, h, _starts = recovered
    deg = checks.degrees(h)
    extra = next(e for e in g.edges if e not in h and deg[e[0]] == 2)
    with pytest.raises(checks.CheckError, match="degree 3"):
        checks.check_subgraph(h | {extra}, g.edges)


def test_stopping_rule_rejects_h_one_greedy_iteration_early(recovered):
    g, _planted, _h, starts = recovered
    assert len(starts) >= 2
    with pytest.raises(checks.CheckError, match="stopped early"):
        checks.check_stopping_rule(N, g.edges, starts[-2], MAX_LEN, QUOTA)


def test_guarantee_check_rejects_too_many_degree_one_vertices():
    matching = {(2 * i, 2 * i + 1) for i in range(N // 2)}      # N > 2N/sqrt(ln N)
    with pytest.raises(checks.CheckError, match="degree-1"):
        checks.check_guarantees(matching, N, N)


def test_closed_form_counts_match_the_coefficient_series():
    from plantedcycles import genfun
    for delta, lam in ((0.5, 0.3), (1.0, 0.2), (0.3, 0.7)):
        c11, c22 = checks.closed_form_counts(delta, lam)
        assert c11 == pytest.approx(genfun.coefficient(lam, delta, 1, 1))
        assert c22 == pytest.approx(genfun.coefficient(lam, delta, 2, 2))


def test_count_window_rejects_a_mean_30_percent_off():
    for c in checks.closed_form_counts(0.5, 0.3):
        checks.check_count_window(0.95 * c, c, "real")
        for off in (0.7, 1.3):
            with pytest.raises(checks.CheckError, match="outside"):
                checks.check_count_window(off * c, c, "corrupted")


def test_two_factor_check():
    params = sampler.ModelParams(n=200, lam=0.3, delta=0.5)
    g, _h_star = sampler.sample_instance(params, workloads.instance_rng(3, 0, 0))
    checks.check_two_factor(g.planted, 100)
    with pytest.raises(checks.CheckError):
        checks.check_two_factor(g.planted, 101)
    with pytest.raises(checks.CheckError):
        checks.check_two_factor(set(g.planted) - {min(g.planted)}, 100)


@pytest.fixture(scope="module")
def adversary_run():
    wl = workloads.Adversary(5)
    return wl, wl.run(0, traced=False)


def test_adversary_checks_accept_the_pipeline_output(adversary_run):
    wl, out = adversary_run
    wl.check(0, out)
    assert out[2], "the spec point builds trees"


def test_layer_check_rejects_a_layer_with_its_colours_swapped(adversary_run):
    _wl, (g, _reserved, trees, _link, _cycles) = adversary_run
    layer = next(iter(trees[0].left.layers.values()))
    support = {v for e in g.planted for v in e}
    checks.check_layer(g.edges, g.planted, support, layer, 1)
    swapped = set(g.planted) ^ {checks.edge(a, b) for a, b in zip(layer, layer[1:])}
    with pytest.raises(checks.CheckError, match="start blue"):
        checks.check_layer(g.edges, swapped, support, layer, 1)


def test_reserved_check_rejects_a_blue_or_crowded_reservation(adversary_run):
    _wl, (g, reserved, _trees, _link, _cycles) = adversary_run
    blue = next(e for e in g.edges if e not in g.planted)
    with pytest.raises(checks.CheckError, match="not red"):
        checks.check_reserved(g.planted, reserved.edges + (blue,), reserved.available)
    e = reserved.edges[0]
    nbr = checks.red_neighbours(g.planted)
    crowded = next(f for f in g.planted if f != e and (f[0] in nbr[e[0]] or f[1] in nbr[e[0]]))
    with pytest.raises(checks.CheckError):
        checks.check_reserved(g.planted, (e, crowded), ())


# a 6-cycle H* = 0-1-2-3-4-5-0 with blue chords 1-4 and 0-3
HEX = {checks.edge(i, (i + 1) % 6) for i in range(6)}
CHORDS = {(1, 4), (0, 3)}


def test_cycle_check():
    checks.check_cycle(HEX | CHORDS, HEX, (0, 1, 4, 3, 0))
    with pytest.raises(checks.CheckError, match="red of"):
        checks.check_cycle(HEX | CHORDS, HEX, (0, 1, 2, 3, 0))
    with pytest.raises(checks.CheckError, match="leaves G"):
        checks.check_cycle(HEX, HEX, (0, 1, 4, 3, 0))


def test_link_arc_check():
    arcs = {(0, 1): ((0, 1), (3, 4))}
    checks.check_link_arcs(HEX | CHORDS, HEX, arcs, {0: ((0, 1),)}, {1: ((3, 4),)})
    with pytest.raises(checks.CheckError, match="link arc"):
        checks.check_link_arcs(HEX | CHORDS, HEX, {(0, 1): ((0, 1), (2, 3))},
                               {0: ((0, 1),)}, {1: ((2, 3),)})


def test_tracer_self_time_and_restore():
    ns = types.SimpleNamespace(inner=lambda: None)
    ns.outer = lambda: ns.inner()
    inner, outer = ns.inner, ns.outer

    class Box:
        @classmethod
        def make(cls, x):
            return (cls, x)

    raw_make = vars(Box)["make"]
    tr = tracer.Tracer()
    tr.wrap(ns, "inner", "inner", after=lambda counts, a, r, t: counts.update(["calls"]))
    tr.wrap(ns, "outer", "outer")
    tr.wrap(Box, "make", "make")
    tr.op = 7
    try:
        ns.outer()
        assert Box.make(5) == (Box, 5)
    finally:
        tr.close()
    (o, o0, o1, o_parent, o_op), (i, i0, i1, i_parent, _), _make = tr.spans
    assert (o, i, o_parent, i_parent, o_op) == ("outer", "inner", None, 0, 7)
    own = tr.self_times()
    assert own["outer"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert own["inner"] == pytest.approx(i1 - i0)
    assert tr.counts["calls"] == 1
    assert (ns.inner, ns.outer, vars(Box)["make"]) == (inner, outer, raw_make)


def test_benchmark_json_names_every_metric_the_runner_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="ascii") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
