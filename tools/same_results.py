"""Digest every output family of a plantedcycles checkout, one line each.

    python3 tools/same_results.py CHECKOUT

CHECKOUT is the root of a source tree of this repository; the package is
imported from CHECKOUT/src.  Run the script on two checkouts and compare
the lines: equal digests mean the two give the same results in the sense
of ROADMAP aim 2.  The families are

    instances    sampled instances and 2-factors, with the generator
                 state after each draw
    cycle_types  the m=8 cycle-type histogram
    trails       enumerated trails with their classify_ab_trail profile
    count_ab     count_ab_trails from support anchors and on small graphs
    recover      recover's H, iterations and updates per (seed, max_len, quota),
                 at n = 300 and 1000 and on tiny dense graphs (n = 12, lambda = 3)
    evaluations  recover's candidate evaluations on the same runs, which
                 are made once for both families
    adversary    every adversary stage at criterion 9's spec point, with
                 the hub, ball and found layers of every layer walk, plus
                 one m*=2 build, links and cycles at d=2 on denser graphs
                 and reservations at delta < 1
    sweep        sweep CSV rows without the ms column, on a two-cell grid,
                 an all-error max_len=2 cell, a threads=2 run and a parsed
                 config; parse_config results, and the exception type and
                 message of each config it rejects
    structure    validate_structure reports and TwoFactor cycles on sampled
                 instances, on recover's H and on random small edge sets,
                 or the message of TwoFactor's ValueError where it rejects
    decompose    decompose_diff trails and profiles on (H*, H) pairs from
                 small recover runs and from random degree-<=2 sets
    background   the sampler's background pair sets, with the generator
                 state after each draw, at p = 0, a sparse p and p = 1
    genfun       coefficient_table at order 64, printed as the CLI prints it,
                 and report(), at delta = 1, 2/3 and 0.25 with lambda below
                 and above the threshold and at 1e308

The first line names the Python and numpy versions; each further line
reads "<family> <sha256 prefix> <items hashed>".  The run takes 4-25 s on
one core; the package path and the times go to stderr.

tools/same_results.txt holds this output for the current tree, and
tests/test_same_results.py checks every family against it.  A change
that means to move a digest rewrites the file:

    python3 tools/same_results.py . > tools/same_results.txt
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import platform
import sys
import time
from pathlib import Path

import numpy


def _digest():
    h = hashlib.sha256()
    count = 0

    def feed(*items):
        nonlocal count
        h.update(repr(items).encode())
        count += 1

    return h, feed, lambda: count


def _small_graph(pc, rng):
    """Random graph on 4..10 vertices whose red edges are one cycle on a
    random subset, or none; drawn without the package's sampler."""
    n = int(rng.integers(4, 11))
    planted = []
    if rng.random() < 0.7:
        cyc = rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False).tolist()
        planted = [pc.edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    blue = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return pc.ColoredGraph(n, blue, planted)


def instances(pc, feed):
    for m in list(range(3, 13)) + [200, 1000]:
        for s in range(10):
            rng = pc.rng_for(700 + s, m)
            tf = pc.sample_two_factor(range(m), rng)
            feed(m, s, sorted(tf.edges), rng.bit_generator.state)
    for k in range(120):
        n = (30, 60, 200, 1000)[k % 4]
        lam = (0.3, 1.5, 0.8)[k % 3]
        delta = (1.0, 0.6)[k % 2]
        variant = ("two-factor", "two-factor", "single-cycle")[k % 3]
        params = pc.ModelParams(n=n, lam=lam, delta=delta, variant=variant)
        rng = pc.rng_for(800, k)
        g, h_star = pc.sample_instance(params, rng)
        feed(k, g.dumps(), sorted(h_star.edges), rng.bit_generator.state)


def cycle_types(pc, feed):
    hist = pc.cycle_type_stats(20000, 8, pc.rng_for(2))
    feed(sorted(hist.items()))


def trails(pc, feed):
    rng = pc.rng_for(900)
    for k in range(300):
        g = _small_graph(pc, rng)
        support = g.red_support()
        for t in pc.enumerate_trails(g, 3 + k % 4):
            feed(k, t.vertices, t.closed, pc.classify_ab_trail(g, t, support))
    g, _ = pc.sample_instance(pc.ModelParams(n=300, lam=1.0, delta=1.0), pc.rng_for(901))
    for t in pc.enumerate_trails(g, 6):
        feed(t.vertices, t.closed, pc.classify_ab_trail(g, t))


def count_ab(pc, feed):
    profiles = ((0, 1), (1, 1), (1, 2), (2, 2), (2, 3))
    for s in range(4):
        g, _ = pc.sample_instance(pc.ModelParams(n=2000, lam=0.6, delta=1.0),
                                  pc.rng_for(910 + s))
        support = g.red_support()
        for v in sorted(support)[:60]:
            for a, b in profiles:
                feed(s, v, a, b, pc.count_ab_trails(g, a, b, v, l_cap=64, support=support))
    rng = pc.rng_for(920)
    for k in range(60):
        g = _small_graph(pc, rng)
        for a, b in profiles:
            for frm in range(g.n):
                feed(k, a, b, frm, pc.count_ab_trails(g, a, b, frm))
                feed(k, a, b, frm, [pc.count_ab_trails(g, a, b, frm, to=t) for t in range(g.n)])


@functools.cache
def _recover_runs(pc) -> list:
    """(key, H's sorted edges, state) of each recover run that the recover
    and evaluations families hash, made once per package."""
    runs = []
    for s in range(6):
        g, _ = pc.sample_instance(pc.ModelParams(n=300, lam=0.4, delta=(1.0, 0.7)[s % 2]),
                                  pc.rng_for(930 + s))
        for max_len in range(3, 7):
            for quota in range(1, 4):
                h, st = pc.recover(g, max_len=max_len, quota=quota, return_state=True)
                runs.append(((s, max_len, quota), sorted(h.edges), st))
    g, _ = pc.sample_instance(pc.ModelParams(n=1000, lam=0.3, delta=1.0), pc.rng_for(940))
    h, st = pc.recover(g, return_state=True)
    runs.append(((), sorted(h.edges), st))
    for s in range(6):
        # tiny dense graphs, where 2-63% of the rows revisit a vertex (more at a larger max_len)
        g, _ = pc.sample_instance(pc.ModelParams(n=12, lam=3.0, delta=(1.0, 0.5)[s % 2]),
                                  pc.rng_for(945 + s))
        for max_len in range(4, 8):
            for quota in (1, 2):
                h, st = pc.recover(g, max_len=max_len, quota=quota, return_state=True)
                runs.append(((s, max_len, quota), sorted(h.edges), st))
    return runs


def recover(pc, feed):
    for key, edges, st in _recover_runs(pc):
        feed(*key, edges, st.iterations, st.updates_a, st.updates_b)


def evaluations(pc, feed):
    for key, _, st in _recover_runs(pc):
        feed(*key, st.evaluations)


def _tree(t):
    return (t.center,) + tuple((s.root, list(s.hubs), list(s.layers.items()))
                               for s in (t.left, t.right))


def _reserved(r):
    return r.edges, sorted(r.available), r.max_consumed


def _built(b):
    return [_tree(t) for t in b.trees], b.failed, b.available_after


def _link(link):
    """Admitted trees, each side's chosen (edge, witness hub) pairs in
    chosen order, and the link arcs."""
    return (link.admitted,
            [(i, list(link.chosen_left[i].items()), list(link.chosen_right[i].items()))
             for i in link.admitted],
            sorted(link.blue.items()))


def _spy_layer_walks(pc, feed):
    """Feed (hub, ball, found layers) of every adversary._layer_paths call
    until the returned function restores the original."""
    layer_paths = pc.adversary._layer_paths

    def spy(g, u, free, m_star):
        found, ball = layer_paths(g, u, free, m_star)
        feed(u, sorted(ball), list(found.items()))
        return found, ball

    pc.adversary._layer_paths = spy
    return lambda: setattr(pc.adversary, "_layer_paths", layer_paths)


def adversary(pc, feed):
    restore = _spy_layer_walks(pc, feed)
    try:
        _adversary_runs(pc, feed)
    finally:
        restore()


def _adversary_runs(pc, feed):
    params = pc.ModelParams(n=2000, lam=0.8, delta=1.0)
    for seed in range(9000, 9006):
        rng = pc.rng_for(seed)
        g, h_star = pc.sample_instance(params, rng)
        reserved = pc.reserve_edges(h_star, 0.1, g.n)
        built = pc.build_trees(g, reserved.available, 1, 1, 0.1, rng)
        link = pc.link_trees(g, built.trees, reserved, 1, rng)
        cycles = pc.extract_balanced_cycles(link, built.trees, g, limit=100)
        feed(seed, _reserved(reserved), _built(built))
        feed(seed, _link(link), cycles, rng.bit_generator.state)
    rng = pc.rng_for(6)
    g, h_star = pc.sample_instance(pc.ModelParams(n=4000, lam=2.0, delta=0.5), rng)
    reserved = pc.reserve_edges(h_star, 0.01, g.n)
    feed(_reserved(reserved), _built(pc.build_trees(g, reserved.available, 2, 2, 0.01, rng)))
    for seed in range(6):
        # extra blue edges from hubs to reserved endpoints and between
        # reserved endpoints: several witnesses per edge, and cycles
        rng = pc.rng_for(60, seed)
        g, h_star = pc.sample_instance(pc.ModelParams(n=600, lam=1.5, delta=1.0), rng)
        reserved = pc.reserve_edges(h_star, 0.1, g.n)
        built = pc.build_trees(g, reserved.available, 1, 1 + seed % 2, 0.1, rng)
        hubs = [v for t in built.trees for side in (t.left, t.right) for v in side.hubs]
        ends = [v for e in reserved.edges for v in e]
        k = 4 * len(hubs)
        extra = {pc.edge(hubs[i], ends[j]) for i, j in
                 zip(rng.integers(len(hubs), size=k), rng.integers(len(ends), size=k))}
        extra |= {pc.edge(ends[i], ends[j]) for i, j in
                  zip(rng.integers(len(ends), size=k), rng.integers(len(ends), size=k))
                  if ends[i] != ends[j]}
        dense = pc.ColoredGraph(g.n, g.edges | extra, g.planted)
        link = pc.link_trees(dense, built.trees, reserved, 2, rng)
        cycles = pc.extract_balanced_cycles(link, built.trees, dense, limit=100)
        feed(seed, _built(built), _link(link), cycles, rng.bit_generator.state)
    for k in range(20):
        delta = (1.0, 0.5, 0.35)[k % 3]
        _, h_star = pc.sample_instance(pc.ModelParams(n=500, lam=0.5, delta=delta),
                                       pc.rng_for(950, k))
        for gamma in (0.0, 0.01, 0.05, delta / 10, delta / 5):
            feed(k, gamma, _reserved(pc.reserve_edges(h_star, gamma, 500)))


def _random_edges(pc, rng, n, h_star=None):
    """Random edge set on n vertices, mixing H*'s edges (when given) with
    random pairs; capped at degree 2 unless h_star is None."""
    capped = h_star is not None
    edges = [e for e in sorted(h_star.edges) if rng.random() < 0.6] if capped else []
    edges += [pc.edge(int(u), int(v)) for u, v in rng.integers(n, size=(n, 2)) if u != v]
    deg, out = [0] * n, []
    for u, v in edges:
        if (u, v) in out or (capped and (deg[u] == 2 or deg[v] == 2)):
            continue
        out.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return out


def _small_recover_runs(pc):
    """(index, G, H*, recover's H) on small instances."""
    for k in range(12):
        params = pc.ModelParams(n=(60, 200)[k % 2], lam=(0.3, 0.6, 1.0)[k % 3],
                                delta=(1.0, 0.6)[k // 6])
        g, h_star = pc.sample_instance(params, pc.rng_for(960, k))
        yield k, g, h_star, pc.recover(g)


def _cycles_or_error(pc, edges):
    """TwoFactor's cycles, or the message of the ValueError it raises."""
    try:
        return pc.TwoFactor(frozenset(edges)).cycles()
    except ValueError as exc:
        return str(exc)


def structure(pc, feed):
    for k in range(120):
        n = (30, 60, 200, 1000)[k % 4]
        params = pc.ModelParams(n=n, lam=(0.3, 1.5, 0.8)[k % 3], delta=(1.0, 0.6)[k % 2],
                                variant=("two-factor", "two-factor", "single-cycle")[k % 3])
        g, h_star = pc.sample_instance(params, pc.rng_for(800, k))
        feed(k, h_star.cycles(), pc.validate_structure(h_star.edges),
             pc.validate_structure(g.edges), pc.validate_structure(g.blue_edges))
    for k, g, h_star, h in _small_recover_runs(pc):
        feed(k, pc.validate_structure(h.edges), _cycles_or_error(pc, h.edges))
    rng = pc.rng_for(970)
    for k in range(300):
        edges = _random_edges(pc, rng, int(rng.integers(3, 12)))
        feed(k, pc.validate_structure(edges), _cycles_or_error(pc, pc.edge_set(edges)))


def decompose(pc, feed):
    def feed_decomp(k, h_star, h):
        dec = pc.decompose_diff(h_star, h)
        feed(k, [(t.vertices, t.closed) for t in dec.trails], dec.profiles,
             dec.open_count, sorted(dec.red_edges), sorted(dec.blue_edges))

    for k, g, h_star, h in _small_recover_runs(pc):
        feed_decomp(k, h_star, h.edges)
    rng = pc.rng_for(980)
    for k in range(300):
        n = int(rng.integers(6, 25))
        h_star = pc.sample_two_factor(range(n), rng)
        feed_decomp(k, h_star, _random_edges(pc, rng, n, h_star))


_PARSED_CONFIGS = (
    "delta=1.0\nlambda=0.3\nn=40",
    "# every key\n delta = 0.8 \ndelta=1\nlambda=0.25\nlambda=.4\nn=36\nn=50\ntrials=2\n"
    "seed=23\nvariant=single-cycle\nmax_len=\nquota=2\nout=rows.csv\nthreads=2\n",
    "delta=1\nlambda=0.3\nn=40\nmax_len=5\nquota=\nout=\nseed=-4",
)

_REJECTED_CONFIGS = (
    "delta=1.0\nlambda=0.3", "delta=1\nlambda=.3\nn=40\nfoo", "delta=1\nlambda=.3\nn=40\ntrails=2",
    "n=40\nlambda=.3\nbogus=1", "delta=1\nlambda=.3\nn=40\ntrials=1\ntrials=2",
    "delta=1\nlambda=.3\nn=40\nvariant=a\nvariant=b", "delta=1\nlambda=.3\nn=40\nmax_len=\nmax_len=3",
    "delta=1\nlambda=.3\nn=40\ntrials=", "delta=1\nlambda=.3\nn=40\ntrials=0",
    "delta=1\nlambda=.3\nn=40\nthreads=0", "delta=1\nlambda=.3\nn=40\nseed=x",
    "delta=1\nlambda=.3\nn=40\nmax_len=x", "delta=1\nlambda=.3\nn=40\nquota=1.5",
    "delta=abc\nlambda=.3\nn=40", "delta=1\nlambda=.3\nn=1.5", "delta=2\nlambda=.3\nn=40",
    "delta=1\nlambda=.3\nn=40\nvariant=bogus", "delta=1\nlambda=nan\nn=40",
    "delta=1\nlambda=.3\nn=40\ntrials=x\nseed=1\nseed=2",
    "delta=x\nlambda=.3\nn=40\ntrials=1\ntrials=2",
    "delta=1\nlambda=.3\nn=40\nseed=1\nseed=2\ntrials=x",
)


def sweep(pc, feed):
    configs = [
        pc.ExperimentConfig(deltas=(1.0, 0.6), lambdas=(0.3, 0.5), ns=(200,), trials=3, seed=17),
        pc.ExperimentConfig(deltas=(1.0,), lambdas=(0.2, 0.3), ns=(30,), trials=2, seed=1,
                            max_len=2),                     # every trial an error row
        pc.ExperimentConfig(deltas=(1.0, 0.7), lambdas=(0.3,), ns=(60,), trials=3, seed=5,
                            threads=2),
        pc.parse_config("delta=0.9\nlambda=0.35\nn=48\ntrials=2\nseed=3\nmax_len=\nquota=2"),
    ]
    for config in configs:
        for row in csv.reader(io.StringIO(pc.sweep(config))):
            feed(row[:-1])
    for text in _PARSED_CONFIGS:
        feed(text, pc.parse_config(text))
    for text in _REJECTED_CONFIGS:
        try:
            pc.parse_config(text)
        except Exception as exc:
            feed(text, type(exc).__name__, str(exc))
        else:
            raise AssertionError(f"parse_config accepted {text!r}")


def background(pc, feed):
    for n in (2, 3, 7, 50, 2000, 50_000):
        for p in (0.0, 0.8 / n, 1.0):
            if p == 1.0 and n > 50:
                continue
            for s in range(6):
                rng = pc.rng_for(990, n, s)
                pairs = pc.sampler._sample_background_edges(n, p, rng)
                feed(n, p, s, sorted(map(tuple, pairs.tolist())), rng.bit_generator.state)


def genfun(pc, feed):
    for delta in (1.0, 2 / 3, 0.25):
        lam_c = pc.threshold(delta)
        for lam in (0.8 * lam_c, 1.25 * lam_c, 1e308):
            table = pc.genfun.coefficient_table(lam, delta, 64)
            feed(delta, lam, [[f"{c:.12g}" for c in row] for row in table])
            feed(delta, lam, pc.genfun.report(lam, delta))


FAMILIES = (instances, cycle_types, trails, count_ab, recover, evaluations, adversary,
            sweep, structure, decompose, background, genfun)


def versions() -> str:
    """The header line: the versions that the digests depend on."""
    return f"# python {platform.python_version()} numpy {numpy.__version__}"


def line(pc, family) -> str:
    """The family's output line for the package pc."""
    h, feed, count = _digest()
    family(pc, feed)
    return f"{family.__name__:<12} {h.hexdigest()[:16]} {count()}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    if not (src / "plantedcycles").is_dir():
        print(f"{src} holds no plantedcycles package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import plantedcycles as pc

    print(f"package: {Path(pc.__file__).parent}", file=sys.stderr)
    print(versions())
    t0 = time.perf_counter()
    for family in FAMILIES:
        t1 = time.perf_counter()
        print(line(pc, family))
        print(f"  {family.__name__}: {time.perf_counter() - t1:.1f} s", file=sys.stderr)
    print(f"total: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
