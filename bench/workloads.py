"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of operations during set-up,
then runs them in whole rounds.  One operation is one model instance taken
through the workload's whole pipeline; every round runs the same
operations in the same order, so a round's counts repeat exactly.

The program is reached only through module attributes
(``recovery.recover``, ``sampler.sample_instance``, ...), so that the
tracer can wrap each public function where its caller looks it up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from plantedcycles import adversary, graphcore, recovery, sampler, trails

import checks

N = 2000                         # calibrate and adversary, as in criteria 4 and 9


def paper_max_len(n: int) -> int:
    """The greedy's trail-length bound, max(3, floor(ln n)), passed to
    ``recover`` so that a change of the program's default cannot change
    the workload."""
    return max(3, math.floor(math.log(n)))


def paper_quota(n: int) -> int:
    """Subroutine B's gain quota, ceil(sqrt(ln n))."""
    return math.ceil(math.sqrt(math.log(n)))


def instance_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """The generator for one instance; independent of the program's own
    seeding helpers, so a change there cannot move the inputs."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream, index])))


def planted_instance(n: int, delta: float, lam: float,
                     rng: np.random.Generator) -> tuple[str, frozenset]:
    """One draw of the single-cycle planted model, as graph text.

    A uniform cycle on a uniform floor(delta*n)-subset, plus every vertex
    pair independently with probability lam/n; a pair that is already a
    cycle edge stays one red edge.  Returns the text that
    ``ColoredGraph.loads`` reads and the planted edge set.
    """
    order = rng.choice(n, size=math.floor(delta * n), replace=False)   # in uniform order
    nxt = np.roll(order, -1)
    planted = frozenset(zip(np.minimum(order, nxt).tolist(), np.maximum(order, nxt).tolist()))
    n_pairs = n * (n - 1) // 2
    idx = rng.choice(n_pairs, size=rng.binomial(n_pairs, lam / n), replace=False)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2       # index of pair (u, u+1)
    u = np.searchsorted(row_start, idx, side="right") - 1
    v = idx - row_start[u] + u + 1
    edges = sorted(planted | set(zip(u.tolist(), v.tolist())))
    lines = [f"{n} {len(edges)}"]
    lines += [f"{a} {b} {'R' if (a, b) in planted else 'B'}" for a, b in edges]
    return "\n".join(lines) + "\n", planted


class CountingGenerator:
    """A numpy Generator that counts ``permutation`` calls and passes
    everything else through; handed to the sampler in traced runs."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.permutations = 0

    def permutation(self, *args, **kwargs):
        self.permutations += 1
        return self._rng.permutation(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@dataclass
class RecoverInput:
    cell: int
    index: int
    graph: object
    planted: frozenset


class Recover:
    """``recover`` on instances of the benchmark's own generator.

    A round is `count` instances of each cell.  Set-up makes the graph text
    and loads it with ``ColoredGraph.loads``; the operation is the greedy
    alone.  Risks are kept per cell for the check at the end.
    """

    name = "recover"
    # n=1000 rather than 2000: a run then holds 21 instances instead of 6,
    # enough for a steady median (README, "Spread").
    n = 1000
    # (delta, lambda, count): lambda=0.45 sits near the threshold 0.5 at
    # delta=1; 0.25 sits below 0.343 at delta=0.5.  As many instances below
    # as above the lambda=0.3 cell put the median operation inside it.
    cells = ((1.0, 0.3, 15), (1.0, 0.45, 3), (0.5, 0.25, 3))
    # criterion 5's mean-risk bounds; near the threshold the risk at finite
    # n runs close to 0.1, so that cell gets the looser 0.15 (README, "Checks")
    risk_bounds = (0.1, 0.15, 0.15)
    stop_rule_cell = 2                   # the walker check runs on this instance

    def __init__(self, seed: int):
        self.seed = seed
        self.risks: dict[int, list[float]] = {}

    def prepare(self) -> list[RecoverInput]:
        out = []
        for c, (delta, lam, count) in enumerate(self.cells):
            for k in range(count):
                text, planted = planted_instance(self.n, delta, lam, instance_rng(self.seed, c, k))
                out.append(RecoverInput(c, k, graphcore.ColoredGraph.loads(text), planted))
        return out

    def run(self, inp: RecoverInput, traced: bool):
        return recovery.recover(inp.graph, max_len=paper_max_len(self.n), quota=paper_quota(self.n))

    def check(self, inp: RecoverInput, h) -> None:
        g = inp.graph
        checks.check_subgraph(h.edges, g.edges)
        checks.check_guarantees(h.edges, self.n, len(inp.planted))
        self.risks.setdefault(inp.cell, []).append(checks.risk(inp.planted, h.edges))
        if inp.cell == self.stop_rule_cell and inp.index == 0:
            checks.check_stopping_rule(self.n, g.edges, h.edges, paper_max_len(self.n),
                                      paper_quota(self.n))

    def finish(self) -> None:
        for c, bound in enumerate(self.risk_bounds):
            delta, lam, _count = self.cells[c]
            checks.check_mean_risk(self.risks[c], bound, f"delta={delta}, lambda={lam}")


class Calibrate:
    """Criterion 4's experiment: sample an instance with the program's
    sampler, then count (1,1)- and (2,2)-trails from the 200 smallest
    support vertices.  A round is `instances` instances."""

    name = "calibrate"
    delta, lam, anchors, instances = 0.5, 0.3, 200, 700

    def __init__(self, seed: int):
        self.seed = seed
        self.params = sampler.ModelParams(n=N, lam=self.lam, delta=self.delta)
        self.sums = [0, 0]
        self.anchored = 0

    def prepare(self) -> list[int]:
        return list(range(self.instances))

    def run(self, index: int, traced: bool):
        rng = instance_rng(self.seed, 10, index)
        g, h_star = sampler.sample_instance(self.params, CountingGenerator(rng) if traced else rng)
        support = h_star.support
        anchors = sorted(support)[:self.anchors]
        c11 = sum(trails.count_ab_trails(g, 1, 1, v, l_cap=8, support=support) for v in anchors)
        c22 = sum(trails.count_ab_trails(g, 2, 2, v, l_cap=8, support=support) for v in anchors)
        return g.planted, c11, c22, len(anchors)

    def check(self, index: int, out) -> None:
        planted, c11, c22, anchored = out
        checks.check_two_factor(planted, math.floor(self.delta * N))
        self.sums[0] += c11
        self.sums[1] += c22
        self.anchored += anchored

    def finish(self) -> None:
        for label, total, c in zip(("(1,1)", "(2,2)"), self.sums,
                                   checks.closed_form_counts(self.delta, self.lam)):
            checks.check_count_window(total / self.anchored, c, label)


class Adversary:
    """One seed of criterion 9's pipeline at its spec point.  A round is
    `instances` seeds."""

    name = "adversary"
    lam, delta, gamma, ell, d, m_star, instances = 0.8, 1.0, 0.1, 1, 1, 1, 70

    def __init__(self, seed: int):
        self.seed = seed
        self.params = sampler.ModelParams(n=N, lam=self.lam, delta=self.delta)

    def prepare(self) -> list[int]:
        return list(range(self.instances))

    def run(self, index: int, traced: bool):
        rng = instance_rng(self.seed, 20, index)
        if traced:
            rng = CountingGenerator(rng)
        g, h_star = sampler.sample_instance(self.params, rng)
        reserved = adversary.reserve_edges(h_star, self.gamma, g.n)
        built = adversary.build_trees(g, reserved.available, self.m_star, self.ell, self.gamma, rng)
        link = adversary.link_trees(g, built.trees, reserved, self.d, rng)
        cycles = adversary.extract_balanced_cycles(link, built.trees, g)
        return g, reserved, built.trees, link, cycles

    def check(self, index: int, out) -> None:
        g, reserved, trees, link, cycles = out
        checks.check_reserved(g.planted, reserved.edges, reserved.available)
        if not trees:
            raise checks.CheckError(f"instance {index}: no tree built")
        support = {v for e in g.planted for v in e}
        for tree in trees:
            for side in (tree.left, tree.right):
                for layer in side.layers.values():
                    checks.check_layer(g.edges, g.planted, support, layer, self.m_star)
        checks.check_link_arcs(g.edges, g.planted, link.blue, link.chosen_left, link.chosen_right)
        for c in cycles:
            checks.check_cycle(g.edges, g.planted, c.vertices)

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Recover, Calibrate, Adversary)}


def _add(key: str, measure):
    def after(counts, args, result, token):
        counts[key] += measure(args, result, token)
    return after


def trace_points() -> list[tuple]:
    """Each layer's public functions, on the object their callers look them
    up on: (owner, attribute, span name, before hook, after hook)."""
    return [
        (sampler, "sample_instance", "sampler.sample_instance", None, None),
        (sampler, "sample_two_factor", "sampler.two_factor", lambda a: a[1].permutations,
         _add("sampler.permutations", lambda a, r, t: a[1].permutations - t)),
        (graphcore.ColoredGraph, "__init__", "graphcore.build", None, None),
        (graphcore.ColoredGraph, "loads", "graphcore.loads", None, None),
        (recovery, "enumerate_trails", "trails.enumerate", None,
         _add("trails.enumerated", lambda a, r, t: len(r))),
        (trails, "count_ab_trails", "trails.count_ab", None, None),
        (recovery, "recover", "recovery.prepare", None, None),
        (recovery, "subroutine_a", "recovery.subroutine_a", lambda a: a[0].updates_a,
         _add("recovery.updates_a", lambda a, r, t: a[0].updates_a - t)),
        (recovery, "subroutine_b", "recovery.subroutine_b", None,
         _add("recovery.updates_b", lambda a, r, t: int(r))),
        (adversary, "reserve_edges", "adversary.reserve", None, None),
        (adversary, "build_trees", "adversary.build", None,
         lambda counts, a, r, t: counts.update({"adversary.trees": len(r.trees),
                                                "adversary.build_iterations": len(r.available_after)})),
        (adversary, "link_trees", "adversary.link", None,
         lambda counts, a, r, t: counts.update({"adversary.admitted": len(r.admitted),
                                                "adversary.link_arcs": len(r.blue)})),
        (adversary, "extract_balanced_cycles", "adversary.extract", None,
         _add("adversary.cycles", lambda a, r, t: len(r))),
    ]
