"""Stage timings of the benchmark's `adversary` workload, in process.

    python3 tools/adversary_stages.py SEED COUNT [--repeats K]

Runs instances 0..COUNT-1 of ``bench/workloads.py``'s ``Adversary(SEED)``
(criterion 9's spec point: n=2000, lambda=0.8, delta=1, gamma=0.1,
ell=d=m*=1), each through ``Adversary.run``: ``sample_instance``, then
``reserve_edges``, ``build_trees``, ``link_trees`` and
``extract_balanced_cycles``.  Each stage is timed by replacing, for the
length of a pass, the name its caller looks it up by:
``sampler.sample_two_factor`` (the 2-factor draw inside
``sample_instance``) and the four ``adversary`` functions.  Each time is
in ms per instance, summed over the pass, and the least of K passes
(default 5), with no tracer and no span lists for the collector to scan.
``instance`` is the whole operation, so ``instance`` less the five stages
is the background draw and the graph build.

One more pass, untimed, counts under ``sys.setprofile``: the permutations
the sampler tested (calls of ``sampler._accepts``), those that passed the
short-cycle test and reached the pointer doubling, the doubling rounds
(``_accepts`` calls ``count_nonzero`` once for the short-cycle test and
once in each round, to count the short cycles), the
layer walks (calls of ``adversary._layer_paths``) and the trees built.
The output is a header and one Markdown table row.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from plantedcycles import adversary, sampler  # noqa: E402

import workloads  # noqa: E402

STAGES = ((sampler, "sample_two_factor", "draw"), (adversary, "reserve_edges", "reserve"),
          (adversary, "build_trees", "build"), (adversary, "link_trees", "link"),
          (adversary, "extract_balanced_cycles", "extract"))
TIMES = (*(label for _, _, label in STAGES), "instance")
COUNTS = ("permutations", "doubled", "rounds", "layer walks", "trees")


def _timed_pass(work, count: int) -> dict:
    """Seconds per stage, and per whole instance, summed over one pass."""
    spent = defaultdict(float)

    def timed(label, fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label] += time.perf_counter() - start
        return run

    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in STAGES]
    try:
        for (owner, name, fn), (_, _, label) in zip(originals, STAGES):
            setattr(owner, name, timed(label, fn))
        for index in range(count):
            start = time.perf_counter()
            work.run(index, traced=False)
            spent["instance"] += time.perf_counter() - start
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return spent


def _counted_pass(work, count: int) -> Counter:
    """The pass's counts, read off the Python calls it makes."""
    counts = Counter()
    accepts, layer_paths = sampler._accepts.__code__, adversary._layer_paths.__code__
    tests = Counter()                     # count_nonzero calls per _accepts frame

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is accepts:
            counts["permutations"] += 1
        elif frame.f_code is layer_paths:
            counts["layer walks"] += 1
        elif frame.f_code.co_name == "count_nonzero" and frame.f_back.f_code is accepts:
            tests[frame.f_back] += 1

    sys.setprofile(profile)
    try:
        for index in range(count):
            counts["trees"] += len(work.run(index, traced=False)[2])
            # the first count is the short-cycle test, each later one a round's
            counts["doubled"] += sum(k > 1 for k in tests.values())
            counts["rounds"] += sum(tests.values()) - len(tests)
            tests.clear()
    finally:
        sys.setprofile(None)
    return counts


def stages(seed: int, count: int, repeats: int = 5) -> dict:
    """The row's fields: each time the least over `repeats` passes, in ms
    per instance, and the counts of one pass."""
    work = workloads.Adversary(seed)
    least = {}
    for _ in range(repeats):
        spent = _timed_pass(work, count)
        least = {k: min(spent[k], least.get(k, spent[k])) for k in TIMES}
    counts = _counted_pass(work, count)
    return {"seed": seed, "instances": count, **{k: 1e3 * least[k] / count for k in TIMES},
            **{k: counts[k] for k in COUNTS}}


def table(s: dict) -> str:
    head = ["seed", "instances", *(f"{k} ms" for k in TIMES), *COUNTS]
    cells = [str(s["seed"]), str(s["instances"]), *(f"{s[k]:.3f}" for k in TIMES),
             *(str(s[k]) for k in COUNTS)]
    return "\n".join("| " + " | ".join(row) + " |" for row in (head, ["---"] * len(head), cells))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("count", type=int, help="instances per pass")
    ap.add_argument("--repeats", type=int, default=5, help="timed passes (default 5)")
    args = ap.parse_args(argv)
    if args.count < 1 or args.repeats < 1:
        ap.error("COUNT and --repeats must be >= 1")
    print(table(stages(args.seed, args.count, args.repeats)))


if __name__ == "__main__":
    main()
