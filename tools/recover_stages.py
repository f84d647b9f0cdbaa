"""Stage timings of one `recover` run, as one row of ROADMAP's baseline table.

    python3 tools/recover_stages.py N LAMBDA DELTA SEED

The instance is ``sample_instance(ModelParams(N, LAMBDA, DELTA),
rng_for(SEED))``, recovered three times at the default max_len and
quota.  Each stage is timed by replacing, for the length of a run, the
name that ``recover`` looks it up by in ``plantedcycles.recovery``:
``enumerate_trails``, ``Candidates`` (its construction), ``subroutine_a``
and ``subroutine_b``.  The printed row is

    | n | λ | L | |S| | enumerate | Candidates | A | B | iterations | A / B updates | evaluations |

with each stage's time in seconds, summed over a run, the least of the
three runs (one run of the same code can read up to about 25% slower
than another), and the candidate evaluations of a run, which every run
repeats (``Candidates(...)`` evaluates none: subroutines A and B
evaluate each candidate row when they read it).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from plantedcycles import ModelParams, recover, rng_for, sample_instance  # noqa: E402
from plantedcycles import recovery  # noqa: E402

STAGES = ("enumerate_trails", "Candidates", "subroutine_a", "subroutine_b")
RUNS = 3


def stages(n: int, lam: float, delta: float, seed: int) -> dict:
    """Recover the instance RUNS times with every stage timed; returns the
    row's fields, each stage's time the least over the runs."""
    g, _ = sample_instance(ModelParams(n, lam, delta), rng_for(seed))
    least = {}
    for _ in range(RUNS):
        spent, last, state = _timed_run(g)
        least = {name: min(spent[name], least.get(name, spent[name])) for name in STAGES}
    return {"n": n, "lam": lam, "L": recovery.default_max_len(n),
            "trails": len(last["enumerate_trails"]), **least,
            "iterations": state.iterations, "updates_a": state.updates_a,
            "updates_b": state.updates_b, "evaluations": state.evaluations}


def _timed_run(g):
    """One recover run of g with every stage timed: (seconds per stage,
    each stage's last result, the run's state)."""
    spent = defaultdict(float)
    last = {}

    def timed(name, fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                last[name] = fn(*args, **kwargs)
                return last[name]
            finally:
                spent[name] += time.perf_counter() - start
        return run

    originals = {name: getattr(recovery, name) for name in STAGES}
    try:
        for name, fn in originals.items():
            setattr(recovery, name, timed(name, fn))
        _, state = recover(g, return_state=True)
    finally:
        for name, fn in originals.items():
            setattr(recovery, name, fn)
    return spent, last, state


def row(s: dict) -> str:
    cells = [f"{s['n']:,}", f"{s['lam']:g}", str(s["L"]), f"{s['trails'] / 1000:.1f}k",
             *(f"{s[name]:.3f}" for name in STAGES), str(s["iterations"]),
             f"{s['updates_a']} / {s['updates_b']}", f"{s['evaluations'] / 1000:.1f}k"]
    return "| " + " | ".join(cells) + " |"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int)
    ap.add_argument("lam", type=float)
    ap.add_argument("delta", type=float)
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    print(row(stages(args.n, args.lam, args.delta, args.seed)))


if __name__ == "__main__":
    main()
