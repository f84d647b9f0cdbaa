"""Stage timings of one `recover` run, as one row of ROADMAP's baseline table.

    python3 tools/recover_stages.py N LAMBDA DELTA SEED

The instance is ``sample_instance(ModelParams(N, LAMBDA, DELTA),
rng_for(SEED))``, recovered at the default max_len and quota.  Each
stage is timed by replacing, for the length of the run, the name that
``recover`` looks it up by in ``plantedcycles.recovery``:
``enumerate_trails``, ``Candidates`` (its construction), ``subroutine_a``
and ``subroutine_b``.  The printed row is

    | n | λ | L | |S| | enumerate | Candidates | A | B | iterations | A / B updates | evaluations |

with the stage times in seconds, summed over the run, and the candidate
evaluations of the run (``Candidates(...)`` evaluates none: subroutines
A and B evaluate each candidate row when they read it).
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


def stages(n: int, lam: float, delta: float, seed: int) -> dict:
    """Recover the instance with every stage timed; returns the row's fields."""
    g, _ = sample_instance(ModelParams(n, lam, delta), rng_for(seed))
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
    return {"n": n, "lam": lam, "L": recovery.default_max_len(n),
            "trails": len(last["enumerate_trails"]), **spent,
            "iterations": state.iterations, "updates_a": state.updates_a,
            "updates_b": state.updates_b, "evaluations": state.evaluations}


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
