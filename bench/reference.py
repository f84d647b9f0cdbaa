"""Reference figures that are not workloads: too slow or too heavy-tailed
to repeat in every run, but the targets of planned changes.

    python3 bench/reference.py

Prints the time of one ``recover`` at n=4000, delta=1, lambda=0.3 on the
benchmark's own generator, and the sampler's draws at n=10000 and
n=50000 (lambda=0.3, delta=1) with the permutations each one drew.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from plantedcycles import graphcore, harness, recovery, sampler  # noqa: E402


def main():
    n = 4000
    text, planted = workloads.planted_instance(n, 1.0, 0.3, workloads.instance_rng(1, 0, 0))
    g = graphcore.ColoredGraph.loads(text)
    start = time.perf_counter()
    h, state = recovery.recover(g, max_len=workloads.paper_max_len(n),
                                quota=workloads.paper_quota(n), return_state=True)
    print(f"recover n={n} lambda=0.3: {time.perf_counter() - start:.1f} s, "
          f"{state.iterations} iterations, risk {len(planted ^ h.edges) / len(planted):.4f}")
    for n, trials in ((10000, 3), (50000, 2)):
        params = sampler.ModelParams(n=n, lam=0.3, delta=1.0)
        for t in range(trials):
            rng = workloads.CountingGenerator(harness.rng_for(31, 0, t))
            start = time.perf_counter()
            sampler.sample_instance(params, rng)
            print(f"sample_instance n={n} rng_for(31, 0, {t}): "
                  f"{time.perf_counter() - start:.1f} s, {rng.permutations} permutations")


if __name__ == "__main__":
    main()
