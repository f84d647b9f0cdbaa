"""Paired benchmark runs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --out BENCH_label.json
        [--workloads recover calibrate adversary] [--seeds 11 12 ... 19 1000]

The base tree is REV exported with ``git archive`` into a temporary
directory, so the repository's own .git is only read.  The head tree is
a copy of the checkout this script lives in, made into a second
temporary directory: its tracked files and its untracked files that git
does not ignore, with their uncommitted edits, and no .git or bench/out.
Both sides thus run from the same kind of directory, and the JSON says
where each ran.  For
each workload and seed, one pair runs ``bench/run.py --workload W --seed
S --trace 0`` once from each tree, each in a fresh interpreter; the side
that runs first alternates from pair to pair, so a drift in machine
speed falls on both sides alike.

The JSON holds, per workload and end-to-end metric: both medians, both
min-max ranges and quartiles, the per-seed paired ratios head/base, their
median, how many pairs moved in the metric's better direction
(BENCHMARK.json), the two-sided sign-test p-value of those moves, and
whether a gain may be claimed: better on at least 9/10 of the pairs, and
the medians apart in the better direction by more than the base's
interquartile distance.  Ties count for neither side in either.  It also
says whether the head median is within the metric's bound: no worse than
the base median by more than that fraction of it.  That reads
"unresolved" when the base's own min-max spread, as a fraction of its
median, is wider than the bound, unless every head run beats every base
run.  A run
that reports wrong results or failed operations stops the tool with an
error naming its workload, seed and side, since its times measure
something else.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, into: str) -> None:
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(into, filter="data")


def copy_worktree(root: str, into: str) -> None:
    """Copy the working tree at `root` into `into`: tracked files and
    untracked ones that git does not ignore, as they are on disk."""
    names = subprocess.run(["git", "-C", root, "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, check=True).stdout
    for name in names.decode().split("\0"):
        src = os.path.join(root, name)
        if name and os.path.isfile(src):          # a tracked file may be deleted
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(into, name))


def run(tree: str, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(tree, "bench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--trace", "0"],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr}")
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            **{k: m["value"] for k, m in out["metrics"].items()}}


def sign_test(better: int, worse: int) -> float:
    """Two-sided sign-test p-value of `better` against `worse` pairs, ties
    left out: the chance, with each pair an even coin, of a split at least
    this uneven."""
    n = better + worse
    tail = sum(math.comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def check_pair(workload: str, pair: dict) -> None:
    """Raise unless both sides of the pair ran correctly and failed nothing."""
    for side in ("base", "head"):
        if not pair[side]["correct"] or pair[side]["failed"]:
            raise RuntimeError(f"{workload} seed {pair['seed']}: the {side} side reported "
                               f"correct={pair[side]['correct']}, failed={pair[side]['failed']}")


def within_bound(base: list[float], head: list[float], direction: str,
                 bound: float) -> bool | str:
    """Whether the head median is no worse than the base median by more
    than `bound` of it; "unresolved" when the base's min-max spread is
    wider than that, unless every head run beats every base run."""
    base_median = statistics.median(base)
    worse = statistics.median(head) - base_median
    beats_all = max(head) < min(base)
    if direction == "higher":
        worse, beats_all = -worse, min(head) > max(base)
    if max(base) - min(base) > bound * base_median and not beats_all:
        return "unresolved"
    return worse <= bound * base_median


def summarise(workload: str, pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per-metric summary of one workload's pairs, each {"seed", "base",
    "head"}; `metrics` maps each metric to its BENCHMARK.json entry."""
    for pair in pairs:
        check_pair(workload, pair)
    out = {}
    for metric, spec in metrics.items():
        direction = spec["better"]
        base = [p["base"][metric] for p in pairs]
        head = [p["head"][metric] for p in pairs]
        ratios = [h / b for b, h in zip(base, head)]
        improved = sum((r > 1) if direction == "higher" else (r < 1) for r in ratios)
        worsened = sum((r < 1) if direction == "higher" else (r > 1) for r in ratios)
        base_q = statistics.quantiles(base, n=4)
        gain = statistics.median(head) - statistics.median(base)
        if direction == "lower":
            gain = -gain
        out[metric] = {"better": direction,
                       "base_median": statistics.median(base), "head_median": statistics.median(head),
                       "base_range": [min(base), max(base)], "head_range": [min(head), max(head)],
                       "base_quartiles": base_q,
                       "head_quartiles": statistics.quantiles(head, n=4),
                       "ratios": {str(p["seed"]): r for p, r in zip(pairs, ratios)},
                       "median_ratio": statistics.median(ratios),
                       "pairs_better": f"{improved}/{len(ratios)}",
                       "sign_test_p": sign_test(improved, worsened),
                       "gain_claimable": (10 * improved >= 9 * len(ratios)
                                          and gain > base_q[2] - base_q[0]),
                       "within_bound": within_bound(base, head, direction, spec["bound"])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workloads", nargs="+", default=["recover", "calibrate", "adversary"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[*range(11, 20), 1000])
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base_rev = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base], capture_output=True,
                              text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as base_tree, tempfile.TemporaryDirectory() as head_tree:
        export(base_rev, base_tree)
        copy_worktree(ROOT, head_tree)
        report = {"base": base_rev, "head": "working tree",
                  "trees": {"base": f"git archive of {base_rev} in {base_tree}",
                            "head": f"copy of the working tree in {head_tree}"},
                  "seeds": args.seeds, "python": sys.version.split()[0],
                  "cpus": os.cpu_count(), "workloads": {}}
        k = 0
        for workload in args.workloads:
            pairs = []
            for seed in args.seeds:
                sides = [("base", base_tree), ("head", head_tree)]
                if k % 2:
                    sides.reverse()
                k += 1
                pair = {"seed": seed, **{side: run(tree, workload, seed) for side, tree in sides},
                        "first": sides[0][0]}
                check_pair(workload, pair)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {pair['base'][m]:.4g} -> {pair['head'][m]:.4g}" for m in metrics),
                      file=sys.stderr)
            report["workloads"][workload] = {"pairs": pairs,
                                             "metrics": summarise(workload, pairs, metrics)}
    with open(args.out, "w", encoding="ascii") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
