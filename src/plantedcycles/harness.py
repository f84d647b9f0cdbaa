"""Monte Carlo harness: trials, sweeps, and tiny-scale brute-force oracles.

Per-trial randomness is a fixed published function of
(master seed, cell index, trial index): three chained splitmix64 steps,
so any reimplementation can reproduce every row of a sweep from the
config alone.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .graphcore import ColoredGraph, TwoFactor, risk, symmetric_difference, validate_structure
from .recovery import recover, default_max_len, default_quota
from .sampler import ModelParams, TWO_FACTOR, sample_instance

_MASK = (1 << 64) - 1

SWEEP_COLUMNS = ["delta", "lambda", "n", "seed", "risk", "edges", "deg1", "symdiff", "ms"]


def splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence (public mixing constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master: int, cell_index: int, trial_index: int) -> int:
    """splitmix64(splitmix64(splitmix64(master) ^ cell) ^ trial)."""
    s = splitmix64(master & _MASK)
    s = splitmix64(s ^ (cell_index & _MASK))
    return splitmix64(s ^ (trial_index & _MASK))


def rng_for(master: int, cell_index: int = 0, trial_index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(trial_seed(master, cell_index, trial_index)))


@dataclass(frozen=True)
class TrialRecord:
    delta: float
    lam: float
    n: int
    seed: int
    risk: float
    edges: int          # |H|
    deg1: int
    symdiff: int        # |H xor H*|
    ms: float
    updates_a: int = 0
    updates_b: int = 0

    def row(self) -> list:
        return [self.delta, self.lam, self.n, self.seed,
                f"{self.risk:.6f}", self.edges, self.deg1, self.symdiff,
                f"{self.ms:.1f}"]


@dataclass(frozen=True)
class ExperimentConfig:
    deltas: tuple[float, ...]
    lambdas: tuple[float, ...]
    ns: tuple[int, ...]
    trials: int = 1
    seed: int = 0
    variant: str = TWO_FACTOR
    max_len: int | None = None
    quota: int | None = None
    out: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for d, lam, n in self.cells():
            ModelParams(n=n, lam=lam, delta=d, variant=self.variant)

    def cells(self) -> list[tuple[float, float, int]]:
        return [(d, lam, n) for d in self.deltas for lam in self.lambdas
                for n in self.ns]


CONFIG_KEYS = ("delta", "lambda", "n", "trials", "seed", "variant", "max_len",
               "quota", "out", "threads")


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value lines; repeated keys form lists.  A key outside
    CONFIG_KEYS is an error."""
    lists: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        lists.setdefault(key, []).append(val)

    def one(key: str, default=None):
        vals = lists.get(key)
        if not vals:
            return default
        if len(vals) > 1:
            raise ValueError(f"key {key} given {len(vals)} times, expected once")
        return vals[0]

    if "delta" not in lists or "lambda" not in lists or "n" not in lists:
        raise ValueError("config needs at least one delta, lambda, and n")
    return ExperimentConfig(
        deltas=tuple(float(v) for v in lists["delta"]),
        lambdas=tuple(float(v) for v in lists["lambda"]),
        ns=tuple(int(v) for v in lists["n"]),
        trials=int(one("trials", "1")),
        seed=int(one("seed", "0")),
        variant=one("variant", TWO_FACTOR),
        max_len=int(one("max_len")) if one("max_len") else None,
        quota=int(one("quota")) if one("quota") else None,
        out=one("out"),
        threads=int(one("threads", "1")),
    )


def run_trial(params: ModelParams, seed: int, max_len: int | None = None,
              quota: int | None = None) -> TrialRecord:
    """Sample an instance, run the estimator blind, score against truth,
    and assert the deterministic structural guarantees."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g, h_star = sample_instance(params, rng)
    t0 = time.perf_counter()
    h, state = recover(g, max_len=max_len, quota=quota, return_state=True)
    ms = (time.perf_counter() - t0) * 1000.0
    n = params.n
    h_edges = h.edges
    report = validate_structure(h_edges)
    if not report.valid:
        raise AssertionError(f"estimator output has degree > 2 at {report.offender}")
    # deterministic guarantees for any input containing a cycle cover; the
    # |H| floor is below zero (9/sqrt(ln n) > 1), so it cannot fail, for n < e^81
    floor_edges = params.support_size - 9 * n / math.sqrt(math.log(n))
    if len(h_edges) < floor_edges:
        raise AssertionError(f"|H|={len(h_edges)} below {floor_edges}")
    if report.deg1_count > 2 * n / math.sqrt(math.log(n)):
        raise AssertionError(f"degree-1 count {report.deg1_count} too large")
    diff = len(symmetric_difference(h_star.edges, h_edges))
    return TrialRecord(
        delta=params.delta, lam=params.lam, n=n, seed=seed,
        risk=risk(h_star, h_edges), edges=len(h_edges),
        deg1=report.deg1_count, symdiff=diff, ms=ms,
        updates_a=state.updates_a, updates_b=state.updates_b,
    )


def _trial_task(args) -> tuple[int, int, TrialRecord | Exception]:
    cell_idx, trial_idx, params, seed, max_len, quota = args
    try:
        return cell_idx, trial_idx, run_trial(params, seed, max_len, quota)
    except Exception as exc:          # error rows keep the sweep going
        return cell_idx, trial_idx, exc


def _process_pool():
    """The process-pool class, imported here so that importing the package
    loads no process-pool modules; only a parallel sweep needs them."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def sweep(config: ExperimentConfig) -> str:
    """Run every (delta, lambda, n) cell of the config and render the CSV:
    one row per trial plus mean/std aggregate rows per cell."""
    tasks = []
    for cell_idx, (d, lam, n) in enumerate(config.cells()):
        params = ModelParams(n=n, lam=lam, delta=d, variant=config.variant)
        for t in range(config.trials):
            seed = trial_seed(config.seed, cell_idx, t)
            tasks.append((cell_idx, t, params, seed, config.max_len, config.quota))

    results: dict[tuple[int, int], TrialRecord | Exception] = {}
    workers = min(config.threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with _process_pool()(max_workers=workers) as pool:
            for cell_idx, t, rec in pool.map(_trial_task, tasks):
                results[(cell_idx, t)] = rec
    else:
        for task in tasks:
            cell_idx, t, rec = _trial_task(task)
            results[(cell_idx, t)] = rec

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS)
    for cell_idx, (d, lam, n) in enumerate(config.cells()):
        records = []
        for t in range(config.trials):
            rec = results[(cell_idx, t)]
            if isinstance(rec, Exception):
                writer.writerow([d, lam, n, trial_seed(config.seed, cell_idx, t),
                                 "error", "", "", "", ""])
            else:
                writer.writerow(rec.row())
                records.append(rec)
        if records:
            risks = [r.risk for r in records]
            mean = float(np.mean(risks))
            std = float(np.std(risks))
            writer.writerow([d, lam, n, "mean", f"{mean:.6f}",
                             f"{np.mean([r.edges for r in records]):.1f}",
                             f"{np.mean([r.deg1 for r in records]):.1f}",
                             f"{np.mean([r.symdiff for r in records]):.1f}",
                             f"{np.mean([r.ms for r in records]):.1f}"])
            writer.writerow([d, lam, n, "std", f"{std:.6f}", "", "", "", ""])
    return buf.getvalue()


ENUMERATION_GUARD = 16


def enumerate_two_factors(g: ColoredGraph, k: int) -> list[TwoFactor]:
    """Every 2-factor on exactly k vertices contained in g, each once.

    Backtracking over cycle covers: vertices are decided in increasing
    order (skip, or anchor a new cycle as its smallest member; cycles
    are emitted with second vertex < last vertex to kill mirror copies).
    Guarded to n <= 16: the search is exponential.
    """
    if g.n > ENUMERATION_GUARD:
        raise ValueError(f"n={g.n} exceeds the brute-force guard {ENUMERATION_GUARD}")
    n = g.n
    adj = [sorted(w for w, _ in g.adj[v]) for v in range(n)]
    adj_sets = [set(a) for a in adj]
    out: list[TwoFactor] = []
    edges_acc: list[tuple[int, int]] = []
    used: set[int] = set()

    def cycles_from(min_vertex: int, remaining: int) -> None:
        if remaining == 0:
            out.append(TwoFactor(frozenset(edges_acc)))
            return
        anchor = min_vertex
        while anchor < n and anchor in used:
            anchor += 1
        if anchor >= n:
            return
        undecided_after = sum(1 for v in range(anchor + 1, n) if v not in used)
        # branch 1: a cycle anchored here (needs remaining-1 more vertices)
        if undecided_after >= remaining - 1:
            used.add(anchor)
            extend([anchor], remaining)
            used.remove(anchor)
        # branch 2: anchor stays out of the cover
        if undecided_after >= remaining:
            cycles_from(anchor + 1, remaining)

    def extend(path: list[int], remaining: int) -> None:
        anchor, v = path[0], path[-1]
        if len(path) >= 3 and anchor in adj_sets[v] and path[1] < v:
            for a, b in zip(path, path[1:]):
                edges_acc.append((a, b) if a < b else (b, a))
            edges_acc.append((anchor, v))
            cycles_from(anchor + 1, remaining - len(path))
            for _ in range(len(path)):
                edges_acc.pop()
        if len(path) >= remaining:
            return
        for w in adj[v]:
            if w <= anchor or w in used:
                continue
            used.add(w)
            path.append(w)
            extend(path, remaining)
            path.pop()
            used.remove(w)

    cycles_from(0, k)
    del cycles_from, extend               # break the closures' references to each other
    return out


def exact_recovery_check(params: ModelParams, trials: int,
                         rng: np.random.Generator) -> float:
    """Fraction of instances whose hidden cover is the unique 2-factor
    on floor(delta*n) vertices contained in the observed graph."""
    if params.n > 12:
        raise ValueError("exact-recovery check is limited to n <= 12")
    hits = 0
    for _ in range(trials):
        g, h_star = sample_instance(params, rng)
        factors = enumerate_two_factors(g, params.support_size)
        if not any(f.edges == h_star.edges for f in factors):
            raise AssertionError("the planted cover is missing from the enumerated 2-factors")
        if len(factors) == 1:
            hits += 1
    return hits / trials
