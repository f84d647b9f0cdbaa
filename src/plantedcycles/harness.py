"""Monte Carlo harness: trials, sweeps, and tiny-scale brute-force oracles.

Per-trial randomness is a fixed published function of
(master seed, cell index, trial index): three chained splitmix64 steps,
so any reimplementation can reproduce every row of a sweep from the
config alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .graphcore import ColoredGraph, TwoFactor, risk, symmetric_difference, validate_structure
from .recovery import recover
from .sampler import ModelParams, TWO_FACTOR, sample_instance

_MASK = (1 << 64) - 1

# (column, format in a trial row) per measured column.  A cell's mean row uses
# the same format, or ".1f" for "", and its std row gives the first column's std.
MEASURES = [("risk", ".6f"), ("edges", ""), ("deg1", ""), ("symdiff", ""), ("ms", ".1f")]
SWEEP_COLUMNS = ["delta", "lambda", "n", "seed"] + [column for column, _ in MEASURES]


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
                *(format(getattr(self, column), fmt) for column, fmt in MEASURES)]


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
        return list(itertools.product(self.deltas, self.lambdas, self.ns))


def _int_or_none(text: str) -> int | None:
    return int(text) if text else None


# config key -> (ExperimentConfig field, converter of each value); every
# scalar key names its field, and an absent one keeps the field's default
_GRID_KEYS = {"delta": ("deltas", float), "lambda": ("lambdas", float), "n": ("ns", int)}
_SCALAR_KEYS = {"trials": int, "seed": int, "variant": str, "max_len": _int_or_none,
                "quota": _int_or_none, "out": str, "threads": int}
CONFIG_KEYS = (*_GRID_KEYS, *_SCALAR_KEYS)


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

    if not lists.keys() >= _GRID_KEYS.keys():
        raise ValueError("config needs at least one delta, lambda, and n")
    fields = {field: tuple(map(convert, lists[key]))
              for key, (field, convert) in _GRID_KEYS.items()}
    for key, convert in _SCALAR_KEYS.items():
        vals = lists.get(key, ())
        if len(vals) > 1:
            raise ValueError(f"key {key} given {len(vals)} times, expected once")
        if vals:
            fields[key] = convert(vals[0])
    return ExperimentConfig(**fields)


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
    return TrialRecord(
        delta=params.delta, lam=params.lam, n=n, seed=seed,
        risk=risk(h_star, h_edges), edges=len(h_edges), deg1=report.deg1_count,
        symdiff=len(symmetric_difference(h_star.edges, h_edges)), ms=ms,
        updates_a=state.updates_a, updates_b=state.updates_b,
    )


def _trial_task(args) -> TrialRecord | Exception:
    try:
        return run_trial(*args)
    except Exception as exc:          # error rows keep the sweep going
        return exc


def _process_pool():
    """The process-pool class, imported here so that importing the package
    loads no process-pool modules; only a parallel sweep needs them."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def sweep(config: ExperimentConfig) -> str:
    """Run every (delta, lambda, n) cell of the config and render the CSV:
    one row per trial plus mean/std aggregate rows per cell."""
    tasks = [(ModelParams(n=n, lam=lam, delta=d, variant=config.variant),
              trial_seed(config.seed, cell_idx, t), config.max_len, config.quota)
             for cell_idx, (d, lam, n) in enumerate(config.cells())
             for t in range(config.trials)]
    workers = min(config.threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with _process_pool()(max_workers=workers) as pool:
            results = list(pool.map(_trial_task, tasks))
    else:
        results = list(map(_trial_task, tasks))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS)
    blanks = [""] * (len(MEASURES) - 1)
    outcomes = iter(zip(tasks, results))            # task order: cell by cell
    for d, lam, n in config.cells():
        records = []
        for (_, seed, _, _), rec in itertools.islice(outcomes, config.trials):
            if isinstance(rec, Exception):
                writer.writerow([d, lam, n, seed, "error", *blanks])
            else:
                writer.writerow(rec.row())
                records.append(rec)
        if records:
            cols = [([getattr(r, column) for r in records], fmt) for column, fmt in MEASURES]
            means = [format(np.mean(v), fmt or ".1f") for v, fmt in cols]
            writer.writerow([d, lam, n, "mean", *means])
            writer.writerow([d, lam, n, "std", format(np.std(cols[0][0]), cols[0][1]), *blanks])
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
    ptr, nbr, _, _ = g.adj
    adj = [nbr[ptr[v]:ptr[v + 1]] for v in range(n)]
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
        if len(path) >= 3 and anchor in adj[v] and path[1] < v:
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
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    hits = 0
    for _ in range(trials):
        g, h_star = sample_instance(params, rng)
        factors = enumerate_two_factors(g, params.support_size)
        if not any(f.edges == h_star.edges for f in factors):
            raise AssertionError("the planted cover is missing from the enumerated 2-factors")
        if len(factors) == 1:
            hits += 1
    return hits / trials
