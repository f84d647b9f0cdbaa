import csv
import dataclasses
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from plantedcycles import (ColoredGraph, ExperimentConfig, ModelParams,
                           enumerate_two_factors, exact_recovery_check,
                           parse_config, rng_for, run_trial, sweep, trial_seed)
from plantedcycles import graphcore, harness

from conftest import complete_graph, cyclic_garbage


def test_trial_seed_is_stable():
    # the mixing function is part of the published interface
    assert trial_seed(0, 0, 0) == trial_seed(0, 0, 0)
    assert trial_seed(1, 0, 0) != trial_seed(0, 0, 0)
    assert trial_seed(0, 1, 0) != trial_seed(0, 0, 1)
    seen = {trial_seed(5, c, t) for c in range(50) for t in range(50)}
    assert len(seen) == 2500


def test_parse_config_lists():
    cfg = parse_config("""
        # grid
        delta=1.0
        delta=0.5
        lambda=0.2
        n=40
        trials=2
        seed=9
    """)
    assert cfg.deltas == (1.0, 0.5)
    assert cfg.lambdas == (0.2,)
    assert cfg.cells() == [(1.0, 0.2, 40), (0.5, 0.2, 40)]
    with pytest.raises(ValueError):
        parse_config("delta=1.0")
    with pytest.raises(ValueError):
        parse_config("delta=1\nlambda=.2\nn=40\ntrials=1\ntrials=2")


def _read_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_sweep_single_cell_shape():
    cfg = ExperimentConfig(deltas=(1.0,), lambdas=(0.2,), ns=(30,), trials=3, seed=4)
    rows = _read_rows(sweep(cfg))
    assert rows[0] == ["delta", "lambda", "n", "seed", "risk", "edges", "deg1",
                       "symdiff", "ms"]
    assert len(rows) == 1 + 3 + 2                 # header + trials + mean + std
    assert rows[4][3] == "mean" and rows[5][3] == "std"


def test_sweep_empty_grid_header_only():
    cfg = ExperimentConfig(deltas=(), lambdas=(), ns=(), trials=1, seed=0)
    rows = _read_rows(sweep(cfg))
    assert len(rows) == 1


def test_sweep_rows_rederivable():
    cfg = ExperimentConfig(deltas=(1.0,), lambdas=(0.25,), ns=(36,), trials=2, seed=12)
    rows = _read_rows(sweep(cfg))
    for t in range(2):
        row = rows[1 + t]
        seed = int(row[3])
        assert seed == trial_seed(12, 0, t)
        rec = run_trial(ModelParams(n=36, lam=0.25, delta=1.0), seed)
        assert f"{rec.risk:.6f}" == row[4]
        assert str(rec.edges) == row[5]


def test_sweep_aggregates_match_recomputation():
    cfg = ExperimentConfig(deltas=(1.0,), lambdas=(0.3,), ns=(30,), trials=4, seed=3)
    rows = _read_rows(sweep(cfg))
    risks = [float(r[4]) for r in rows[1:5]]
    assert float(rows[5][4]) == pytest.approx(np.mean(risks), abs=1e-6)
    assert float(rows[6][4]) == pytest.approx(np.std(risks), abs=1e-6)


def test_run_trial_leaves_the_adjacency_unbuilt(monkeypatch):
    builds = []
    adj = graphcore.ColoredGraph.adj

    def spy(g):
        builds.append(g)
        return adj.fget(g)

    params = ModelParams(n=60, lam=0.3, delta=0.9)
    plain = run_trial(params, 17)
    monkeypatch.setattr(graphcore.ColoredGraph, "adj", property(spy))
    spied = run_trial(params, 17)
    assert builds == []
    assert dataclasses.replace(spied, ms=0) == dataclasses.replace(plain, ms=0)


def test_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(harness.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import plantedcycles; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_sweep_parallel_matches_serial():
    base = dict(deltas=(1.0,), lambdas=(0.3,), ns=(24,), trials=4, seed=8)
    serial = _read_rows(sweep(ExperimentConfig(**base, threads=1)))
    parallel = _read_rows(sweep(ExperimentConfig(**base, threads=2)))
    strip = [row[:-1] for row in serial]          # wall time is not reproducible
    assert strip == [row[:-1] for row in parallel]


def test_enumerate_two_factors_counts():
    assert len(enumerate_two_factors(complete_graph(3), 3)) == 1
    assert len(enumerate_two_factors(complete_graph(4), 4)) == 3
    ring = ColoredGraph(5, [(i, (i + 1) % 5) for i in range(5)], ())
    assert len(enumerate_two_factors(ring, 5)) == 1
    # on exactly k < n vertices: triangles of K4
    assert len(enumerate_two_factors(complete_graph(4), 3)) == 4
    with pytest.raises(ValueError):
        enumerate_two_factors(complete_graph(17), 17)


def test_enumerate_k6_cycle_type_split():
    factors = enumerate_two_factors(complete_graph(6), 6)
    kinds = {}
    for f in factors:
        key = tuple(sorted(len(c) for c in f.cycles()))
        kinds[key] = kinds.get(key, 0) + 1
    assert kinds == {(6,): 60, (3, 3): 10}


def test_sweep_error_rows_keep_run_going():
    # max_len=2 fails inside recover() per trial; rows become "error" and
    # aggregates cover only the (zero) successful trials
    cfg = ExperimentConfig(deltas=(1.0,), lambdas=(0.2,), ns=(30,), trials=2,
                           seed=1, max_len=2)
    rows = _read_rows(sweep(cfg))
    assert len(rows) == 3                          # header + 2 error rows
    assert all(r[4] == "error" for r in rows[1:])


def test_sweep_error_row_takes_the_failed_trials_place(monkeypatch):
    cfg = ExperimentConfig(deltas=(1.0,), lambdas=(0.3,), ns=(30,), trials=3, seed=6)
    failing = trial_seed(6, 0, 1)
    run = harness.run_trial

    def flaky(params, seed, max_len=None, quota=None):
        if seed == failing:
            raise RuntimeError("injected")
        return run(params, seed, max_len, quota)

    monkeypatch.setattr(harness, "run_trial", flaky)
    rows = _read_rows(sweep(cfg))
    assert [r[3] for r in rows[1:]] == [str(trial_seed(6, 0, 0)), str(failing),
                                        str(trial_seed(6, 0, 2)), "mean", "std"]
    assert rows[2] == ["1.0", "0.3", "30", str(failing), "error", "", "", "", ""]
    kept = [rows[1], rows[3]]
    for col in range(5, 8):                        # edges, deg1, symdiff
        assert rows[4][col] == f"{np.mean([int(r[col]) for r in kept]):.1f}"
    risks = [float(r[4]) for r in kept]
    assert float(rows[4][4]) == pytest.approx(np.mean(risks), abs=1e-6)
    assert float(rows[5][4]) == pytest.approx(np.std(risks), abs=1e-6)
    assert rows[5][5:] == ["", "", "", ""]


def test_parse_config_defaults_are_the_dataclass_defaults():
    grid = "delta=1.0\ndelta=0.5\nlambda=0.2\nn=40\n"
    assert parse_config(grid) == ExperimentConfig((1.0, 0.5), (0.2,), (40,))
    cfg = parse_config(grid + "max_len=\nquota=\nseed=4")
    assert (cfg.max_len, cfg.quota, cfg.seed) == (None, None, 4)
    with pytest.raises(ValueError):
        parse_config(grid + "trials=")


def test_sweep_risk_rises_across_threshold():
    # mean risk grows with lambda across the delta=1 threshold of 1/2
    cfg = ExperimentConfig(deltas=(1.0,), lambdas=(0.15, 0.3, 0.5, 0.7, 0.9),
                           ns=(150,), trials=8, seed=31)
    rows = _read_rows(sweep(cfg))
    means = [float(r[4]) for r in rows if r[3] == "mean"]
    rising = sum(a < b for a, b in zip(means, means[1:]))
    assert rising / (len(means) - 1) >= 0.9


def test_exact_recovery_lambda_small():
    params = ModelParams(n=9, lam=1e-9, delta=1.0)
    assert exact_recovery_check(params, 20, rng_for(1)) == 1.0


def test_two_factor_enumeration_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: enumerate_two_factors(complete_graph(7), 6)) == 0
    params = ModelParams(n=10, lam=1.0, delta=1.0)
    assert cyclic_garbage(lambda: exact_recovery_check(params, 20, rng_for(3))) == 0


def test_exact_recovery_dense_background_not_unique():
    params = ModelParams(n=9, lam=5.0, delta=1.0)
    freq = exact_recovery_check(params, 40, rng_for(2))
    assert freq < 1.0


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="trails"):
        parse_config("delta=1\nlambda=.2\nn=40\ntrails=10")


def test_config_rejects_threads_below_one():
    with pytest.raises(ValueError):
        ExperimentConfig(deltas=(1.0,), lambdas=(0.2,), ns=(30,), threads=0)
    with pytest.raises(ValueError):
        parse_config("delta=1\nlambda=.2\nn=40\nthreads=-1")


def test_sweep_caps_the_pool(monkeypatch):
    # a stand-in pool records its size and runs the tasks in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "_process_pool", lambda: RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    base = dict(deltas=(1.0,), lambdas=(0.2,), ns=(24,), seed=3, threads=10 ** 6)
    sweep(ExperimentConfig(**base, trials=3))
    sweep(ExperimentConfig(**base, trials=6))
    assert sizes == [3, 4]                         # capped by tasks, then by CPUs
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    sweep(ExperimentConfig(**base, trials=2))
    assert sizes == [3, 4]                         # unknown CPU count: serial


def test_exact_recovery_check_raises_when_the_cover_is_missed(monkeypatch):
    monkeypatch.setattr(harness, "enumerate_two_factors", lambda g, k: [])
    with pytest.raises(AssertionError, match="planted cover"):
        exact_recovery_check(ModelParams(n=9, lam=1e-9, delta=1.0), 1, rng_for(1))
