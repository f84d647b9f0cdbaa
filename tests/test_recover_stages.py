"""tools/recover_stages.py on a tiny instance."""

import importlib.util
from pathlib import Path

from plantedcycles import ModelParams, recover, rng_for, sample_instance
from plantedcycles import recovery

_spec = importlib.util.spec_from_file_location(
    "recover_stages", Path(__file__).resolve().parent.parent / "tools" / "recover_stages.py")
recover_stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recover_stages)


def test_recover_stages_prints_one_table_row(capsys):
    originals = [getattr(recovery, name) for name in recover_stages.STAGES]
    recover_stages.main(["120", "0.3", "1", "5"])
    cells = capsys.readouterr().out.strip().strip("|").split("|")
    assert [getattr(recovery, name) for name in recover_stages.STAGES] == originals
    g, _ = sample_instance(ModelParams(120, 0.3, 1), rng_for(5))
    _, state = recover(g, return_state=True)
    n, lam, max_len, trails, *times, iterations, updates, evaluations = (c.strip() for c in cells)
    assert (n, lam, max_len) == ("120", "0.3", str(recovery.default_max_len(120)))
    assert len(times) == 4 and all(float(t) >= 0 for t in times)
    assert int(iterations) == state.iterations
    assert updates == f"{state.updates_a} / {state.updates_b}"
    assert evaluations == f"{state.evaluations / 1000:.1f}k"
    assert float(trails.rstrip("k")) > 0


def test_recover_stages_reports_the_least_of_three_runs(monkeypatch):
    runs = []
    timed_run = recover_stages._timed_run

    def recorded(g):
        spent, last, state = timed_run(g)
        runs.append(dict(spent))
        return spent, last, state

    monkeypatch.setattr(recover_stages, "_timed_run", recorded)
    row = recover_stages.stages(120, 0.3, 1, 5)
    assert len(runs) == 3
    for name in recover_stages.STAGES:
        assert row[name] == min(run[name] for run in runs)
