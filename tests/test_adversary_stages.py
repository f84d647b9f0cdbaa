"""tools/adversary_stages.py on two instances."""

import importlib.util
from pathlib import Path

from plantedcycles import adversary, sampler

_spec = importlib.util.spec_from_file_location(
    "adversary_stages", Path(__file__).resolve().parent.parent / "tools" / "adversary_stages.py")
adversary_stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(adversary_stages)


def test_adversary_stages_prints_one_table_row(capsys, monkeypatch):
    originals = [getattr(owner, name) for owner, name, _ in adversary_stages.STAGES]
    adversary_stages.main(["11", "2", "--repeats", "2"])
    head, rule, row = capsys.readouterr().out.strip().splitlines()
    assert [getattr(owner, name) for owner, name, _ in adversary_stages.STAGES] == originals
    cells = dict(zip((c.strip() for c in head.strip("|").split("|")),
                     (c.strip() for c in row.strip("|").split("|"))))
    assert len(cells) == len(rule.strip("|").split("|")) == 2 + 6 + 5
    assert (cells["seed"], cells["instances"]) == ("11", "2")
    times = {k: float(cells[f"{k} ms"]) for k in adversary_stages.TIMES}
    assert all(t > 0 for t in times.values())
    assert sum(times.values()) - times["instance"] <= times["instance"]

    # the counts of an uninstrumented run of the same two instances
    calls = {"permutations": 0, "layer walks": 0}

    def counted(key, fn):
        def run(*args):
            calls[key] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(sampler, "_accepts", counted("permutations", sampler._accepts))
    monkeypatch.setattr(adversary, "_layer_paths", counted("layer walks", adversary._layer_paths))
    work = adversary_stages.workloads.Adversary(11)
    trees = sum(len(work.run(i, traced=False)[2]) for i in range(2))
    counts = {k: int(cells[k]) for k in adversary_stages.COUNTS}
    assert counts["trees"] == trees > 0
    assert counts["permutations"] == calls["permutations"]
    assert counts["layer walks"] == calls["layer walks"] > 0
    # each accepted permutation runs every round, a rejected one at least one
    assert 2 <= counts["doubled"] < counts["permutations"]
    assert counts["rounds"] >= 2 * 10 + counts["doubled"] - 2
