"""tools/bench_pairs.py's statistics, on synthetic pairs, and its copy of the
working tree (no benchmark runs)."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SEEDS = [*range(11, 20), 1000]
HIGHER = {"instances_per_s": {"better": "higher", "bound": 0.25}}


def pairs_of(base, head, seeds=SEEDS, metric="instances_per_s"):
    return [{"seed": s,
             "base": {"correct": True, "attempted": 5, "failed": 0, metric: b},
             "head": {"correct": True, "attempted": 5, "failed": 0, metric: h}}
            for s, b, h in zip(seeds, base, head)]


def test_sign_test():
    assert bench_pairs.sign_test(10, 0) == pytest.approx(2 / 1024)
    assert bench_pairs.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert bench_pairs.sign_test(0, 10) == bench_pairs.sign_test(10, 0)
    assert bench_pairs.sign_test(5, 5) == 1.0
    assert bench_pairs.sign_test(0, 0) == 1.0            # all ties: no evidence


def test_gain_claimable_at_nine_of_ten_pairs():
    base = [10.0 + 0.1 * i for i in range(10)]
    head = [1.5 * b for b in base]
    head[3] = base[3] * 0.99                             # one pair worse
    m = bench_pairs.summarise("adversary", pairs_of(base, head),
                              HIGHER)["instances_per_s"]
    assert m["pairs_better"] == "9/10"
    assert m["sign_test_p"] == pytest.approx(2 * 11 / 1024)
    assert m["gain_claimable"]
    assert m["ratios"]["1000"] == pytest.approx(1.5)
    assert m["median_ratio"] == pytest.approx(1.5)


def test_no_gain_at_eight_of_ten_pairs():
    base = [10.0 + 0.1 * i for i in range(10)]
    head = [1.5 * b for b in base]
    head[3] = head[7] = 9.0                              # two pairs worse
    m = bench_pairs.summarise("adversary", pairs_of(base, head),
                              HIGHER)["instances_per_s"]
    assert m["pairs_better"] == "8/10"
    assert not m["gain_claimable"]


def test_ties_count_for_neither_side():
    base = [10.0 + 0.1 * i for i in range(10)]
    head = [2 * b for b in base]
    head[0], head[1] = base[0], base[1]                  # two ties, eight better
    m = bench_pairs.summarise("adversary", pairs_of(base, head),
                              HIGHER)["instances_per_s"]
    assert m["pairs_better"] == "8/10"
    assert m["sign_test_p"] == pytest.approx(2 / 256)   # 8 against 0
    assert not m["gain_claimable"]
    head[1] = 2 * base[1]                                # one tie, nine better
    m = bench_pairs.summarise("adversary", pairs_of(base, head),
                              HIGHER)["instances_per_s"]
    assert m["pairs_better"] == "9/10"
    assert m["sign_test_p"] == pytest.approx(2 / 512)
    assert m["gain_claimable"]


def test_lower_is_better_metric():
    base = [0.050 + 0.001 * i for i in range(10)]
    faster = [0.6 * b for b in base]
    slower = [1.4 * b for b in base]
    better = {"instance_p50_s": {"better": "lower", "bound": 0.25}}
    m = bench_pairs.summarise("adversary", pairs_of(base, faster, metric="instance_p50_s"),
                              better)["instance_p50_s"]
    assert m["better"] == "lower"
    assert m["pairs_better"] == "10/10"
    assert m["gain_claimable"]
    m = bench_pairs.summarise("adversary", pairs_of(base, slower, metric="instance_p50_s"),
                              better)["instance_p50_s"]
    assert m["pairs_better"] == "0/10"
    assert m["sign_test_p"] == pytest.approx(2 / 1024)
    assert not m["gain_claimable"]


def test_gain_must_clear_the_base_quartiles():
    # 10/10 pairs better, but by less than the base's interquartile distance
    base = [10.0, 20.0] * 5
    head = [b * 1.01 for b in base]
    m = bench_pairs.summarise("adversary", pairs_of(base, head),
                              HIGHER)["instances_per_s"]
    assert m["pairs_better"] == "10/10"
    assert not m["gain_claimable"]


@pytest.mark.parametrize("side,field,value", [("base", "correct", False),
                                              ("head", "correct", False),
                                              ("base", "failed", 1),
                                              ("head", "failed", 2)])
def test_a_bad_run_is_not_summarised(side, field, value):
    pairs = pairs_of([10.0] * 10, [15.0] * 10)
    pairs[4][side][field] = value
    with pytest.raises(RuntimeError, match=f"adversary seed 15: the {side} side"):
        bench_pairs.summarise("adversary", pairs, HIGHER)


def test_within_bound_on_a_tight_base():
    base = [10.0 + 0.1 * i for i in range(10)]
    m = bench_pairs.summarise("recover", pairs_of(base, [0.8 * b for b in base]),
                              HIGHER)["instances_per_s"]
    assert m["within_bound"] is True                     # 20% worse, bound 25%
    m = bench_pairs.summarise("recover", pairs_of(base, [0.7 * b for b in base]),
                              HIGHER)["instances_per_s"]
    assert m["within_bound"] is False                    # 30% worse
    lower = {"setup_s": {"better": "lower", "bound": 0.25}}
    m = bench_pairs.summarise("recover", pairs_of(base, [1.3 * b for b in base], metric="setup_s"),
                              lower)["setup_s"]
    assert m["within_bound"] is False


def test_within_bound_unresolved_on_a_wide_base():
    # the base's own runs spread 0.38-0.54 around a 0.45 median: wider than 25%
    base = [0.38, 0.54, 0.44, 0.46, 0.40, 0.50, 0.45, 0.45, 0.42, 0.48]
    lower = {"setup_s": {"better": "lower", "bound": 0.25}}
    for scale in (0.95, 1.0, 1.4):
        m = bench_pairs.summarise("recover", pairs_of(base, [scale * b for b in base],
                                                      metric="setup_s"), lower)["setup_s"]
        assert m["within_bound"] == "unresolved"
    # unless every head run beats every base run
    m = bench_pairs.summarise("recover", pairs_of(base, [0.30 + 0.001 * i for i in range(10)],
                                                  metric="setup_s"), lower)["setup_s"]
    assert m["within_bound"] is True


def test_copy_worktree_holds_uncommitted_edits_and_no_git(tmp_path):
    root, into = tmp_path / "repo", tmp_path / "copy"
    (root / "bench" / "out").mkdir(parents=True)
    (root / "pkg").mkdir()
    (root / ".gitignore").write_text("bench/out/\n*.log\n")
    (root / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (root / "gone.py").write_text("")
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    (root / "pkg" / "mod.py").write_text("VALUE = 2\n")          # uncommitted edit
    (root / "pkg" / "new.py").write_text("")                     # untracked, not ignored
    (root / "gone.py").unlink()                                  # tracked, deleted
    (root / "run.log").write_text("")                            # ignored
    (root / "bench" / "out" / "r.json").write_text("{}")        # ignored
    into.mkdir()
    bench_pairs.copy_worktree(str(root), str(into))
    assert (into / "pkg" / "mod.py").read_text() == "VALUE = 2\n"
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert not (into / ".git").exists() and not (into / "bench").exists()
