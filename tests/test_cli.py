import csv

import pytest

from plantedcycles.cli import main
from plantedcycles import ColoredGraph, ModelParams, rng_for, sample_instance

from conftest import deadline


def run(args):
    return main(args)


def test_generate_recover_decompose_roundtrip(tmp_path, capsys):
    g_path, t_path, h_path = (str(tmp_path / f) for f in ("g.txt", "t.txt", "h.txt"))
    assert run(["--seed", "3", "--out", g_path, "generate", "--n", "60",
                "--lambda", "0.3", "--delta", "1.0", "--truth", t_path]) == 0
    g = ColoredGraph.load(g_path)
    truth = ColoredGraph.load(t_path)
    assert truth.planted == g.planted
    assert run(["--out", h_path, "recover", "--graph", g_path,
                "--truth", t_path]) == 0
    out = capsys.readouterr().out
    assert "risk=" in out
    assert run(["decompose", "--truth", t_path, "--candidate", h_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines:
        kind, a, b, _verts = line.split(",")
        assert kind in ("open", "closed")
        int(a), int(b)


def test_trails_csv(tmp_path, capsys):
    g_path = str(tmp_path / "g.txt")
    ColoredGraph(3, [(0, 1), (1, 2), (0, 2)], ()).save(g_path)
    assert run(["trails", "--graph", g_path, "--max-len", "4", "--classify"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["id", "length", "a", "b", "closed"]
    assert len(rows) == 1 + 7


def test_genfun_command(capsys):
    assert run(["genfun", "--lambda", "0.4", "--delta", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "threshold=0.5" in out and "regime=below" in out
    assert "witness: x=" in out


def test_genfun_table(tmp_path):
    out = str(tmp_path / "table.csv")
    for lam in ("0.4", "1e308"):
        assert run(["--out", out, "genfun", "--lambda", lam, "--delta", "1.0",
                    "--table", "3"]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["a", "b", "value"]
        assert len(rows) == 10
        assert "nan" not in {value for _, _, value in rows[1:]}


def test_genfun_zero_lambda_prints_the_zero_table(tmp_path, capsys):
    out = str(tmp_path / "table.csv")
    assert run(["--out", out, "genfun", "--lambda", "0", "--delta", "0.5",
                "--table", "2"]) == 0
    printed = capsys.readouterr().out
    assert "regime=below" in printed and "witness: none" in printed
    assert "expected_diff_bound=None" in printed
    rows = list(csv.reader(open(out)))
    assert rows[1:] == [[a, b, "0"] for a in "12" for b in "12"]


def test_genfun_just_below_the_threshold(capsys):
    assert run(["genfun", "--lambda", "0.4999999995", "--delta", "1"]) == 0
    out = dict(kv.split("=") for line in capsys.readouterr().out.splitlines()
               for kv in line.replace("witness: ", "").split() if "=" in kv)
    assert float(out["epsilon"]) > 0
    assert float(out["expected_diff_bound"]) > 0


def test_genfun_table_order_exit_code(tmp_path):
    out = str(tmp_path / "table.csv")
    for order in ("513", "0", "-3"):
        assert run(["--out", out, "genfun", "--lambda", "0.6", "--delta", "1",
                    "--table", order]) == 2


def test_branching_poisson_out_of_range_exit_code():
    assert run(["branching", "--law", "poisson:740", "--depth", "5", "--runs", "10"]) == 2


def test_branching_command(capsys):
    assert run(["--seed", "2", "branching", "--law", "poisson:2.0",
                "--depth", "20", "--runs", "2000"]) == 0
    out = capsys.readouterr().out
    assert "bound=0.5" in out


def test_sweep_command(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("delta=1.0\nlambda=0.2\nn=30\ntrials=2\nseed=5\n")
    out = str(tmp_path / "sweep.csv")
    assert run(["--out", out, "sweep", "--config", str(cfg)]) == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 5


def test_enumerate_command(tmp_path, capsys):
    g_path = str(tmp_path / "g.txt")
    ColoredGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)], ()).save(g_path)
    assert run(["enumerate", "--graph", g_path, "--k", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "3"


def test_adversary_command(tmp_path, capsys):
    g_path, t_path = str(tmp_path / "g.txt"), str(tmp_path / "t.txt")
    out = str(tmp_path / "cycles.txt")
    assert run(["--seed", "3", "--out", g_path, "generate", "--n", "200",
                "--lambda", "0.8", "--delta", "1.0", "--truth", t_path]) == 0
    capsys.readouterr()
    args = ["--seed", "4", "--out", out, "adversary", "--graph", g_path,
            "--truth", t_path, "--gamma", "0.05", "--ell", "1", "--d", "1"]
    assert run(args) == 0
    assert "trees=" in capsys.readouterr().out
    assert run(args + ["--limit", "-1"]) == 2
    assert "limit=-1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--limit", "-1"), ("--d", "0"), ("--ell", "0"),
                                        ("--m-star", "0"), ("--m-star", "-2")])
def test_adversary_checks_its_knobs_before_the_pipeline(tmp_path, capsys, monkeypatch, flag, value):
    g_path, t_path = str(tmp_path / "g.txt"), str(tmp_path / "t.txt")
    assert run(["--seed", "3", "--out", g_path, "generate", "--n", "60",
                "--lambda", "0.8", "--delta", "1.0", "--truth", t_path]) == 0
    capsys.readouterr()

    def reserve_edges(*args):
        raise AssertionError("reserve_edges ran before the arguments were checked")

    monkeypatch.setattr("plantedcycles.adversary.reserve_edges", reserve_edges)
    args = {"--gamma": "0.05", "--ell": "1", "--d": "1", flag: value}
    argv = ["--out", str(tmp_path / "c.txt"), "adversary", "--graph", g_path, "--truth", t_path]
    assert run(argv + [w for kv in args.items() for w in kv]) == 2
    assert f"{flag.lstrip('-').replace('-', '_')}={value} must be" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["-0.1", "nan", "inf"])
def test_adversary_checks_gamma_before_it_loads_anything(tmp_path, capsys, gamma):
    # the files do not exist: the check on --gamma comes first
    argv = ["--out", str(tmp_path / "c.txt"), "adversary", "--graph", str(tmp_path / "g.txt"),
            "--truth", str(tmp_path / "t.txt"), "--gamma", gamma, "--ell", "1", "--d", "1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"gamma={float(gamma)} must be finite and >= 0" in err and "g.txt" not in err


def test_precondition_exit_code(tmp_path):
    assert run(["--out", str(tmp_path / "x"), "generate", "--n", "10",
                "--lambda", "0.5", "--delta", "0.2"]) == 2
    assert run(["decompose", "--truth", "missing.txt",
                "--candidate", "missing.txt"]) == 2


def test_explosion_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("plantedcycles.trails.DEFAULT_TRAIL_CAP", 500)
    g_path = str(tmp_path / "g.txt")
    n = 8
    ColoredGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], ()).save(g_path)
    assert run(["trails", "--graph", g_path, "--max-len", "6"]) == 3


def test_recover_with_a_huge_max_len(tmp_path):
    g, _ = sample_instance(ModelParams(30, 0.5, 1.0), rng_for(1))
    g_path, want, got = (str(tmp_path / f) for f in ("g.txt", "want.txt", "got.txt"))
    g.save(g_path)
    assert run(["--out", want, "recover", "--graph", g_path,
                "--max-len", str(len(g.edges) + 1)]) == 0
    with deadline(30):
        assert run(["--out", got, "recover", "--graph", g_path,
                    "--max-len", "1000000000"]) == 0
    assert ColoredGraph.load(got).edges == ColoredGraph.load(want).edges


def test_branching_runs_past_the_memory_budget_exit_code(capsys):
    assert run(["branching", "--law", "poisson:2", "--runs", "1000000000000",
                "--depth", "3"]) == 2
    assert "budget" in capsys.readouterr().err


def test_branching_with_a_huge_depth_stops_once_every_run_dies(capsys):
    args = ["--seed", "4", "branching", "--law", "poisson:0.5", "--runs", "10", "--depth"]
    assert run(args + ["1000"]) == 0
    want = capsys.readouterr().out
    with deadline(20):
        assert run(args + ["1000000000"]) == 0
    assert capsys.readouterr().out == want
    assert "empirical=0.000000" in want


def test_missing_out_errors():
    with pytest.raises(SystemExit):
        main(["generate", "--n", "30", "--lambda", "0.3", "--delta", "1.0"])


def test_sweep_unknown_key_exit_code(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("delta=1.0\nlambda=0.2\nn=30\ntrails=10\n")
    assert run(["sweep", "--config", str(cfg)]) == 2
    cfg.write_text("delta=1.0\nlambda=0.2\nn=30\n")
    assert run(["--threads", "0", "sweep", "--config", str(cfg)]) == 2


def test_adversary_truth_must_be_red_in_graph(tmp_path):
    g_path, t_path = str(tmp_path / "g.txt"), str(tmp_path / "t.txt")
    ColoredGraph(6, [(0, 3)], [(0, 1), (1, 2), (0, 2)]).save(g_path)
    ColoredGraph(6, [], [(3, 4), (4, 5), (3, 5)]).save(t_path)
    assert run(["--out", str(tmp_path / "c.txt"), "adversary", "--graph", g_path,
                "--truth", t_path, "--gamma", "0.1", "--ell", "1", "--d", "1"]) == 2


def test_empty_graph_file_exit_code(tmp_path):
    g_path = tmp_path / "empty.txt"
    for text in ("", " \n\n"):
        g_path.write_text(text)
        assert run(["trails", "--graph", str(g_path)]) == 2


def test_all_zero_offspring_law_exit_code(tmp_path):
    law = tmp_path / "law.txt"
    law.write_text("0 0\n")
    assert run(["branching", "--law", str(law), "--depth", "5", "--runs", "10"]) == 2


def test_generate_and_sweep_instance_size_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr("plantedcycles.graphcore.MAX_LOADED_N", 100)
    monkeypatch.setattr("plantedcycles.sampler.MAX_EXPECTED_EDGES", 100)
    out = str(tmp_path / "g.txt")
    for n, lam in (("101", "0.01"), ("100", "1.5")):      # n above; 50 + 74.25 edges
        assert run(["--out", out, "generate", "--n", n, "--lambda", lam,
                    "--delta", "0.5"]) == 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("delta=0.5\nlambda=0.01\nn=101\n")
    assert run(["sweep", "--config", str(cfg)]) == 2


def _forbid_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("an instance was sampled")

    monkeypatch.setattr("plantedcycles.cli.sample_instance", no_sampling)
    monkeypatch.setattr("plantedcycles.harness.sample_instance", no_sampling)


def test_generate_nan_lambda_exits_before_sampling(tmp_path, monkeypatch):
    _forbid_sampling(monkeypatch)
    assert run(["--out", str(tmp_path / "g.txt"), "generate", "--n", "30",
                "--lambda", "nan", "--delta", "1.0"]) == 2


def test_sweep_nan_lambda_exit_code(tmp_path, monkeypatch):
    _forbid_sampling(monkeypatch)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("delta=1.0\nlambda=nan\nn=30\n")
    assert run(["sweep", "--config", str(cfg)]) == 2


def test_graph_header_vertex_count_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr("plantedcycles.graphcore.MAX_LOADED_N", 10)
    g_path = tmp_path / "g.txt"
    for text in ("11 0\n", "-1 0\n"):
        g_path.write_text(text)
        assert run(["trails", "--graph", str(g_path)]) == 2


def test_non_finite_or_negative_offspring_weight_exit_code(tmp_path):
    law = tmp_path / "law.txt"
    for text in ("nan 1\n", "-1 1\n"):
        law.write_text(text)
        assert run(["branching", "--law", str(law), "--depth", "5", "--runs", "10"]) == 2


def test_decompose_truth_with_a_blue_line_exit_code(tmp_path):
    t_path, h_path = str(tmp_path / "t.txt"), str(tmp_path / "h.txt")
    ColoredGraph(6, [(0, 3)], [(0, 1), (1, 2), (0, 2)]).save(t_path)
    ColoredGraph(6, [(0, 1), (1, 2)], ()).save(h_path)
    assert run(["decompose", "--truth", t_path, "--candidate", h_path]) == 2
