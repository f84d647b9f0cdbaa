"""Command-line front end.

Subcommands: generate, recover, trails, decompose, genfun, adversary,
branching, sweep, enumerate.  Exit codes: 0 success, 2 precondition
error, 3 trail-explosion cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import adversary as adv
from . import branching as br
from . import genfun
from .graphcore import ColoredGraph, TwoFactor, risk, validate_structure
from .harness import enumerate_two_factors, parse_config, rng_for, sweep
from .decomposition import decompose_diff
from .recovery import recover, default_max_len
from .sampler import ModelParams, sample_instance
from .trails import TrailExplosionError, classify_ab_trail, enumerate_trails


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_truth(path: str) -> TwoFactor:
    g = ColoredGraph.load(path)
    if not g.red.all():
        raise ValueError(f"truth file {path} has B lines; every line must be R")
    return g.cover


def _cmd_generate(args) -> int:
    params = ModelParams(n=args.n, lam=args.lam, delta=args.delta, variant=args.variant)
    rng = rng_for(args.seed)
    g, h_star = sample_instance(params, rng)
    g.save(args.out)
    if args.truth:
        ColoredGraph(g.n, (), h_star).save(args.truth)
    print(f"wrote {args.out}: n={g.n} edges={len(g.ends)} red={len(g.cover.ends)}")
    return 0


def _cmd_recover(args) -> int:
    g = ColoredGraph.load(args.graph)
    h = recover(g, max_len=args.max_len, quota=args.quota).edges
    ColoredGraph(g.n, h, ()).save(args.out)
    report = validate_structure(h)
    print(f"|H|={len(h)} deg1={report.deg1_count} "
          f"cycles={report.n_cycles} paths={report.n_paths}")
    if args.truth:
        h_star = _load_truth(args.truth)
        print(f"risk={risk(h_star, h):.6f}")
    return 0


def _cmd_trails(args) -> int:
    g = ColoredGraph.load(args.graph)
    max_len = args.max_len or default_max_len(g.n)
    ts = enumerate_trails(g, max_len)
    lines = ["id,length,a,b,closed"]
    support = g.red_support()
    for i, t in enumerate(ts):
        if args.classify:
            ab = classify_ab_trail(g, t, support)
            a, b = ("", "") if ab is None else ab
        else:
            a, b = "", ""
        lines.append(f"{i},{t.length},{a},{b},{int(t.closed)}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_decompose(args) -> int:
    h_star = _load_truth(args.truth)
    cand = ColoredGraph.load(args.candidate)
    decomp = decompose_diff(h_star, cand.edges)
    lines = []
    for t, (a, b) in zip(decomp.trails, decomp.profiles):
        kind = "closed" if t.closed else "open"
        lines.append(f"{kind},{a},{b},{' '.join(map(str, t.vertices))}")
    _write_or_print("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_genfun(args) -> int:
    table = None if args.table is None else genfun.coefficient_table(args.lam, args.delta,
                                                                     args.table)
    rep = genfun.report(args.lam, args.delta)
    print(f"lambda={rep.lam} delta={rep.delta}")
    print(f"threshold={rep.threshold:.9f} regime={rep.regime}")
    if rep.witness:
        w = rep.witness
        print(f"witness: x={w.x:.9g} y={w.y:.9g} epsilon={w.epsilon:.9g}")
    else:
        print("witness: none")
    print(f"m_star={rep.m_star}")
    print(f"expected_diff_bound={rep.expected_diff_bound}")
    if table:
        lines = ["a,b,value"]
        for a, row in enumerate(table, 1):
            lines.extend(f"{a},{b},{c:.12g}" for b, c in enumerate(row, 1))
        _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_adversary(args) -> int:
    # the stages would reject these knobs only after the earlier stages ran
    m_star = None if args.m_star == "auto" else int(args.m_star)
    if args.limit < 0:
        raise ValueError(f"limit={args.limit} must be >= 0")
    for name, value in (("d", args.d), ("ell", args.ell), ("m_star", m_star)):
        if value is not None and value < 1:
            raise ValueError(f"{name}={value} must be >= 1")
    adv.check_gamma(args.gamma)
    g = ColoredGraph.load(args.graph)
    h_star = _load_truth(args.truth)
    if not h_star.edges <= g.planted:
        raise ValueError("the truth's edges are not red edges of the graph")
    if m_star is None:
        delta_eff = len(h_star.support) / g.n
        blue = len(g.blue_edges)
        pairs = g.n * (g.n - 1) // 2 - len(h_star.edges)
        lam_hat = blue * g.n / pairs if pairs else 1.0
        m_star = genfun.find_m_star(lam_hat, delta_eff, 16) or 1
    rng = rng_for(args.seed)
    reserved = adv.reserve_edges(h_star, args.gamma, g.n)
    built = adv.build_trees(g, reserved.available, m_star, args.ell, args.gamma, rng)
    link = adv.link_trees(g, built.trees, reserved, args.d, rng)
    cycles = adv.extract_balanced_cycles(link, built.trees, g, limit=args.limit)
    lines = []
    for c in cycles:
        tokens = [str(c.vertices[0])]
        for a, b in zip(c.vertices, c.vertices[1:]):
            e = (a, b) if a < b else (b, a)
            tokens.append("R" if g.is_red(e) else "B")
            tokens.append(str(b))
        lines.append(" ".join(tokens))
    _write_or_print("\n".join(lines) + ("\n" if lines else ""), args.out)
    print(f"trees={len(built.trees)} admitted={len(link.admitted)} "
          f"link_edges={len(link.blue)} cycles={len(cycles)}")
    return 0


def _cmd_branching(args) -> int:
    if args.law.startswith("poisson:"):
        spec = br.OffspringSpec.poisson(float(args.law.split(":", 1)[1]))
    else:
        with open(args.law, encoding="ascii") as f:
            probs = [float(x) for x in f.read().split()]
        spec = br.OffspringSpec.from_probs(probs)
    bound = br.survival_bound(spec.mean, spec.variance)
    rate = br.simulate_survival(spec, args.depth, args.runs, rng_for(args.seed))
    se = float(np.sqrt(max(rate * (1 - rate), 1e-12) / args.runs))
    print(f"mu={spec.mean:.6f} sigma2={spec.variance:.6f}")
    print(f"bound={bound:.6f} empirical={rate:.6f} se={se:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config, encoding="ascii") as f:
        config = parse_config(f.read())
    given = {"out": args.out or None, "threads": args.threads}
    config = dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})
    csv_text = sweep(config)
    _write_or_print(csv_text, config.out)
    return 0


def _cmd_enumerate(args) -> int:
    g = ColoredGraph.load(args.graph)
    factors = enumerate_two_factors(g, args.k)
    print(len(factors))
    for f in factors:
        print(" ".join(f"{u}-{v}" for u, v in sorted(f.edges)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plantedcycles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="sample a model instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--variant", default="two-factor",
                    choices=["two-factor", "single-cycle"])
    sp.add_argument("--truth", default=None)
    sp.set_defaults(func=_cmd_generate, needs_out=True)

    sp = sub.add_parser("recover", help="run the greedy estimator")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--truth", default=None)
    sp.add_argument("--max-len", dest="max_len", type=int, default=None)
    sp.add_argument("--quota", type=int, default=None)
    sp.set_defaults(func=_cmd_recover, needs_out=True)

    sp = sub.add_parser("trails", help="enumerate bounded-length trails")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--max-len", dest="max_len", type=int, default=None)
    sp.add_argument("--classify", action="store_true")
    sp.set_defaults(func=_cmd_trails)

    sp = sub.add_parser("decompose", help="alternating-trail decomposition")
    sp.add_argument("--truth", required=True)
    sp.add_argument("--candidate", required=True)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("genfun", help="threshold / coefficient analysis")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--table", type=int, default=None)
    sp.set_defaults(func=_cmd_genfun)

    sp = sub.add_parser("adversary", help="balanced-cycle construction")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m-star", dest="m_star", default="auto")
    sp.add_argument("--limit", type=int, default=1000)
    sp.set_defaults(func=_cmd_adversary, needs_out=True)

    sp = sub.add_parser("branching", help="survival bound vs simulation")
    sp.add_argument("--law", required=True, help="probs file or poisson:LAMBDA")
    sp.add_argument("--depth", type=int, default=30)
    sp.add_argument("--runs", type=int, default=100000)
    sp.set_defaults(func=_cmd_branching)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep from a config file")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("enumerate", help="brute-force 2-factor enumeration")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_enumerate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_out", False) and not args.out:
        parser.error(f"{args.command} requires --out")
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrailExplosionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
