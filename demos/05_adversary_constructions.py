"""Above the threshold: building competing cycle covers.

The impossibility side reserves vertex-disjoint red edges whose
endpoints only meet through blue edges, grows two-sided trees whose
layers are balanced (m*, m*)-paths, links tree sides through five-edge
connectors (three blue + two red), and reads balanced cycles off the
link graph.  Each balanced cycle C makes H* XOR C a competing cover at
positive risk.  The theory's parameter recipe is astronomically large;
at desk scale the structural invariants are checkable but the cycle
yield is essentially zero (see docs/criterion-9.md).
"""

import numpy as np

import plantedcycles as pc
from plantedcycles.adversary import ReservedEdgeSet, TreeSide, TwoSidedTree

# what the asymptotic recipe would demand at lambda=0.8, gamma=0.05:
p = pc.theory_params(lam=0.8, delta=1.0, m_star=1, gamma=0.05, c_mm=1.6)
print(f"theory recipe: ell={p.ell:.0f}, d={p.d:.0f}, zeta={p.zeta:.2f} "
      f"vs bound {p.zeta_bound:.4f} (feasible: {p.gamma_feasible})")

# desk-scale run: trees grow, linking is the bottleneck
params = pc.ModelParams(n=2000, lam=0.8, delta=1.0)
rng = pc.rng_for(3)
g, h_star = pc.sample_instance(params, rng)
reserved = pc.reserve_edges(h_star, 0.1, g.n)
built = pc.build_trees(g, reserved.available, 1, 1, 0.1, rng)
link = pc.link_trees(g, built.trees, reserved, 1, rng)
print(f"\nn=2000, lambda=0.8: reserved {len(reserved.edges)} edges, "
      f"built {len(built.trees)} two-sided trees, admitted {len(link.admitted)}, "
      f"link edges {len(link.blue)}")

# a hand-built two-tree instance shows the whole pipeline end to end
centers = [(0, 1), (2, 3)]
reserved_edges = [(10, 11), (12, 13), (14, 15), (16, 17)]
red, helpers = [], iter(range(20, 26))
for (u, v) in centers + reserved_edges:
    w = next(helpers)
    red += [(u, v), (u, w), (v, w)]
rng = pc.rng_for(5)
perm = rng.permutation(4)
e_l = sorted(reserved_edges[i] for i in perm[:2])
e_r = sorted(reserved_edges[i] for i in perm[2:])
blue = [(0, e_l[0][0]), (1, e_r[0][0]), (2, e_l[1][0]), (3, e_r[1][0]),
        (e_l[0][1], e_r[1][1]), (e_l[1][1], e_r[0][1])]
g = pc.ColoredGraph(30, blue, red)
trees = [TwoSidedTree((0, 1), TreeSide(0, {}), TreeSide(1, {})),
         TwoSidedTree((2, 3), TreeSide(2, {}), TreeSide(3, {}))]
res = ReservedEdgeSet(tuple(reserved_edges), frozenset(), 5)
link = pc.link_trees(g, trees, res, d=1, rng=pc.rng_for(5))
cycles = pc.extract_balanced_cycles(link, trees, g)
c = cycles[0]
print(f"\nfixture link graph blue edges: {sorted(link.blue)} (a 2-cycle)")
print(f"extracted balanced cycle ({c.red} red, {c.blue} blue): {c.vertices}")
h_star = pc.TwoFactor(g.planted)
competing = pc.symmetric_difference(h_star.edges,
                                    pc.edge_set(zip(c.vertices, c.vertices[1:])))
print(f"H* XOR C is a 2-factor: {bool(pc.TwoFactor(competing))}, "
      f"risk {pc.risk(h_star, competing):.3f}")

# the bipartite matching + blue-ER model behind the link-graph analysis
stats = pc.bipartite_alternating_cycles(40, 1200, pc.rng_for(9), cap=100)
print(f"\nbipartite model k=40, D=1200: longest alternating cycle "
      f"{stats.longest_edges} edges")
