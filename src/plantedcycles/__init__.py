"""Planted cycle recovery in sparse random graphs.

A hidden disjoint union of cycles covering a delta-fraction of the
vertices is buried in an Erdos-Renyi background of intensity lambda.
This package samples the model, recovers the cycles with a greedy
trail-XOR estimator below the threshold 1/(sqrt(2*delta)+sqrt(1-delta))^2,
analyzes the threshold through trail-count generating functions,
decomposes candidate-vs-truth differences into alternating trails, and
builds the above-threshold competing cycle covers.
"""

from .graphcore import (ColoredGraph, Edge, TwoFactor, edge, edge_set, risk,
                        symmetric_difference, validate_structure)
from .sampler import (ModelParams, cycle_type_stats, sample_instance,
                      sample_single_cycle, sample_two_factor)
from .genfun import (GenFunReport, Witness, coefficient, expected_diff_bound,
                     find_m_star, find_witness, g_value, ratio, report,
                     threshold, zero_red_trail_mean)
from .trails import (Trail, TrailExplosionError, canonical_trail,
                     classify_ab_trail, count_ab_trails, enumerate_trails)
from .recovery import RecoveryState, default_max_len, default_quota, recover
from .decomposition import AlternatingDecomposition, decompose_diff, excess
from .adversary import (BalancedCycle, LinkGraph, ReservedEdgeSet,
                        TwoSidedTree, bipartite_alternating_cycles,
                        build_trees, extract_balanced_cycles, link_trees,
                        theory_params, reserve_edges)
from .branching import (OffspringSpec, extinction_fixed_point,
                        population_mean_trajectory, shift_distribution,
                        simulate_survival, survival_bound)
from .harness import (ExperimentConfig, TrialRecord, enumerate_two_factors,
                      exact_recovery_check, parse_config, rng_for, run_trial,
                      sweep, trial_seed)

__version__ = "0.1.0"
