"""Metric dimension of random trees.

Exact linear-time metric dimension for trees, samplers for conditioned
critical branching trees / uniform labeled trees / linear-attachment growth
trees and their continuous-time embedding, numerical evaluation of the
limiting normalized metric dimension for each family, and a seeded Monte
Carlo harness that checks the samples against the limits.
"""

__version__ = "0.1.0"

from .constants import (
    ConstantResult,
    c_from_pk_integral,
    c_general,
    c_gw,
    c_mary,
    c_rrt,
    gw_line_prob,
    gw_pk_prob,
    h_tail,
    lower_incomplete_gamma,
    p_leaf,
    pk_given_x,
    q_line_prob,
    trinomial,
)
from .experiments import (
    ExperimentConfig,
    ExperimentSummary,
    GWModel,
    PAModel,
    UniformModel,
    compare_to_constant,
    export,
    run_experiment,
)
from .fringe import (
    EpsilonAudit,
    count_subtree_property,
    epsilon_audit,
    fringe_size_counts,
    is_line,
    is_pk,
    is_pl,
)
from .generators import (
    CMJTree,
    OffspringPmf,
    PAParams,
    RngSpec,
    sample_H,
    sample_conditioned_gw,
    sample_pa_tree,
    sample_uniform_tree,
    simulate_cmj,
)
from .metric_dimension import (
    MDReport,
    brute_force_md,
    is_resolving,
    md_report,
)
from .quadrature import QuadratureSpec, adaptive_simpson
from .tree import (
    RootedTree,
    build_from_parents,
    parse,
    read_tree,
    serialize,
    write_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
