"""Exact toolkit for global forcing sets of maximal matchings.

Build graphs and corona products, enumerate every maximal matching, compute
the global forcing number exactly, verify the corona bounds on concrete
instances, and export the covering model for external ILP solvers.
"""

from .bounds import (
    BoundsReport,
    corollary_lower_bounds,
    corona_matching_number,
    corona_phi_lower_randomly,
    corona_phi_upper_complement,
    corona_phi_upper_sum,
    fibonacci,
    phi_balanced_bipartite,
    phi_complete_even,
    psi_path_corona_triangle,
    sweep_reports,
    verify_bounds,
)
from .corona import (
    CoronaGraph,
    corona_product,
    partition_to_json,
)
from .forcing import (
    ForcingResult,
    is_global_forcing_set,
    phi_exact,
    phi_greedy,
)
from .graph import (
    Graph,
    GraphError,
    GraphFamily,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    empty,
    generate,
    parse_edge_list,
    parse_family_name,
    path,
    recognize_structure,
    serialize_edge_list,
    star,
)
from .ilp import (
    IlpConstraint,
    IlpModel,
    SolutionFormatError,
    build_model,
    export_lp,
    import_solution,
)
from .matchings import (
    BudgetExceededError,
    MatchingSummary,
    RandomlyMatchableVerdict,
    enumerate_maximal_matchings,
    is_matching,
    is_maximal_matching,
    is_randomly_matchable,
    maximal_matching_masks,
    summarize_matchings,
)

__version__ = "0.1.0"
