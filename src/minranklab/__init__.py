"""minranklab: exact minrank computation, bounds, constructions, and verifiers.

Graphs are bitset-backed and immutable; matrices are exact over prime fields
or the rationals; every solver either answers exactly or refuses explicitly
when its work budget is exceeded.
"""

from .budgets import BudgetExceededError, gaussian_binomial
from .graphs import (
    Digraph,
    Graph,
    canonical_key,
    chromatic_number,
    complement,
    complete_graph,
    complete_multipartite,
    contains_subgraph,
    cycle_graph,
    degeneracy,
    empty_graph,
    independence_number,
    is_forest,
    is_tree,
    min_odd_cycle_at_most,
    named_graph,
    path_graph,
    sample_digraph,
    star_graph,
    underlying_graph,
    union_graph,
)
from .graphio import (
    digraph_from_edge_text,
    digraph_to_edge_text,
    graph_from_graph6,
    graph_to_graph6,
)
from .kneser import (
    ConstructionReport,
    KneserParams,
    KneserWitness,
    binary_entropy,
    entropy_delta_limit,
    intersection_polynomial,
    odd_girth_guarantee,
    pattern_polynomial_coefficients,
    rank_bound_report,
    representation_matrix,
)
from .lll import (
    HStats,
    LLLCheckReport,
    LLLInstance,
    check_lll_inequalities,
    find_constants,
    find_threshold,
    gamma_stats,
)
from .matrices import (
    FieldMatrix,
    RationalMatrix,
    format_matrix_text,
    parse_matrix_text,
)
from .minrank import Bounds, MinrankResult, minrank_bounds, minrank_exact, represents
from .verifiers import (
    SamplingEstimate,
    VerificationReport,
    estimate_g,
    exhaustive_g,
    regime_edge_prob,
    verify_forest_bound,
    verify_principal_submatrix_decomposition,
    verify_sparse_basis_count,
    verify_sparsity_lower_bound,
)

__version__ = "0.1.0"
