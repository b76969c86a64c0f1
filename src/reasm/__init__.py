"""Balanced graph reassembling toolkit.

Graphs with bitset vertex sets, reassembling trees with the alpha and beta
measures, exact balanced-tree optimizers, brute-force oracles, and the
reductions tying minimum bisection and 4-clique cover to balanced-tree
optimization.
"""

from .graphs import (
    Graph,
    bridge_count,
    bridges,
    boundary_size,
    complement,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    format_graph,
    induced_subgraph,
    is_connected,
    mask_of,
    parse_graph,
    path_graph,
    relabel,
    vertices_of,
)
from .oracles import (
    Bisection,
    bisection_type,
    find_clique_cover,
    find_equal_size_cover4,
    find_fixed_size_cover4,
    min_bisections,
    p4_closed_form,
    partitions4,
    verify_cover,
)
from .reductions import (
    AugmentedGraph,
    LemmaReport,
    LemmaViolation,
    augment,
    clique_cover_from_beta_optimal,
    equal_size_gadget,
    independent_grandchildren_from_beta_max,
    min_bisection_from_alpha_optimal,
    min_bisection_via_augment,
    verify_lemma,
)
from .solvers import (
    QPModel,
    QPValue,
    beta_complete_closed_form,
    encode_beta_max_qp,
    enumerate_balanced_trees,
    greedy_balanced_heuristic,
    maximize_qp,
    optimal_balanced_trees,
    optimize_balanced,
    qp_objective,
)
from .trees import (
    InvalidTreeError,
    MeasurePair,
    ReassemblingTree,
    beta_via_edge_heights,
    cluster_degree,
    edge_height,
    find_isomorphism,
    measures,
    tree_violations,
)

__version__ = "0.1.0"
