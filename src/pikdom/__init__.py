"""Exact k-domination and total k-domination solvers for proper interval models."""

from .errors import (
    BudgetError,
    DuplicateIntervalError,
    EmptyGraphError,
    NegativeCostError,
    NotArcError,
    NotPathError,
    NotProperError,
    OutOfMemoryError,
    ParamError,
    ParseError,
    PikdomError,
    PreconditionError,
    TooLargeError,
    VertexIndexError,
)
from .fast import search_fast, solve_fast
from .frontier import solve_frontier
from .literal import (
    arc_length,
    eligible_tail_bigs,
    enumerate_nodes,
    is_e0_arc,
    is_e1_arc,
    projected_node_count,
    representative_independence_check,
    suffix_key,
    suffix_partition,
    topo_order,
)
from .model import (
    DerivedGraph,
    Interval,
    ProperIntervalModel,
    build_model,
    derive_graph,
    generate_random,
    intersects,
    min_degree,
    model_min_degree,
    parse_model,
    serialize_model,
    staircase_model,
    staircases,
    with_costs,
)
from .oracle import (
    Solution,
    VARIANT_KDOM,
    VARIANT_TOTAL,
    VertexSet,
    brute_force_min,
    check_lemma_components,
    find_violation,
    is_k_dominating,
    is_total_k_dominating,
)
from .reduction import (
    ARC_E0,
    ARC_E1,
    DagArc,
    DagNode,
    DerivedDigraph,
    build_digraph,
    dump_digraph,
    engine_plan,
    path_to_vertex_set,
    search_naive,
    solve_naive,
)

__version__ = "0.1.0"
