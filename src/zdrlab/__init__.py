"""Exact workbench for zero-divisor graphs of finite commutative rings."""

from .rings import (
    CatalogError,
    FiniteRing,
    OrderCapError,
    RingError,
    RingProps,
    RingSpec,
    SpecSyntaxError,
    ZeroDivisorSet,
    annihilator,
    build_ring,
    catalog_ids,
    cut_vertex_entry_ids,
    parse_ring_spec,
    ring_axiom_failures,
    ring_properties,
    zero_divisors,
)
from .graphs import (
    INF,
    EmptyGraphError,
    GraphInvariants,
    ZDGraph,
    build_zdgraph,
    export_graph,
    graph_from_edges,
    graph_invariants,
    parse_edgelist,
)
from .families import (
    ClosedFormDims,
    FamilyId,
    FamilyKind,
    closed_form_dims,
    complete,
    complete_bipartite,
    cycle,
    generate_family,
    path,
    recognize_family,
    star,
)
from .solver import (
    Budget,
    BudgetExceededError,
    DimensionReport,
    DisconnectedGraphError,
    QuantityResult,
    TwinPartition,
    domination_number,
    dominant_metric_dimension,
    is_dominating,
    is_resolving,
    metric_dimension,
    solve_dimensions,
    twin_classes,
)
from .verify import (
    ERRATA,
    SuiteConfig,
    SuiteReport,
    Table,
    TheoremVerdict,
    UnknownClaimError,
    emit_table1,
    emit_table2,
    load_suite_config,
    run_suite,
    verify_theorem,
)

__version__ = "0.1.0"
