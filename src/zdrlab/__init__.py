"""Exact workbench for zero-divisor graphs of finite commutative rings.

Importing the package loads rings, graphs and the solver. The family
generators (``families``) and the claim registry (``verify``) load on the
first read of one of their names (PEP 562), so a command that only solves
never compiles them.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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

# name -> the submodule that defines it, imported on the name's first read
_LAZY = {
    **dict.fromkeys((
        "ClosedFormDims",
        "FamilyId",
        "FamilyKind",
        "closed_form_dims",
        "complete",
        "complete_bipartite",
        "cycle",
        "generate_family",
        "path",
        "recognize_family",
        "star",
    ), "families"),
    **dict.fromkeys((
        "ERRATA",
        "SuiteConfig",
        "SuiteReport",
        "Table",
        "TheoremVerdict",
        "UnknownClaimError",
        "emit_table1",
        "emit_table2",
        "load_suite_config",
        "run_suite",
        "verify_theorem",
    ), "verify"),
}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY.values():  # the submodule itself, read as an attribute
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
