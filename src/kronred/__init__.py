"""Kron reduction of nonlinear resistor and memristor networks.

Eliminates the interior nodes of a connected directed graph whose edges
carry strictly monotone conductance laws, producing an input-output
equivalent network on the boundary nodes: a reduced graph, recovered
per-edge laws as monotone sample tables, effective two-terminal curves,
and certificates for the assumptions the construction rests on.
"""

from .errors import (
    AssumptionError,
    ConvexityError,
    ExprSyntaxError,
    GraphStructureError,
    HomogeneityError,
    IntervalError,
    KronredError,
    NetworkFileError,
    NonQuadraticLawError,
    SolveError,
)
from .exprlaw import EdgeLaw, cocontent, differentiate, edge_law, evaluate, parse_law, to_text
from .graph import (
    DirectedGraph,
    build_incidence,
    fundamental_cycles,
    graph_from_laplacian,
    is_acyclic,
    is_connected,
)
from .netfile import dump_reduced, load_network
from .potential import (
    Network,
    NodePartition,
    build_network,
    dissipated_power,
    k_value,
    nodal_currents,
    power_balance_check,
    weighted_laplacian,
)
from .reduction import (
    AssumptionCertificate,
    ReducedNetwork,
    SamplingPlan,
    TableLaw,
    effective_curve,
    holdout_residual,
    infer_reduced_graph,
    integrability_diagnostic,
    recover_edge_laws_acyclic,
    recover_edge_laws_cyclic,
    reduce_linear,
    reduce_network,
    reduced_hessian,
)
from .solver import (
    SolveResult,
    interior_hessian_check,
    min_heat_check,
    reduced_potential,
    sensitivity,
    solve_interior,
)

__version__ = "0.1.0"
