"""The exported API: every callable ``kronred`` exports and its parameters.

The package's contract is what ``kronred/__init__.py`` exports.  This test
pins each exported callable's parameter names, kinds and defaults, so an
option that is added or removed shows up as an edit here.  Annotations are
left out; they do not change how a caller calls.
"""

import inspect

import kronred as kr

# None: an exception class that keeps Exception's own constructor
SIGNATURES = {
    "AssumptionCertificate": "(samples_used, support_stable, supports, acyclic=None, "
                             "consistency_residual=None, integrability_max_asymmetry=None, "
                             "accepted=None, exact_linear=False)",
    "AssumptionError": None,
    "ConvexityError": "(y, value, source='')",
    "DirectedGraph": "(node_ids, edges)",
    "EdgeLaw": "(g, g_prime, kind, validity_interval, convexity_margin, source='')",
    "ExprSyntaxError": "(message, offset)",
    "GraphStructureError": None,
    "HomogeneityError": "(z, t, lhs, rhs)",
    "IntervalError": "(y, interval, edge='')",
    "KronredError": None,
    "Network": "(graph, laws, partition)",
    "NetworkFileError": "(message, location='')",
    "NodePartition": "(boundary, central)",
    "NonQuadraticLawError": "(edge)",
    "ReducedNetwork": "(graph, edge_tables, certificate)",
    "SamplingPlan": "(count=64, scale=2.0, seed=0)",
    "SolveError": "(message, result=None, edge='')",
    "SolveResult": "(z_c, j_b, iterations, final_residual, converged, z_full)",
    "TableLaw": "(y, current)",
    "build_incidence": "(g)",
    "build_network": "(graph, laws, boundary_ids)",
    "cocontent": "(law, y)",
    "differentiate": "(expr)",
    "dissipated_power": "(net, z)",
    "dump_reduced": "(reduced, domain='resistor', plan=None)",
    "edge_law": "(text, kind='conductance', interval=(-8.0, 8.0))",
    "effective_curve": "(net, a, b, v_grid)",
    "evaluate": "(expr, y)",
    "fundamental_cycles": "(g)",
    "graph_from_laplacian": "(laplacian, node_ids)",
    "holdout_residual": "(net, reduced, plan)",
    "infer_reduced_graph": "(net, plan)",
    "integrability_diagnostic": "(net, reduced_graph, plan, candidate)",
    "interior_hessian_check": "(net, z)",
    "is_acyclic": "(g)",
    "is_connected": "(g)",
    "k_value": "(net, z)",
    "load_network": "(path)",
    "min_heat_check": "(net, z_b, k)",
    "nodal_currents": "(net, z)",
    "parse_law": "(text)",
    "power_balance_check": "(net, z)",
    "recover_edge_laws_acyclic": "(net, reduced_graph, plan, certificate=None)",
    "recover_edge_laws_cyclic": "(net, reduced_graph, plan, certificate=None)",
    "reduce_linear": "(net)",
    "reduce_network": "(net, plan=None)",
    "reduced_hessian": "(net, z_b)",
    "reduced_potential": "(net, z_b)",
    "sensitivity": "(net, z_b)",
    "solve_interior": "(net, z_b, init=None)",
    "to_text": "(expr)",
    "weighted_laplacian": "(net, z)",
}


def _parameters(obj):
    """The signature of ``obj`` without annotations, or None if it has none of its own."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    bare = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=inspect.Signature.empty))


def test_exported_callables_are_pinned():
    exported = {name for name in dir(kr)
                if not name.startswith("_") and callable(getattr(kr, name))}
    assert exported == set(SIGNATURES)


def test_exported_signatures_are_pinned():
    actual = {name: _parameters(getattr(kr, name)) for name in SIGNATURES}
    assert actual == SIGNATURES
