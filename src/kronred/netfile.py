"""Network file format: JSON documents for networks and reductions.

An input document declares nodes, boundary nodes, and edges carrying law
text::

    {
      "domain": "resistor",
      "nodes": ["0", "1", "2"],
      "boundary": ["1", "2"],
      "edges": [
        {"from": "1", "to": "0", "law": "exp(y) - 1"},
        {"from": "2", "to": "0", "law": "exp(y) - 1",
         "kind": "conductance", "interval": [-8.0, 8.0]}
      ]
    }

``kind`` is "conductance" (default) or "cocontent"; ``interval`` defaults
to the standard validity interval.  ``domain`` is "resistor" (default) or
"memristor" and affects report labels only.

A reduction document has ``"reduced": true`` and its edges carry sample
tables instead of law text; re-loading one yields a network whose laws
interpolate the tables.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvexityError, ExprSyntaxError, NetworkFileError
from .exprlaw import DEFAULT_INTERVAL, edge_law
from .graph import DirectedGraph
from .potential import Network, build_network
from .reduction import ReducedNetwork, SamplingPlan, TableLaw

DOMAINS = ("resistor", "memristor")
INTERPOLATION = "monotone-cubic"  # how a reduced file's tables are read back (TableLaw)


@dataclass
class ParsedEdge:
    tail: str
    head: str
    location: str
    law: object  # the certified law, or the ConvexityError refusing it


@dataclass
class ParsedDocument:
    domain: str
    graph: DirectedGraph
    boundary: tuple[str, ...]
    edges: list[ParsedEdge]
    reduced: bool


@dataclass
class LoadedNetwork:
    network: Network
    domain: str
    reduced: bool


def _require(data: dict, key: str, kind, location: str):
    if key not in data:
        raise NetworkFileError(f"missing required field {key!r}", location)
    value = data[key]
    if not isinstance(value, kind):
        raise NetworkFileError(f"field {key!r} has the wrong type", location)
    return value


def _table_column(table: dict, key: str, location: str) -> np.ndarray:
    """One table column as floats; it must be a list of finite numbers."""
    values = table[key]
    if not isinstance(values, list) or not all(isinstance(v, (int, float)) for v in values):
        raise NetworkFileError(f"table {key!r} must be a list of numbers", location)
    column = np.asarray(values, dtype=float)
    if not np.isfinite(column).all():
        raise NetworkFileError(f"table {key!r} holds a non-finite value", location)
    return column


def certify_table(y: np.ndarray, current: np.ndarray, location: str) -> TableLaw:
    """The law interpolating a table; raises ConvexityError unless its margin is > 0."""
    law = TableLaw(y, current)
    if not law.convexity_margin > 0.0:  # NaN fails too
        raise ConvexityError(float("nan"), law.convexity_margin, f"table at {location}")
    return law


def parse_document(data: dict, location: str = "document") -> ParsedDocument:
    """Validate structure and certify every edge's law in one pass.

    Each distinct (law text, kind, interval) is certified once, at its first
    edge, and every edge that carries it shares the one law object, or the
    one ConvexityError refusing it; each table is certified on its own.  A
    refusal is stored on the edge, not raised, so a later syntax or
    structure error is reported first.
    """
    if not isinstance(data, dict):
        raise NetworkFileError("top level must be an object", location)
    domain = data.get("domain", "resistor")
    if domain not in DOMAINS:
        raise NetworkFileError(f"unknown domain {domain!r}", f"{location}.domain")
    reduced = bool(data.get("reduced", False))
    nodes = _require(data, "nodes", list, location)
    if not nodes or not all(isinstance(x, str) for x in nodes):
        raise NetworkFileError("nodes must be a nonempty list of names", f"{location}.nodes")
    if len(set(nodes)) != len(nodes):
        raise NetworkFileError("duplicate node name", f"{location}.nodes")
    boundary = _require(data, "boundary", list, location)
    if not boundary:
        raise NetworkFileError("boundary must be nonempty", f"{location}.boundary")
    declared = set(nodes)
    for name in boundary:
        if name not in declared:
            raise NetworkFileError(f"boundary node {name!r} is not declared", f"{location}.boundary")
    if len(set(boundary)) != len(boundary):
        raise NetworkFileError("duplicate boundary node", f"{location}.boundary")
    raw_edges = _require(data, "edges", list, location)
    edges = []
    certified: dict = {}
    for idx, entry in enumerate(raw_edges):
        loc = f"{location}.edges[{idx}]"
        if not isinstance(entry, dict):
            raise NetworkFileError("edge must be an object", loc)
        tail = _require(entry, "from", str, loc)
        head = _require(entry, "to", str, loc)
        for name in (tail, head):
            if name not in declared:
                raise NetworkFileError(f"edge references undeclared node {name!r}", loc)
        if tail == head:
            raise NetworkFileError("self-loops are not allowed", loc)
        if reduced:
            table = _require(entry, "table", dict, loc)
            y = table.get("y")
            current = table.get("current")
            if not isinstance(y, list) or not isinstance(current, list) or len(y) != len(current):
                raise NetworkFileError("table needs equal-length 'y' and 'current' lists", loc)
            if len(y) < 2:
                raise NetworkFileError("table needs at least two samples", loc)
            ya = _table_column(table, "y", loc)
            ia = _table_column(table, "current", loc)
            if "cocontent" in table:
                _table_column(table, "cocontent", loc)  # checked, never read
            if not (np.diff(ya) > 0).all():
                raise NetworkFileError("table 'y' values must be strictly increasing", loc)
            try:
                law = certify_table(ya, ia, loc)
            except ConvexityError as exc:
                law = exc
        else:
            law_text = _require(entry, "law", str, loc)
            kind = entry.get("kind", "conductance")
            if kind not in ("conductance", "cocontent"):
                raise NetworkFileError(f"unknown law kind {kind!r}", loc)
            interval = entry.get("interval", list(DEFAULT_INTERVAL))
            if (not isinstance(interval, list) or len(interval) != 2
                    or not all(isinstance(v, (int, float)) for v in interval)):
                raise NetworkFileError("interval must be a [lo, hi] pair", loc)
            lo, hi = float(interval[0]), float(interval[1])
            if not lo < 0.0 < hi:
                raise NetworkFileError("interval must straddle 0", loc)
            key = (law_text, kind, (lo, hi))
            if key not in certified:
                try:
                    certified[key] = edge_law(law_text, kind=kind, interval=(lo, hi))
                except ExprSyntaxError as exc:
                    raise NetworkFileError(f"law does not parse: {exc}", loc) from exc
                except ConvexityError as exc:
                    certified[key] = exc
            law = certified[key]
        edges.append(ParsedEdge(tail, head, loc, law))
    graph = DirectedGraph(tuple(nodes), tuple((e.tail, e.head) for e in edges))
    return ParsedDocument(domain, graph, tuple(boundary), edges, reduced)


def assemble(document: ParsedDocument) -> LoadedNetwork:
    """Build the Network; raises at the first edge whose law was refused."""
    for edge in document.edges:
        if isinstance(edge.law, ConvexityError):
            raise NetworkFileError(f"law is not strictly monotone: {edge.law}", edge.location) from edge.law
    network = build_network(document.graph, [e.law for e in document.edges], document.boundary)
    return LoadedNetwork(network, document.domain, document.reduced)


def load_document(path) -> dict:
    try:
        if str(path) == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise NetworkFileError(str(exc), str(path)) from exc
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"invalid JSON: {exc}", str(path)) from exc


def load_network(path) -> LoadedNetwork:
    """Load and fully validate a network (or reduction) file."""
    data = load_document(path)
    return assemble(parse_document(data, location=str(path)))


# ---------------------------------------------------------------------------
# Serialization


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values)]


def reduced_document(reduced: ReducedNetwork, domain: str = "resistor",
                     plan: SamplingPlan | None = None) -> dict:
    """Deterministic JSON-ready document for a reduction."""
    cert = reduced.certificate
    edges = []
    for (tail, head), table in zip(reduced.graph.edges, reduced.edge_tables):
        edges.append({
            "from": tail,
            "to": head,
            "table": {
                "y": _floats(table.y),
                "current": _floats(table.current),
                "cocontent": _floats(table.cocontent),
            },
            "interpolation": INTERPOLATION,
        })
    certificate = {
        "samples_used": cert.samples_used,
        "support_stable": cert.support_stable,
        "acyclic": cert.acyclic,
        "consistency_residual": cert.consistency_residual,
        "integrability_max_asymmetry": cert.integrability_max_asymmetry,
        "accepted": cert.accepted,
        "exact_linear": cert.exact_linear,
        "support_samples": [sorted(list(pair) for pair in support) for support in cert.supports],
    }
    document = {
        "domain": domain,
        "reduced": True,
        "nodes": list(reduced.graph.node_ids),
        "boundary": list(reduced.graph.node_ids),
        "edges": edges,
        "certificate": certificate,
    }
    if plan is not None:
        document["sampling"] = {"count": plan.count, "scale": plan.scale, "seed": plan.seed}
    return document


def dump_reduced(reduced: ReducedNetwork, domain: str = "resistor",
                 plan: SamplingPlan | None = None) -> str:
    return json.dumps(reduced_document(reduced, domain, plan), indent=2) + "\n"
