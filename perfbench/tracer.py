"""Layer spans for the traced run, installed from outside the package.

``Tracer.install`` replaces every public function of the kronred layer
modules, in every kronred namespace that binds it, by a wrapper that
records a span: name, layer, parent span, start and end.  Law evaluation
(``exprlaw.evaluate`` and ``TableLaw.g_at``/``gp_at``) is called tens of
thousands of times per op, so those leaf calls add their count and time to
the enclosing span instead of making spans of their own.  The pool that
``kronred.reduction`` builds is replaced by one that runs each task in a
copy of the submitting thread's context, so spans on pool threads keep the
stage that started them as their parent.

Spans stay in memory for one op (or the set-up) and are folded into layer
totals when it ends, outside the op's timed interval.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("cli", "netfile", "exprlaw", "graph", "potential", "solver", "reduction")
# the reduction layer's self time is reported per stage: the nearest of
# these functions above the span
STAGES = {
    "reduction.infer_reduced_graph": "infer",
    "reduction.recover_edge_laws_acyclic": "recover",
    "reduction.recover_edge_laws_cyclic": "recover",
    "reduction.holdout_residual": "holdout",
    "reduction.integrability_diagnostic": "integrability",
}
NETFILE_DUMP = ("netfile.dump_reduced", "netfile.reduced_document")
LEAF_METHODS = ("g_at", "gp_at")
MAX_KEYS = ("reduction.holdout_residual_max", "reduction.pool_threads")

_now = time.perf_counter
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "leaf_n", "leaf_s", "info", "error")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.leaf_n = 0
        self.leaf_s = 0.0
        self.info = None
        self.error = None


def _solve_info(args, kwargs, out):
    z_b = kwargs["z_b"] if "z_b" in kwargs else args[1]
    return id(args[0]), np.asarray(z_b, dtype=float).tobytes(), out.iterations


INFO = {
    "solver.solve_interior": _solve_info,
    "reduction.reduce_network": lambda a, k, out: out.certificate.accepted,
    "reduction.holdout_residual": lambda a, k, out: out.max_abs,
    "netfile.dump_reduced": lambda a, k, out: len(out.encode("utf-8")),
    "exprlaw.edge_law": lambda a, k, out: repr((a, sorted(k.items()))),
}


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def merge_totals(into: dict, other: dict) -> dict:
    """Fold one totals dict into another: sums, maxima and law-key sets."""
    for key, value in other.items():
        if key == "exprlaw.law_keys":
            into.setdefault(key, set()).update(value)
        elif key in MAX_KEYS:
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


class Tracer:
    """Collects spans for one process and folds them into layer totals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict = {}
        self.pool_threads = 1
        self._root = None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer functions of every kronred module imported so far."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "kronred" or name.startswith("kronred."))}
        replacements = {}
        for layer in LAYERS:
            mod = modules.get(f"kronred.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    if layer == "exprlaw" and name == "evaluate":
                        replacements[id(obj)] = (obj, self._leaf(obj))
                    else:
                        replacements[id(obj)] = (obj, self._span(obj, f"{layer}.{name}", layer))
        solver = modules.get("kronred.solver")
        for name in ("cho_factor", "cho_solve"):
            obj = getattr(solver, name, None) if solver else None
            if obj is not None:
                replacements[id(obj)] = (obj, self._span(obj, f"solver.{name}", "factor"))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        reduction = modules.get("kronred.reduction")
        table = getattr(reduction, "TableLaw", None)
        if table is not None:
            for name in LEAF_METHODS:
                setattr(table, name, self._leaf(getattr(table, name)))
            table.cocontent = self._span(table.cocontent, "exprlaw.cocontent", "exprlaw")
        if getattr(reduction, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            reduction.ThreadPoolExecutor = self._pool_class()

    def _span(self, fn, name, layer):
        spans = self.spans
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, _current.get())
            token = _current.set(span)
            spans.append(span)
            span.t0 = _now()
            try:
                out = fn(*args, **kwargs)
                if info is not None:
                    span.info = info(args, kwargs, out)
                return out
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = _now()
                _current.reset(token)

        return wrapper

    def _leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = _current.get() or tracer._root
                if parent is not None:
                    parent.leaf_n += 1
                    parent.leaf_s += _now() - t0

        return wrapper

    def _pool_class(self):
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_threads = max(tracer.pool_threads, self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        return ContextPool

    # -- ops ---------------------------------------------------------------

    def begin(self, name="op"):
        """Open a root span; every span until ``end`` belongs to it."""
        self.spans.clear()
        self.pool_threads = 1
        root = Span(name, "bench", None)
        self._root = root
        self._token = _current.set(root)
        root.t0 = _now()
        return root

    def end(self, root) -> dict:
        """Close the root span, fold its spans into the totals, return its own."""
        root.t1 = _now()
        _current.reset(self._token)
        self._root = None
        own = fold(root, self.spans, self.pool_threads)
        merge_totals(self.totals, own)
        self.spans.clear()
        return own


def fold(root: Span, spans: list, pool_threads: int) -> dict:
    """Layer totals of one root span and the spans recorded under it."""
    children: dict = {}
    for span in spans:
        children.setdefault(id(span.parent), []).append((span.t0, span.t1))
    t: dict = {}

    def add(key, value):
        t[key] = t.get(key, 0) + value

    stage_of: dict = {}

    def stage(span):
        key = id(span)
        if key not in stage_of:
            parent = span.parent
            own = STAGES.get(span.name)
            stage_of[key] = own or (stage(parent) if parent is not None else None)
        return stage_of[key]

    def in_edge_law(span):
        while span is not None:
            if span.name == "exprlaw.edge_law":
                return True
            span = span.parent
        return False

    distinct = set()
    law_keys = set()
    for span in [root] + spans:
        add("exprlaw.eval_calls", span.leaf_n)
        add("exprlaw.eval_s", span.leaf_s)
    for span in spans:
        self_s = (span.t1 - span.t0 - _union_length(children.get(id(span), ()))
                  - span.leaf_s)
        name, layer = span.name, span.layer
        if layer == "factor":
            add("solver.factor_s", self_s)
            add("solver.factorizations", name == "solver.cho_factor")
        elif layer == "reduction":
            add(f"reduction.{stage(span) or 'other'}_s", self_s)
        elif layer == "exprlaw":
            if name == "exprlaw.cocontent":
                add("exprlaw.cocontent_s", self_s)
            elif in_edge_law(span):
                add("exprlaw.edge_law_s", self_s)
            else:
                add("exprlaw.other_s", self_s)
        elif layer == "netfile":
            add("netfile.dump_s" if name in NETFILE_DUMP else "netfile.load_s", self_s)
        else:
            add(f"{layer}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{layer}.calls", 1)
        if span.error is not None:
            add(f"{name}.errors", 1)
        if name == "cli.main" and span.parent is root:
            add("cli.verb_s", span.t1 - span.t0)
        if span.info is None:
            continue
        if name == "solver.solve_interior":
            distinct.add(span.info[:2])
            add("solver.newton_iters", span.info[2])
        elif name == "reduction.reduce_network":
            add("reduction.flagged", span.info is False)
        elif name == "reduction.holdout_residual":
            t["reduction.holdout_residual_max"] = max(
                t.get("reduction.holdout_residual_max", 0.0), span.info)
        elif name == "netfile.dump_reduced":
            add("netfile.dump_bytes", span.info)
        elif name == "exprlaw.edge_law":
            law_keys.add(span.info)
    add("solver.solves_distinct", len(distinct))
    if root.name == "op":
        add("trace.covered_s", _union_length((s.t0, s.t1) for s in spans if s.parent is root))
        add("trace.op_s", root.t1 - root.t0)
    t["exprlaw.law_keys"] = law_keys
    t["reduction.pool_threads"] = pool_threads
    return t


def parse_importtime(text):
    """Cumulative seconds importing kronred, and scipy beneath anything else."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    kronred_s = scipy_s = 0.0
    stack = []  # importtime prints children before parents, so walk backwards
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "kronred" and parent.split(".")[0] != "kronred":
            kronred_s += cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cumulative
        stack.append((depth, name))
    return kronred_s, scipy_s
