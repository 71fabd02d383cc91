"""The three workloads: fixed op lists, how each op runs, and its output check.

``make_ops`` runs in the ``run.py`` process and turns (seed, seconds) into a
fixed op list; the same pair always gives the same list, and the list is
run whole, never cut short by a clock.  ``setup``, ``run`` and ``check``
run in the worker process.  Checks compare against closed forms or an
independent solver, never against kronred itself, and run after the op
loop.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

from tracer import merge_totals, parse_importtime

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
NETWORKS = "networks"

# acyclic shipped pairs: reduced edge 1->2 law g(y) and co-content G(y),
# with y = z_2 - z_1 (kronred's incidence puts +1 at the head); these are the
# series closed forms behind the acceptance criteria 1-4
PAIR_FORMS = {
    "diode_opposite": (lambda y: math.tanh(y / 2), lambda y: 2 * math.log(math.cosh(y / 2))),
    "diode_same": (lambda y: math.exp(y / 2) - 1, lambda y: 2 * math.exp(y / 2) - 2 - y),
    "memristor_pair": (lambda y: y / 2 + y**3 / 8, lambda y: y**2 / 4 + y**4 / 32),
}
TABLE_TOL = 1e-8  # recovered table currents: exact per-sample currents
# co-content columns integrate the monotone-cubic interpolant, and laws read
# back from a reduced file evaluate it; both err most where samples are sparse
# (the table ends): up to 2e-5 at 400 samples and 3e-4 at 64 over 150+ seeds
SPLINE_TOL = 2e-3
CURVE_TOL = 1e-8  # closed-form two-terminal curve and interior solve
FD_STEP = 1e-4
FD_TOL = 1e-8  # reduced Hessian column vs central difference of J_B
STRUCT_TOL = 1e-10
# a minimizer located from function values alone is accurate to about the
# square root of machine epsilon
MIN_HEAT_TOL = 1e-6

GRID_K = 32
GRID_LAW = "y + 0.1*sinh(y)"


class Wrong(Exception):
    """An op returned output that fails its check."""


def _seed(rng):
    return rng.randrange(1_000_000)


# ---------------------------------------------------------------------------
# reduce-shipped


class ReduceShipped:
    """One in-process reduce_network per op over the shipped networks."""

    name = "reduce-shipped"
    in_process = True
    serial_kinds = None  # the single-threaded replay takes every op
    cycle = ("diode_opposite", "diode_same", "memristor_pair", "diode_ring")

    @staticmethod
    def count(seconds):
        return 4 * max(3, round(1.1 * seconds))

    def make_ops(self, rng, seconds, work):
        ops = []
        for i in range(self.count(seconds)):
            net = self.cycle[i % 4]
            ring_round = i // 4
            samples = (64, 128)[ring_round % 2] if net == "diode_ring" else 400
            ops.append({"kind": f"{net}@{samples}", "net": net, "samples": samples,
                        "seed": _seed(rng)})
        return ops

    def inputs(self, spec):
        return [os.path.join(NETWORKS, f"{name}.json") for name in self.cycle]

    def setup(self, spec, nets):
        import kronred

        self.kr = kronred
        self.nets = dict(zip(self.cycle, nets))

    def run(self, op, index):
        plan = self.kr.SamplingPlan(count=op["samples"], seed=op["seed"])
        return self.kr.reduce_network(self.nets[op["net"]], plan)

    def check(self, op, out):
        cert = out.certificate
        edges = out.graph.edges
        tables = out.edge_tables
        for (tail, head), table in zip(edges, tables):
            if not (all(b > a for a, b in zip(table.y, table.y[1:]))
                    and all(b > a for a, b in zip(table.current, table.current[1:]))):
                raise Wrong(f"table {tail}->{head} is not strictly increasing")
        if op["net"] == "diode_ring":
            if set(edges) != {("1", "2"), ("1", "3"), ("2", "3")}:
                raise Wrong(f"ring support {edges} is not the triangle on 1, 2, 3")
            fields = (cert.consistency_residual, cert.integrability_max_asymmetry)
            if (not all(isinstance(v, float) and math.isfinite(v) for v in fields)
                    or not isinstance(cert.accepted, bool) or cert.acyclic is not False
                    or cert.samples_used != op["samples"]):
                raise Wrong(f"ring certificate incomplete: {cert}")
            return
        if edges != (("1", "2"),) or not (cert.accepted and cert.support_stable and cert.acyclic):
            raise Wrong(f"pair reduction {edges} not accepted: {cert}")
        check_pair_table(op["net"], tables[0].y, tables[0].current, tables[0].cocontent)


# ---------------------------------------------------------------------------
# grid-32


def grid_edges(k):
    """Edges of the k x k grid, in file order: right then down from each node."""
    edges = []
    for r in range(k):
        for c in range(k):
            i = r * k + c
            if c + 1 < k:
                edges.append((i, i + 1))
            if r + 1 < k:
                edges.append((i, i + k))
    return edges


def grid_boundary(k):
    return (0, k - 1, k * (k - 1), k * k - 1)


class Grid32:
    """One in-process reduced_hessian per op on the 32 x 32 grid."""

    name = "grid-32"
    in_process = True
    serial_kinds = None  # no op reaches the pool: the replay is a control

    @staticmethod
    def count(seconds):
        return max(11, round(1.4 * seconds))

    def make_ops(self, rng, seconds, work):
        document = {
            "domain": "resistor",
            "nodes": [str(i) for i in range(GRID_K * GRID_K)],
            "boundary": [str(i) for i in grid_boundary(GRID_K)],
            "edges": [{"from": str(a), "to": str(b), "law": GRID_LAW}
                      for a, b in grid_edges(GRID_K)],
        }
        with open(os.path.join(work, "grid32.json"), "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return [{"kind": "reduced_hessian", "z_b": [rng.uniform(-1.0, 1.0) for _ in range(4)]}
                for _ in range(self.count(seconds))]

    def inputs(self, spec):
        return [os.path.join(spec["work"], "grid32.json")]

    def setup(self, spec, nets):
        import kronred

        self.kr = kronred
        self.net = nets[0]
        self.ref = None

    def run(self, op, index):
        return self.kr.reduced_hessian(self.net, np.asarray(op["z_b"]))

    def check(self, op, h):
        scale = 1.0 + float(np.abs(h).max())
        off = h - np.diag(np.diag(h))
        if (h.shape != (4, 4) or np.abs(h - h.T).max() > STRUCT_TOL * scale
                or np.abs(h.sum(axis=1)).max() > STRUCT_TOL * scale
                or off.max() > 1e-12 * scale):
            raise Wrong(f"reduced Hessian lacks Laplacian structure:\n{h}")
        if self.ref is None:
            self.ref = GridReference(GRID_K)
        z_b = np.asarray(op["z_b"])
        _, z_c = self.ref.solve(z_b, None)
        for col in range(4):
            step = np.zeros(4)
            step[col] = FD_STEP
            j_plus, _ = self.ref.solve(z_b + step, z_c)
            j_minus, _ = self.ref.solve(z_b - step, z_c)
            fd = (j_plus - j_minus) / (2 * FD_STEP)
            gap = float(np.abs(fd - h[:, col]).max())
            if gap > FD_TOL * scale:
                raise Wrong(f"column {col} differs from the central difference by {gap:.3e}")


class GridReference:
    """Independent sparse Newton solve of the grid's boundary currents J_B.

    The law is GRID_LAW, g(y) = y + 0.1 sinh(y), written out in numpy.
    """

    def __init__(self, k):
        from scipy import sparse

        edges = grid_edges(k)
        n, m = k * k, len(edges)
        rows = [b for _, b in edges] + [a for a, _ in edges]
        vals = [1.0] * m + [-1.0] * m
        cols = list(range(m)) * 2
        d = sparse.csr_matrix((vals, (rows, cols)), shape=(n, m))
        self.boundary = list(grid_boundary(k))
        self.central = [i for i in range(n) if i not in set(self.boundary)]
        self.d = d
        self.d_c = d[self.central]
        self.d_b = d[self.boundary]
        self.n = n

    def solve(self, z_b, z_c):
        from scipy import sparse
        from scipy.sparse.linalg import splu

        z = np.empty(self.n)
        z[self.boundary] = z_b
        z[self.central] = np.mean(z_b) if z_c is None else z_c
        for _ in range(50):
            y = self.d.T @ z
            r = self.d_c @ (y + 0.1 * np.sinh(y))
            if np.abs(r).max() <= 1e-13:
                return self.d_b @ (y + 0.1 * np.sinh(y)), z[self.central]
            lap = (self.d_c @ sparse.diags(1.0 + 0.1 * np.cosh(y)) @ self.d_c.T).tocsc()
            z[self.central] -= splu(lap).solve(r)
        raise Wrong("reference grid solve did not converge")


# ---------------------------------------------------------------------------
# cli-verbs


def parse_lines(text):
    """Map 'name = value' fields of CLI output to floats (last '=' wins)."""
    values = {}
    for line in text.splitlines():
        for part in line.split(","):
            if "=" in part:
                key, _, value = part.rpartition("=")
                try:
                    values[key.strip()] = float(value)
                except ValueError:
                    pass
    return values


def parse_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    if rows[0] != ["V", "I", "Ghat"]:
        raise Wrong(f"curve header {rows[0]}")
    return [tuple(float(x) for x in row) for row in rows[1:]]


def linear_schur_weights(path):
    """Exact reduced weights of an all-linear network file, by Schur complement."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    index = {name: i for i, name in enumerate(doc["nodes"])}
    lap = np.zeros((len(index), len(index)))
    for edge in doc["edges"]:
        text = edge["law"].replace(" ", "")
        w = 1.0 if text == "y" else float(text.removesuffix("*y"))
        a, b = index[edge["from"]], index[edge["to"]]
        lap[[a, b], [a, b]] += w
        lap[a, b] -= w
        lap[b, a] -= w
    keep = [index[name] for name in doc["boundary"]]
    elim = [i for i in range(len(index)) if i not in keep]
    s = lap[np.ix_(keep, keep)] - lap[np.ix_(keep, elim)] @ np.linalg.solve(
        lap[np.ix_(elim, elim)], lap[np.ix_(elim, keep)])
    names = doc["boundary"]
    return {(names[i], names[k]): -s[i, k] for i in range(len(names))
            for k in range(i + 1, len(names)) if abs(s[i, k]) > 1e-12}


class CliVerbs:
    """One fresh ``python -m kronred.cli`` per op over a fixed verb mix."""

    name = "cli-verbs"
    in_process = False
    serial_kinds = ("reduce-out", "reduce-ring")  # the verbs that reach the pool
    per_round = 9

    @classmethod
    def count(cls, seconds):
        return cls.per_round * max(2, round(0.3 * seconds))

    def make_ops(self, rng, seconds, work):
        net = lambda name: os.path.join(NETWORKS, f"{name}.json")  # noqa: E731
        ops = []
        for r in range(self.count(seconds) // self.per_round):
            reduced = os.path.join(work, f"reduced-{r}.json")
            a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            pa, pb = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            fa, fb = rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75)
            seed, ring_seed = _seed(rng), _seed(rng)
            ops += [
                {"kind": "check", "argv": ["check", net("diode_opposite")]},
                {"kind": "solve", "argv": ["solve", net("diode_opposite"), f"1={a!r}", f"2={b!r}"],
                 "a": a, "b": b},
                {"kind": "reduce-out", "out": reduced, "argv": [
                    "reduce", net("diode_same"), "--samples", "64", "--seed", str(seed),
                    "--out", reduced]},
                {"kind": "reduce-linear", "file": net("triangle_center"),
                 "argv": ["reduce", net("triangle_center")]},
                {"kind": "reduce-ring", "argv": [
                    "reduce", net("diode_ring"), "--samples", "64", "--seed", str(ring_seed)]},
                {"kind": "curve", "argv": ["curve", net("diode_opposite"), "--pair", "1,2"]},
                {"kind": "min-heat", "argv": [
                    "power", net("linear_series"), f"1={pa!r}", f"2={pb!r}", "--min-heat"],
                 "a": pa, "b": pb},
                {"kind": "solve-reduced", "argv": ["solve", reduced, f"1={fa!r}", f"2={fb!r}"],
                 "a": fa, "b": fb},
                # the reduced file's laws are defined only on its sampled range;
                # for 64 samples on the default box that covers [-1.5, 1.5]
                # except with probability below 1e-6
                {"kind": "curve-reduced", "argv": [
                    "curve", reduced, "--pair", "1,2", "--vmin", "-1.5", "--vmax", "1.5"]},
            ]
        return ops

    def inputs(self, spec):
        return []

    def setup(self, spec, nets):
        self.work = spec["work"]
        self.traced = spec["traced"]
        self.totals = {}
        self.peak_kb = 0
        self.repeated = False

    def command(self, op, index):
        if not self.traced:
            return [sys.executable, "-m", "kronred.cli", *op["argv"]], None
        trace_out = os.path.join(self.work, f"trace-{index}.json")
        return [sys.executable, "-X", "importtime", os.path.join(BENCH_DIR, "cli_child.py"),
                trace_out, *op["argv"]], trace_out

    def run(self, op, index):
        cmd, trace_out = self.command(op, index)
        return run_child(cmd, self.work, index), trace_out

    def absorb(self, record, out):
        """Fold a child's peak RSS and layer totals into the pass.

        Returns the child's (kronred, scipy) import seconds, if traced.
        """
        (_, _, stderr, rss), trace_out = out
        self.peak_kb = max(self.peak_kb, rss)
        if trace_out is None:
            return []
        with open(trace_out, encoding="utf-8") as handle:
            child = json.load(handle)
        child["exprlaw.law_keys"] = set(child["exprlaw.law_keys"])
        record["solves"] = child.get("solver.solve_interior.calls", 0)
        merge_totals(self.totals, child)
        return [parse_importtime(stderr)]

    def check(self, op, out):
        (rc, stdout, stderr, _), _ = out
        kind = op["kind"]
        if kind == "reduce-ring":
            return check_ring_document(rc, stdout)
        if rc != 0:
            raise Wrong(f"{kind} exited {rc}: {stderr[-400:]}")
        if kind == "check":
            lines = stdout.splitlines()
            if len(lines) != 18 or not all(line.startswith("PASS") for line in lines):
                raise Wrong(f"check output:\n{stdout}")
        elif kind in ("solve", "solve-reduced"):
            v = parse_lines(stdout)
            a, b = op["a"], op["b"]
            if kind == "solve":
                z0 = -math.log(math.exp(-a) + math.exp(-b)) + math.log(2.0)
                # edges 1->0 and 2->0 carry exp(y) - 1 at y = z_0 - z_tail
                want = {"potential z_C[0]": z0, "nodal current J_B[1]": 1 - math.exp(z0 - a),
                        "nodal current J_B[2]": 1 - math.exp(z0 - b)}
                tol = CURVE_TOL
            else:
                i1 = -PAIR_FORMS["diode_same"][0](b - a)
                want = {"nodal current J_B[1]": i1, "nodal current J_B[2]": -i1}
                tol = SPLINE_TOL
            for key, value in want.items():
                if key not in v or abs(v[key] - value) > tol * (1 + abs(value)):
                    raise Wrong(f"{key} = {v.get(key)!r}, closed form {value!r}")
        elif kind in ("curve", "curve-reduced"):
            rows = parse_csv(stdout)
            if kind == "curve":
                (g, big_g), tol = PAIR_FORMS["diode_opposite"], CURVE_TOL
            else:
                (g, big_g), tol = PAIR_FORMS["diode_same"], SPLINE_TOL
            if len(rows) != 41:
                raise Wrong(f"curve has {len(rows)} rows")
            for v, i, c in rows:
                # current into terminal 1 at V = z_1 - z_2 is -g(-V)
                want_i, want_c = -g(-v), big_g(-v)
                if (abs(i - want_i) > tol * (1 + abs(want_i))
                        or abs(c - want_c) > tol * (1 + abs(want_c))):
                    raise Wrong(f"curve at V={v!r}: I={i!r} G={c!r}, "
                                f"closed form {want_i!r} {want_c!r}")
        elif kind == "reduce-out":
            with open(op["out"], "rb") as handle:
                written = handle.read()
            check_pair_document(json.loads(written), "diode_same")
            if not self.repeated:  # once per pass: same seed, byte-identical file
                self.repeated = True
                again = op["out"] + ".again"
                argv = [again if arg == op["out"] else arg for arg in op["argv"]]
                rc = run_child([sys.executable, "-m", "kronred.cli", *argv], self.work, "again")[0]
                with open(again, "rb") as handle:
                    if rc != 0 or handle.read() != written:
                        raise Wrong("repeating the reduce with the same seed changed its output")
        elif kind == "reduce-linear":
            doc = json.loads(stdout)
            want = linear_schur_weights(op["file"])
            got = {}
            for edge in doc["edges"]:
                ys, cs = edge["table"]["y"], edge["table"]["current"]
                got[(edge["from"], edge["to"])] = cs[-1] / ys[-1]
                if any(abs(c - got[(edge["from"], edge["to"])] * y) > 1e-12 * (1 + abs(c))
                       for y, c in zip(ys, cs)):
                    raise Wrong("linear table is not a line")
            if (not doc["certificate"]["exact_linear"] or set(got) != set(want)
                    or any(abs(got[e] - want[e]) > 1e-12 * (1 + want[e]) for e in want)):
                raise Wrong(f"linear reduce weights {got}, Schur complement {want}")
        elif kind == "min-heat":
            v = parse_lines(stdout)
            mid = (op["a"] + op["b"]) / 2
            if (abs(v.get("constraint z_C[0]", math.nan) - mid) > CURVE_TOL
                    or not v.get("max |difference|", math.inf) <= MIN_HEAT_TOL):
                raise Wrong(f"min-heat output:\n{stdout}")
        return "ok"


def check_pair_table(net, ys, currents, cocontents):
    """Recovered pair table against the closed-form law and co-content."""
    g, big_g = PAIR_FORMS[net]
    for y, i, c in zip(ys, currents, cocontents):
        y, i, c = float(y), float(i), float(c)
        if abs(i - g(y)) > TABLE_TOL * (1 + abs(g(y))):
            raise Wrong(f"current {i!r} at y={y!r}, closed form {g(y)!r}")
        if abs(c - big_g(y)) > SPLINE_TOL * (1 + abs(big_g(y))):
            raise Wrong(f"co-content {c!r} at y={y!r}, closed form {big_g(y)!r}")


def check_pair_document(doc, net):
    edges = doc["edges"]
    cert = doc["certificate"]
    if len(edges) != 1 or (edges[0]["from"], edges[0]["to"]) != ("1", "2") or not cert["accepted"]:
        raise Wrong(f"pair reduction not accepted: {cert}")
    table = edges[0]["table"]
    check_pair_table(net, table["y"], table["current"], table["cocontent"])


def check_ring_document(rc, stdout):
    """A flagged ring reduction (exit 4) is ok; a raised AssumptionError fails."""
    doc = json.loads(stdout)
    if "error" in doc:
        if rc != 4:
            raise Wrong(f"failure document with exit {rc}")
        return "failed"
    cert = doc["certificate"]
    edges = {(e["from"], e["to"]) for e in doc["edges"]}
    if edges != {("1", "2"), ("1", "3"), ("2", "3")}:
        raise Wrong(f"ring support {edges}")
    for e in doc["edges"]:
        for column in ("y", "current"):
            values = e["table"][column]
            if not all(b > a for a, b in zip(values, values[1:])):
                raise Wrong(f"ring table {column} not strictly increasing")
    for key in ("consistency_residual", "integrability_max_asymmetry"):
        if not isinstance(cert.get(key), float):
            raise Wrong(f"ring certificate lacks {key}")
    if not isinstance(cert.get("accepted"), bool) or cert.get("acyclic") is not False:
        raise Wrong(f"ring certificate {cert}")
    if rc != (0 if cert["accepted"] and cert["support_stable"] else 4):
        raise Wrong(f"ring exit {rc} does not match certificate {cert}")
    return "ok"


def run_child(cmd, work, index):
    """Run one CLI child; return (exit code, stdout, stderr, peak RSS in kB)."""
    out_path = os.path.join(work, f"child-{index}.out")
    err_path = os.path.join(work, f"child-{index}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


WORKLOADS = {w.name: w for w in (ReduceShipped, Grid32, CliVerbs)}


def make_ops(workload, seed, seconds, work):
    return WORKLOADS[workload]().make_ops(random.Random(seed), seconds, work)


def calib_ms():
    """A fixed pure-Python plus numpy loop; its time tracks machine speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    np.sqrt(np.arange(200000, dtype=float)).sum()
    return (time.perf_counter() - t0) * 1e3


def expected_solves(op):
    """Interior solves one ok op makes: 2S+50 per acyclic reduce, 2S+74 on the ring."""
    kind = op["kind"]
    if "samples" in op:
        return 2 * op["samples"] + (74 if op["net"] == "diode_ring" else 50)
    return {"reduced_hessian": 1, "reduce-out": 2 * 64 + 50, "reduce-ring": 2 * 64 + 74}.get(kind)
