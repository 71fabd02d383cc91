"""kronred benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload reduce-shipped --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The op list is generated from the seed
and the seconds before anything is timed, then run whole by a worker
process with ``src`` on its path and the thread variables scrubbed from
its environment, so kronred's own defaults apply.  ``--trace 0`` prints
the end-to-end metrics of that pass.  ``--trace 1`` runs the list untraced
and then traced through layer wrappers, replays the ops that reach
kronred's thread pool with ``KRONRED_THREADS=1``, and prints the per-layer
metrics; it fails if the traced solves per op miss their expected count.
The last stdout line is the JSON result; a line before it records the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("KRONRED_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")
PROBES = 4  # set-ups spread through the op loop, plus one after it
TAIL_BEYOND = 10  # op_tail_ms leaves this many ops above it
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def tail_index(count):
    return max(0, count - TAIL_BEYOND - 1)


def run_pass(spec, work, name, env, deadline):
    spec_path = os.path.join(work, f"{name}.spec.json")
    result_path = os.path.join(work, f"{name}.result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                             spec_path, result_path], env=env, preexec_fn=os.setpgrp)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} pass did not finish in time") from None
    finally:
        if proc.returncode is None:  # timed out or interrupted: stop the whole pass
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise BenchError(f"{name} pass exited with {code}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _op_s(result):
    return sum(r["s"] for r in result["records"])


def _ok_per_s(result):
    return sum(r["status"] == "ok" for r in result["records"]) / _op_s(result)


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(result):
    records = result["records"]
    seconds = [r["s"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "ops_per_s": (_ok_per_s(result), "1/s"),
        "op_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "op_tail_ms": (sorted(seconds)[tail_index(len(seconds))] * 1e3, "ms"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced, serial, replayed):
    t = traced["totals"]
    n = len(traced["records"])

    def get(key):
        return t.get(key, 0)

    def per_op(key, unit="count"):
        return get(key) / n, unit

    def ms(key):
        return get(key) / n * 1e3, "ms"

    solves = get("solver.solve_interior.calls")
    reduces = get("reduction.reduce_network.calls") - get("reduction.reduce_network.errors")
    imports = plain["import_s"] + traced["import_s"]
    return {
        "cli.import_s": (statistics.median(i[0] for i in imports), "s"),
        "cli.import_scipy_s": (statistics.median(i[1] for i in imports), "s"),
        "cli.verb_ms": ms("cli.verb_s"),
        "netfile.load_calls": per_op("netfile.load_network.calls"),
        "netfile.load_ms": ms("netfile.load_s"),
        "netfile.dump_ms": ms("netfile.dump_s"),
        "netfile.dump_bytes": per_op("netfile.dump_bytes", "bytes"),
        "exprlaw.edge_law_calls": per_op("exprlaw.edge_law.calls"),
        "exprlaw.edge_law_ms": ms("exprlaw.edge_law_s"),
        "exprlaw.eval_calls": per_op("exprlaw.eval_calls"),
        "exprlaw.eval_ms": ms("exprlaw.eval_s"),
        "exprlaw.cocontent_calls": per_op("exprlaw.cocontent.calls"),
        "exprlaw.cocontent_ms": ms("exprlaw.cocontent_s"),
        "exprlaw.distinct_law_ratio": (
            _ratio(len(get("exprlaw.law_keys") or ()), get("exprlaw.edge_law.calls")), "ratio"),
        "graph.calls": per_op("graph.calls"),
        "graph.self_ms": ms("graph.self_s"),
        "potential.laplacian_calls": per_op("potential.weighted_laplacian.calls"),
        "potential.self_ms": ms("potential.self_s"),
        "solver.solves": per_op("solver.solve_interior.calls"),
        "solver.solves_distinct": per_op("solver.solves_distinct"),
        "solver.distinct_ratio": (_ratio(get("solver.solves_distinct"), solves), "ratio"),
        "solver.newton_iters": per_op("solver.newton_iters"),
        "solver.factorizations": per_op("solver.factorizations"),
        "solver.factor_ms": ms("solver.factor_s"),
        "solver.self_ms": ms("solver.self_s"),
        "solver.failed": per_op("solver.solve_interior.errors"),
        "reduction.infer_ms": ms("reduction.infer_s"),
        "reduction.recover_ms": ms("reduction.recover_s"),
        "reduction.holdout_ms": ms("reduction.holdout_s"),
        "reduction.integrability_ms": ms("reduction.integrability_s"),
        "reduction.reduced_hessian_calls": per_op("reduction.reduced_hessian.calls"),
        "reduction.flagged_ratio": (_ratio(get("reduction.flagged"), reduces), "ratio"),
        "reduction.holdout_residual_max": (get("reduction.holdout_residual_max"), "abs"),
        "reduction.pool_threads": (get("reduction.pool_threads") or 1, "count"),
        "reduction.serial_speedup": (
            sum(plain["records"][i]["s"] for i in replayed) / _op_s(serial), "ratio"),
        "trace.overhead_ratio": (_ok_per_s(traced) / _ok_per_s(plain), "ratio"),
        "trace.coverage": (_ratio(get("trace.covered_s"), get("trace.op_s")), "ratio"),
        "machine.calib_ms": (plain["calib_ms"], "ms"),
    }


def check_coverage(ops, traced):
    """Solves per ok op must match the pipeline's count: a missed binding fails."""
    for index, (op, rec) in enumerate(zip(ops, traced["records"])):
        want = workloads.expected_solves(op)
        if rec["status"] == "ok" and want is not None and rec.get("solves") != want:
            raise BenchError(f"coverage: op {index} ({op['kind']}) traced "
                             f"{rec.get('solves')} solves, expected {want}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still reaches the cleanup below and stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kronred", "__init__.py")):
        print(f"error: no kronred sources under {src}; run from a kronred checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops = workloads.make_ops(args.workload, args.seed, args.seconds, work)
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = src
        spec = {"workload": args.workload, "ops": ops, "work": work, "traced": False,
                "probes": PROBES, "importtime": bool(args.trace)}
        plain = run_pass(spec, work, "plain", env, deadline)
        passes = [("plain", plain)]
        if args.trace:
            traced = run_pass(dict(spec, traced=True, probes=0), work, "traced", env, deadline)
            check_coverage(ops, traced)
            kinds = workloads.WORKLOADS[args.workload].serial_kinds
            replayed = [i for i, op in enumerate(ops) if kinds is None or op["kind"] in kinds]
            serial_spec = dict(spec, ops=[ops[i] for i in replayed], probes=0)
            serial = run_pass(serial_spec, work, "serial", dict(env, KRONRED_THREADS="1"),
                              deadline)
            passes += [("traced", traced), ("serial", serial)]
            metrics = per_layer(plain, traced, serial, replayed)
        else:
            metrics = end_to_end(plain)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = [(name, i, r) for name, p in passes for i, r in enumerate(p["records"])
           if r["status"] not in ("ok", "failed")]
    for name, index, rec in bad[:10]:
        print(f"{name} op {index} ({rec['kind']}): {rec['status']}", file=sys.stderr)
    records = plain["records"]
    env_record = dict(plain["env"], nproc=os.cpu_count(), python=platform.python_version(),
                      workload=args.workload, ops=len(records), calib_ms=plain["calib_ms"],
                      op_tail_percentile=100.0 * (tail_index(len(records)) + 1) / len(records))
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
