"""One pass over a fixed op list, in the process whose cost is measured.

Run as ``python worker.py SPEC RESULT``.  SPEC (JSON) names the workload,
its op list, the work directory, whether to trace, and how many set-up
probes to spread through the pass.  The worker sets up, runs every op in
order, timing each alone, then checks every output and writes RESULT.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import setup_probe
import tracer as tracing
import workloads


def probe(inputs, importtime):
    """Time one fresh-interpreter set-up; with importtime also parse -X importtime."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(workloads.BENCH_DIR, "setup_probe.py")]
    start = time.monotonic()
    done = subprocess.run(cmd + [repr(start), *inputs], capture_output=True, text=True,
                          check=True)
    seconds = float(done.stdout.strip().splitlines()[-1])
    return seconds, (tracing.parse_importtime(done.stderr) if importtime else None)


def openblas_threads():
    """Thread count of each OpenBLAS loaded in this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(lib)] = fn()
                break
    return counts


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    import kronred.reduction as reduction

    pool = getattr(reduction, "_thread_count", None)
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "pool_threads": pool() if pool else 1,
        "KRONRED_THREADS": os.environ.get("KRONRED_THREADS"),
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    wl = workloads.WORKLOADS[spec["workload"]]()
    tracer = tracing.Tracer() if spec["traced"] and wl.in_process else None
    inputs = wl.inputs(spec)
    if wl.in_process:
        import kronred  # noqa: F401

        if tracer:
            tracer.install()
            root = tracer.begin("setup")
        nets = setup_probe.load(inputs)
        if tracer:
            tracer.end(root)
    else:
        nets = []
    wl.setup(spec, nets)

    ops = spec["ops"]
    probes = spec["probes"]
    probe_before = {round(k * len(ops) / probes) for k in range(probes)} if probes else set()
    setups, imports, calib, records, outputs = [], [], [], [], []
    for index, op in enumerate(ops):
        if index in probe_before:
            seconds, imported = probe(inputs, spec["importtime"])
            setups.append(seconds)
            if imported:
                imports.append(imported)
        calib.append(workloads.calib_ms())
        root = tracer.begin() if tracer else None
        t0 = time.perf_counter()
        try:
            out = wl.run(op, index)
            status = None
        except Exception as exc:  # noqa: BLE001  - classified below, loop keeps going
            out = None
            status = ("failed" if type(exc).__module__.startswith("kronred")
                      else "error: " + "".join(traceback.format_exception_only(exc)).strip())
        seconds = time.perf_counter() - t0
        record = {"kind": op["kind"], "s": seconds, "status": status}
        if tracer:
            record["solves"] = tracer.end(root).get("solver.solve_interior.calls", 0)
        records.append(record)
        outputs.append(out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if probes:
        seconds, imported = probe(inputs, spec["importtime"])
        setups.append(seconds)
        if imported:
            imports.append(imported)

    for op, rec, out in zip(ops, records, outputs):
        if not wl.in_process:
            imports += wl.absorb(rec, out)
        if rec["status"] is not None:
            continue
        try:
            rec["status"] = wl.check(op, out) or "ok"
        except workloads.Wrong as exc:
            rec["status"] = f"wrong: {exc}"
    if wl.in_process:
        totals = dict(tracer.totals if tracer else {})
    else:
        peak_kb, totals = wl.peak_kb, dict(wl.totals)
    totals["exprlaw.law_keys"] = sorted(totals.get("exprlaw.law_keys", ()))
    result = {
        "records": records,
        "setup_s": setups,
        "import_s": imports,
        "calib_ms": statistics.median(calib),
        "peak_rss_mb": peak_kb / 1024,
        "totals": totals,
        "env": environment(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:])
