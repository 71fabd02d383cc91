"""Traced CLI op: ``python -X importtime cli_child.py TRACE_OUT VERB ARGS...``.

Imports ``kronred.cli``, installs the layer wrappers, runs ``main`` on the
verb inside one root span, and writes the folded layer totals to
TRACE_OUT.  The parent reads the ``-X importtime`` lines from stderr.
Exits with the verb's exit code.
"""

import json
import sys


def main(argv):
    trace_out, verb = argv[0], argv[1:]
    import kronred.cli

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    root = tracer.begin()
    try:
        code = kronred.cli.main(verb)
    finally:
        tracer.end(root)
        sys.stdout.flush()
    totals = dict(tracer.totals)
    totals["exprlaw.law_keys"] = sorted(totals.get("exprlaw.law_keys", ()))
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(totals, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
