"""One fresh-interpreter set-up: import kronred and load a workload's inputs.

Run as ``python setup_probe.py START PATH...``, where START is the
``time.monotonic()`` reading taken just before this interpreter was
spawned.  With no PATH it imports ``kronred.cli``, as the CLI does;
otherwise it imports ``kronred`` and loads each network file.  It prints the
seconds from START until the inputs are loaded.
"""

import sys
import time


def load(paths):
    """Import kronred and load the network files: the library set-up."""
    from kronred.netfile import load_network

    return [load_network(path).network for path in paths]


def main(argv):
    start = float(argv[0])
    if argv[1:]:
        load(argv[1:])
    else:
        import kronred.cli  # noqa: F401
    print(repr(time.monotonic() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
