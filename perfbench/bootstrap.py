"""Traced stand-in for ``python -m weylreps.cli`` in a benchmark child.

Usage: ``python bootstrap.py SPANS_JSON [weylreps arguments...]``.  Times
the import of ``weylreps.cli``, installs the benchmark's span wrappers,
runs ``weylreps.cli.main`` exactly as ``-m weylreps.cli`` would (an
uncaught exception still prints its traceback and exits 1), and writes the
spans to SPANS_JSON on the way out.
"""

import sys
import time

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import weylreps.cli

    import_s = time.perf_counter() - start
    from spans import Tracer, write_json

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        sys.exit(weylreps.cli.main(argv))
    finally:
        tracer.uninstall()
        write_json(spans_path, {"import_s": import_s, **tracer.dump()})
