"""Run one ``shimsurf`` command with module-boundary tracing.

Usage: python3 traced_cli.py <shimsurf arguments...>

Installs the tracer, calls ``shimsurf.cli.run(argv)`` and exits with its
code.  The command's output goes to standard output unchanged; the trace
snapshot and the cache counters go to standard error as one JSON line.
"""

import json
import sys

import tracer


def main() -> int:
    t = tracer.Tracer()
    tracer.install(t)
    import shimsurf.cli

    code = t.wrap("cli.run", shimsurf.cli.run)(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps({"trace": t.snapshot(), "caches": tracer.cache_counts()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
